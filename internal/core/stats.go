package core

// Stats describes the physical size of a Hexastore in index entries, the
// unit the paper's space argument (§4.1) is phrased in: each resource of
// a worst-case triple contributes two header entries, two vector entries
// and one terminal-list entry — five entries versus one triples-table
// cell, hence the quintuple worst-case bound.
type Stats struct {
	Triples int // distinct triples stored

	Headers       int // head resources summed over the six indices
	VectorEntries int // (key, list-pointer) pairs summed over the six indices
	ListEntries   int // ids summed over the three shared terminal-list tables

	// TripleTableEntries is the baseline: 3 cells per triple.
	TripleTableEntries int
}

// TotalEntries returns all resource-key slots the six indices occupy.
func (s Stats) TotalEntries() int { return s.Headers + s.VectorEntries + s.ListEntries }

// ExpansionFactor returns TotalEntries divided by the triples-table
// entries — the paper's space-overhead metric, ≤ 5 in the worst case.
func (s Stats) ExpansionFactor() float64 {
	if s.TripleTableEntries == 0 {
		return 0
	}
	return float64(s.TotalEntries()) / float64(s.TripleTableEntries)
}

// entryBytes is the size of one dictionary key in every physical layout
// of this repository (IDs are uint64).
const entryBytes = 8

// SizeBytes estimates the index memory footprint (excluding the
// dictionary): one 8-byte slot per entry plus per-vector and per-list
// header overheads. Used by the Figure 15 experiment.
func (s Stats) SizeBytes() int64 {
	return int64(s.TotalEntries()) * entryBytes
}

// Stats reads the sizes off the arenas' running counters. Each ordering
// holds every triple once in its terminal lists, so counting one list
// table per ordering pair (spo/pso, sop/osp, pos/ops) gives the paper's
// shared-list count: three entries per triple.
func (st *Store) Stats() Stats {
	out := Stats{Triples: st.size, TripleTableEntries: st.size * 3}
	for i := range st.arenas {
		a := &st.arenas[i]
		out.Headers += 2 * a.heads
		out.VectorEntries += a.vecEntries[0] + a.vecEntries[1]
		out.ListEntries += a.listEntries
	}
	return out
}

// IndexStats is the physical (heap-byte) counterpart of Stats: what the
// six indexes cost in memory — the space01 experiment's measurement.
type IndexStats struct {
	// Triples is the number of distinct triples stored.
	Triples int `json:"triples"`
	// Compressed is always true — the packed layout is the store's only
	// one — and stays for the readers of the field.
	Compressed bool `json:"compressed"`
	// Bytes is the heap footprint of the six indexes (the dictionary is
	// excluded); see Store.IndexBytes.
	Bytes int64 `json:"bytes"`
}

// BytesPerTriple returns Bytes / Triples.
func (s IndexStats) BytesPerTriple() float64 {
	if s.Triples == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.Triples)
}

// Estimated per-structure heap costs of the paper's layout, in bytes:
// head maps of vector structs whose entries point at terminal lists
// shared by two orderings. Slice headers are 24, pointers and IDs 8;
// mapSlack models Go map bucket overhead and load factor (~1.5x the entry
// payload); allocSlack is the allocator's per-object header/rounding.
const (
	sliceHeader = 24
	mapSlack    = 3 // numerator of the 3/2 map overhead factor
	allocSlack  = 16
	vecStruct   = 2*sliceHeader + 8 // keys, lists, packed pointer
	listStruct  = sliceHeader + 8   // ids + comp pointer
)

// mapBytes estimates a Go map holding n entries of entrySize payload.
func mapBytes(n, entrySize int) int64 {
	return int64(n) * int64(entrySize) * mapSlack / 2
}

// IndexBytes returns the heap bytes the six indexes occupy: an exact
// sum, the capacity of every arena segment (dead bytes included) plus
// the directories.
func (st *Store) IndexBytes() int64 {
	var total int64
	for i := range st.arenas {
		total += st.arenas[i].bytes()
	}
	return total
}

// ArenaStats sums the three arenas.
type ArenaStats struct {
	HeapBytes int64 // what IndexBytes reports
	Bytes     int64 // held by the segments
	DeadBytes int64 // of Bytes: records a Patch replaced, until the next rewrite
	Segments  int
}

// ArenaStats reads the arenas' running counters.
func (st *Store) ArenaStats() ArenaStats {
	var out ArenaStats
	for i := range st.arenas {
		a := &st.arenas[i]
		out.HeapBytes += a.bytes()
		out.Bytes += a.size
		out.DeadBytes += a.dead
		out.Segments += len(a.segs)
	}
	return out
}

// IndexStats reports the store's physical index footprint.
func (st *Store) IndexStats() IndexStats {
	return IndexStats{Triples: st.size, Compressed: true, Bytes: st.IndexBytes()}
}

// EstimateRawIndexBytes is the paper's §4.1 cost model: what the logical
// content described by s would cost in the shared-terminal-list layout,
// counting the structure overheads (slice headers, map slack, allocator
// rounding) where that layout's bytes go on short-list RDF data. The
// server's /stats reports it against IndexBytes as a compression ratio.
func EstimateRawIndexBytes(s Stats) int64 {
	pairs := s.VectorEntries / 2 // each shared list is referenced by two vectors
	return mapBytes(s.Headers, 16) +
		int64(s.Headers)*(vecStruct+allocSlack) +
		int64(s.VectorEntries)*16 +
		mapBytes(pairs, 24) +
		int64(pairs)*(listStruct+allocSlack) +
		int64(s.ListEntries)*8
}
