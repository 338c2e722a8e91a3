package core

import "hexastore/internal/idlist"

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

// Stats computes the current sizes. On the raw layout it is O(#vectors),
// the per-list lengths summed from the shared tables; on the compressed
// layout it reads the arenas' running counters (the spo/pso/osp list
// totals, like the three shared tables' entry counts, are one per triple
// each, so the two layouts report identical logical sizes).
func (st *Store) Stats() Stats {
	st.mu.RLock()
	defer st.mu.RUnlock()

	var out Stats
	out.Triples = st.size
	out.TripleTableEntries = st.size * 3

	if st.compressed {
		for i := range st.arenas {
			a := &st.arenas[i]
			out.Headers += 2 * a.heads
			out.VectorEntries += a.vecEntries[0] + a.vecEntries[1]
			out.ListEntries += a.listEntries
		}
		return out
	}
	for i := range st.idx {
		out.Headers += len(st.idx[i])
		for _, vec := range st.idx[i] {
			out.VectorEntries += vec.Len()
		}
	}
	for _, l := range st.objLists {
		out.ListEntries += l.Len()
	}
	for _, l := range st.propLists {
		out.ListEntries += l.Len()
	}
	for _, l := range st.subjLists {
		out.ListEntries += l.Len()
	}
	return out
}

// IndexStats is the physical (heap-byte) counterpart of Stats: what the
// six indexes cost in memory under the current layout — the space01
// experiment's measurement.
type IndexStats struct {
	// Triples is the number of distinct triples stored.
	Triples int `json:"triples"`
	// Compressed reports the current layout.
	Compressed bool `json:"compressed"`
	// Bytes is the heap footprint of the six indexes (the dictionary is
	// excluded) under the current layout; see Store.IndexBytes.
	Bytes int64 `json:"bytes"`
}

// BytesPerTriple returns Bytes / Triples.
func (s IndexStats) BytesPerTriple() float64 {
	if s.Triples == 0 {
		return 0
	}
	return float64(s.Bytes) / float64(s.Triples)
}

// Estimated per-structure heap costs of the raw layout, in bytes. Slice
// headers are 24, pointers and IDs 8; mapSlack models Go map bucket
// overhead and load factor (~1.5x the entry payload); allocSlack is the
// allocator's per-object header/rounding.
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

// IndexBytes returns the heap bytes the six indexes occupy under the
// current layout. Compressed layout: an exact sum, the capacity of every
// arena segment (dead bytes included) plus the directories. Raw layout:
// an estimate over head maps, Vec structs with key and list-pointer
// slices, the three shared pair maps, and one List allocation plus 8
// bytes per id per shared terminal list; it deliberately counts
// structure overheads (slice headers, map slack, allocator rounding) —
// they are where the raw layout's bytes actually go on short-list RDF
// data, and omitting them would overstate the compression win.
func (st *Store) IndexBytes() int64 {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var total int64
	if st.compressed {
		for i := range st.arenas {
			total += st.arenas[i].bytes()
		}
		return total
	}
	for i := range st.idx {
		// Head map entry: ID key + *Vec value.
		total += mapBytes(len(st.idx[i]), 16)
		for _, vec := range st.idx[i] {
			total += vecStruct + allocSlack + int64(vec.Len())*16 // 8B key + 8B list pointer
		}
	}
	for _, m := range []map[pairKey]*idlist.List{st.objLists, st.propLists, st.subjLists} {
		// Pair map entry: 16B pairKey + 8B pointer.
		total += mapBytes(len(m), 24)
		for _, l := range m {
			total += listStruct + allocSlack + int64(l.Len())*8
		}
	}
	return total
}

// ArenaStats sums the compressed layout's three arenas; all zero on a raw
// store.
type ArenaStats struct {
	HeapBytes int64 // what IndexBytes reports
	Bytes     int64 // held by the segments
	DeadBytes int64 // of Bytes: records a Patch replaced, until the next rewrite
	Segments  int
}

// ArenaStats reads the arenas' running counters.
func (st *Store) ArenaStats() ArenaStats {
	st.mu.RLock()
	defer st.mu.RUnlock()
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
	return IndexStats{
		Triples:    st.Len(),
		Compressed: st.Compressed(),
		Bytes:      st.IndexBytes(),
	}
}

// EstimateRawIndexBytes estimates what the logical content described
// by s would cost in the raw (uncompressed) layout, using the same
// per-structure constants as IndexBytes does for a raw store. The server's /stats uses it
// to report a compression ratio for a compressed store without
// building the raw twin; on a raw store it coincides with IndexBytes
// up to rounding.
func EstimateRawIndexBytes(s Stats) int64 {
	pairs := s.VectorEntries / 2 // each shared list is referenced by two vectors
	return mapBytes(s.Headers, 16) +
		int64(s.Headers)*(vecStruct+allocSlack) +
		int64(s.VectorEntries)*16 +
		mapBytes(pairs, 24) +
		int64(pairs)*(listStruct+allocSlack) +
		int64(s.ListEntries)*8
}
