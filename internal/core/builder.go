package core

import (
	"runtime"
	"slices"
	"sync"

	"hexastore/internal/dictionary"
	"hexastore/internal/idlist"
	"hexastore/internal/rdf"
)

// Builder bulk-loads a Hexastore: it collects all triples, sorts them
// three times, and writes every vector and terminal list in its final
// sorted order.
type Builder struct {
	dict    *dictionary.Dictionary
	triples [][3]ID
}

// NewBuilder returns a bulk loader that will produce a store sharing
// dict (nil: a fresh dictionary).
func NewBuilder(dict *dictionary.Dictionary) *Builder {
	if dict == nil {
		dict = dictionary.New()
	}
	return &Builder{dict: dict}
}

// Add records the triple ⟨s,p,o⟩ for loading. Duplicates are removed at
// Build time.
func (b *Builder) Add(s, p, o ID) {
	if s == None || p == None || o == None {
		return
	}
	b.triples = append(b.triples, [3]ID{s, p, o})
}

// AddAll bulk-records ts with one append (a single grow + copy), then
// compacts out entries containing None — the slice-level counterpart of
// calling Add per triple, used where the triples are already encoded
// (EncodeTriples output, bench harnesses).
func (b *Builder) AddAll(ts [][3]ID) {
	start := len(b.triples)
	b.triples = append(b.triples, ts...)
	w := start
	for _, t := range b.triples[start:] {
		if t[0] == None || t[1] == None || t[2] == None {
			continue
		}
		b.triples[w] = t
		w++
	}
	b.triples = b.triples[:w]
}

// AddTriple dictionary-encodes and records an rdf.Triple. Invalid triples
// are ignored and reported.
func (b *Builder) AddTriple(t rdf.Triple) bool {
	if !t.Valid() {
		return false
	}
	s, p, o := b.dict.EncodeTriple(t)
	b.Add(s, p, o)
	return true
}

// Len returns the number of recorded triples (before deduplication).
func (b *Builder) Len() int { return len(b.triples) }

// Dictionary returns the dictionary the builder encodes with (and the
// built store will share).
func (b *Builder) Dictionary() *dictionary.Dictionary { return b.dict }

// Build constructs the store. The builder may be reused afterwards; the
// recorded triples are retained (Build copies what it needs). Initial
// loads that discard the builder should prefer BuildParallel, which
// consumes the triple buffer instead of copying it and can use several
// cores.
func (b *Builder) Build() *Store {
	ts := make([][3]ID, len(b.triples))
	copy(ts, b.triples)
	return buildFrom(b.dict, ts, 1)
}

// BuildParallel constructs the store using up to workers goroutines
// (workers <= 0 means runtime.GOMAXPROCS(0); 1 runs the sequential
// passes). It consumes the recorded triples — the builder's buffer is
// released rather than copied, so peak memory during million-triple loads
// is one triple set, not two — and the builder must not be reused for
// another Build afterwards (Add starts a fresh load).
//
// The resulting store is identical to Build's output for every worker
// count: each index pass consumes the fully sorted triple set in its own
// order, so neither goroutine scheduling nor the parallel sort's chunking
// can change what is built.
func (b *Builder) BuildParallel(workers int) *Store {
	ts := b.triples
	b.triples = nil
	return buildFrom(b.dict, ts, workers)
}

// buildFrom sorts, dedupes and packs ts, which it owns, into a new store.
// With workers > 1 the (s,o,p) and (p,o,s) passes get their own sorted
// copies and all three passes run concurrently, each writing only its own
// two runs. The built content is identical for every worker count: each
// pass consumes the fully sorted triple set in its own order, so neither
// goroutine scheduling nor the parallel sort's chunking can change what
// is built.
func buildFrom(dict *dictionary.Dictionary, ts [][3]ID, workers int) *Store {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Dedupe on (s,p,o).
	sortTriples(ts, 0, 1, 2, workers)
	ts = dedupeTriples(ts)
	st := NewShared(dict)
	st.size = len(ts)

	// Each pass packs one ordering pair's runs; the orderings meet in
	// their head position's arena at the end.
	var runs [6]packedRun

	if workers <= 1 {
		// Pass 1 — sorted by (s,p,o): the spo and pso vectors.
		runs[SPO], runs[PSO] = packPass(ts, 0, 1, 2)

		// Pass 2 — sorted by (s,o,p): sop and osp.
		sortTriples(ts, 0, 2, 1, 1)
		runs[SOP], runs[OSP] = packPass(ts, 0, 2, 1)

		// Pass 3 — sorted by (p,o,s): pos and ops.
		sortTriples(ts, 1, 2, 0, 1)
		runs[POS], runs[OPS] = packPass(ts, 1, 2, 0)
	} else {
		// Parallel passes: pass 1 reuses the (s,p,o)-sorted ts as is and
		// runs on the calling goroutine (which would otherwise idle in
		// Wait); passes 2 and 3 sort private copies. The spawned lanes stay
		// within the budget: with workers == 2 a single lane handles both
		// re-sorts sequentially, otherwise two lanes split the remaining
		// workers-1 budget between their sorts — so at most `workers`
		// goroutines are CPU-bound at any moment.
		ts2 := slices.Clone(ts)
		ts3 := slices.Clone(ts)
		pass2 := func(sortWorkers int) {
			sortTriples(ts2, 0, 2, 1, sortWorkers)
			runs[SOP], runs[OSP] = packPass(ts2, 0, 2, 1)
		}
		pass3 := func(sortWorkers int) {
			sortTriples(ts3, 1, 2, 0, sortWorkers)
			runs[POS], runs[OPS] = packPass(ts3, 1, 2, 0)
		}
		var wg sync.WaitGroup
		if workers == 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				pass2(1)
				pass3(1)
			}()
		} else {
			s2 := (workers - 1) / 2
			s3 := workers - 1 - s2
			wg.Add(2)
			go func() {
				defer wg.Done()
				pass2(s2)
			}()
			go func() {
				defer wg.Done()
				pass3(s3)
			}()
		}
		runs[SPO], runs[PSO] = packPass(ts, 0, 1, 2)
		wg.Wait()
	}
	for i := range st.arenas {
		st.arenas[i] = records(runs[2*i], runs[2*i+1])
	}
	return st
}

// packPass consumes triples sorted by positions (a, b, c) and renders
// both the forward index (head a, key b) and the mirror index (head b,
// key a) as runs of packed delta+varint vectors — keys and terminal lists
// in one run of bytes per head, no per-head allocations. Unlike the
// paper's layout the two orderings do not share list storage (a packed
// vector has no pointers to share), which the compression win pays for
// several times over; see Store.IndexBytes.
//
// The pass is a-major, so the forward run fills head by head from ts; a
// stable counting sort on column b gives (b, a, c) order for the mirror.
func packPass(ts [][3]ID, a, b, c int) (fwd, mirror packedRun) {
	return packOrdering(ts, a, b, c), packOrdering(sortedByColumn(ts, b), b, a, c)
}

// packedRun is one ordering's packed vectors back to back, heads
// ascending: what a pass builds before records pairs it with the other
// ordering of its head position.
type packedRun struct {
	heads []ID
	b     []byte
}

// packOrdering builds ordering (a, b, c)'s run from ts sorted by it.
func packOrdering(ts [][3]ID, a, b, c int) packedRun {
	var run packedRun
	var pb idlist.PackedBuilder
	members := make([]ID, 0, 64)
	for i := 0; i < len(ts); {
		head := ts[i][a]
		for i < len(ts) && ts[i][a] == head {
			key := ts[i][b]
			members = members[:0]
			for ; i < len(ts) && ts[i][a] == head && ts[i][b] == key; i++ {
				members = append(members, ts[i][c])
			}
			pb.Append(key, members)
		}
		run.heads = append(run.heads, head)
		run.b = pb.Finish(run.b)
	}
	return run
}

// records interleaves the runs of a head position's two orderings, which
// index the same triples and so have the same heads, into the arena of
// their records.
func records(first, second packedRun) arena {
	if !slices.Equal(first.heads, second.heads) {
		panic("core: the two orderings of a head position disagree on its heads")
	}
	ar := new(arena).fork()
	seg := &ar.segs[0]
	seg.b = make([]byte, 0, len(first.b)+len(second.b))
	var o1, o2 int
	for _, head := range first.heads {
		n1 := idlist.DecodePacked(first.b[o1:]).EncodedLen()
		n2 := idlist.DecodePacked(second.b[o2:]).EncodedLen()
		at := len(seg.b)
		seg.b = append(append(seg.b, first.b[o1:o1+n1]...), second.b[o2:o2+n2]...)
		ar.put(head, at)
		o1, o2 = o1+n1, o2+n2
	}
	ar.seal()
	return ar
}

// sortedByColumn returns a copy of ts stably sorted by column col alone:
// a counting sort over the id range, dictionary ids being dense.
func sortedByColumn(ts [][3]ID, col int) [][3]ID {
	out := make([][3]ID, len(ts))
	var top ID
	for _, t := range ts {
		top = max(top, t[col])
	}
	next := make([]uint32, top+2) // next[id+1] counts id, then next[id] is its write cursor
	for _, t := range ts {
		next[t[col]+1]++
	}
	for id := 1; id < len(next); id++ {
		next[id] += next[id-1]
	}
	for _, t := range ts {
		out[next[t[col]]] = t
		next[t[col]]++
	}
	return out
}

// sortTriples sorts ts by positions (a, b, c) using up to workers
// goroutines. The comparator is a total order over the triple values, so
// the sorted output — and everything built from it — is independent of
// the worker count.
func sortTriples(ts [][3]ID, a, b, c, workers int) {
	idlist.ParallelSortFunc(ts, workers, func(x, y [3]ID) int {
		for _, j := range [3]int{a, b, c} {
			if x[j] != y[j] {
				if x[j] < y[j] {
					return -1
				}
				return 1
			}
		}
		return 0
	})
}

func dedupeTriples(ts [][3]ID) [][3]ID {
	if len(ts) < 2 {
		return ts
	}
	w := 1
	for r := 1; r < len(ts); r++ {
		if ts[r] != ts[w-1] {
			ts[w] = ts[r]
			w++
		}
	}
	return ts[:w]
}
