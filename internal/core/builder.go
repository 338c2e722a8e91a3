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
// into the six orderings, and writes every vector and terminal list in
// its final sorted order.
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
// passes). It consumes the recorded triples — the sort works in the
// builder's buffer rather than a copy of it — and the builder must not be
// reused for another Build afterwards (Add starts a fresh load).
//
// The resulting store is identical to Build's output for every worker
// count: each ordering is a total order over the deduped triples, so
// goroutine scheduling cannot change what is built.
func (b *Builder) BuildParallel(workers int) *Store {
	ts := b.triples
	b.triples = nil
	return buildFrom(b.dict, ts, workers)
}

// buildFrom sorts, dedupes and packs ts, which it owns, into a new store,
// using up to workers goroutines. Dictionary ids are dense, so every
// ordering is sorted by stable counting passes over one column: (s,p,o)
// by three least-significant-digit passes — o, then p, then s — and each
// other ordering by one pass over an ordering that already sorts its
// last two columns. The six orderings are total orders over the deduped
// triples, so what is built is the same for every worker count.
func buildFrom(dict *dictionary.Dictionary, ts [][3]ID, workers int) *Store {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var top ID
	for _, t := range ts {
		top = max(top, t[0], t[1], t[2])
	}
	spo := make([][3]ID, len(ts))
	countingSort(spo, ts, 2, top)
	countingSort(ts, spo, 1, top)
	countingSort(spo, ts, 0, top)
	spo = dedupeTriples(spo)
	st := NewShared(dict)
	st.size = len(spo)

	// Each task packs one ordering's runs; the orderings meet in their
	// head position's arena at the end.
	var runs [6]packedRun
	l := newLanes(workers)
	l.do(func() { runs[SPO] = packOrdering(spo, 0, 1, 2) })
	l.do(func() { runs[PSO] = packOrdering(sortedByColumn(spo, 1, top), 1, 0, 2) })
	l.do(func() {
		osp := sortedByColumn(spo, 2, top)
		l.do(func() { runs[SOP] = packOrdering(sortedByColumn(osp, 0, top), 0, 2, 1) })
		l.do(func() {
			pos := sortedByColumn(osp, 1, top)
			l.do(func() { runs[OPS] = packOrdering(sortedByColumn(pos, 2, top), 2, 1, 0) })
			runs[POS] = packOrdering(pos, 1, 2, 0)
		})
		runs[OSP] = packOrdering(osp, 2, 0, 1)
	})
	l.wait()
	for i := range st.arenas {
		st.arenas[i] = records(runs[2*i], runs[2*i+1])
	}
	return st
}

// lanes runs tasks on up to n goroutines at once, or inline with n == 1.
// A task may start more tasks; none waits for another, so the bound
// cannot deadlock.
type lanes struct {
	wg  sync.WaitGroup
	sem chan struct{}
}

func newLanes(n int) *lanes {
	if n <= 1 {
		return &lanes{}
	}
	return &lanes{sem: make(chan struct{}, n)}
}

func (l *lanes) do(task func()) {
	if l.sem == nil {
		task()
		return
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		l.sem <- struct{}{}
		defer func() { <-l.sem }()
		task()
	}()
}

func (l *lanes) wait() { l.wg.Wait() }

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

// sortedByColumn returns a copy of ts stably sorted by column col alone.
// top bounds the ids in that column.
func sortedByColumn(ts [][3]ID, col int, top ID) [][3]ID {
	out := make([][3]ID, len(ts))
	countingSort(out, ts, col, top)
	return out
}

// countingSort writes src into dst, which has its length, stably sorted
// by column col: a counting sort over the id range 0..top, dictionary ids
// being dense.
func countingSort(dst, src [][3]ID, col int, top ID) {
	next := make([]uint32, top+2) // next[id+1] counts id, then next[id] is its write cursor
	for _, t := range src {
		next[t[col]+1]++
	}
	for id := 1; id < len(next); id++ {
		next[id] += next[id-1]
	}
	for _, t := range src {
		dst[next[t[col]]] = t
		next[t[col]]++
	}
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
