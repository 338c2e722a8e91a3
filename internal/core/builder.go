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

// BuildParallel constructs the store, spreading the work over workers
// goroutines (workers <= 0 means runtime.GOMAXPROCS(0); 1 runs the
// sequential passes). It consumes the recorded triples — the sort works in the
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

// buildFrom sorts, dedupes and packs ts, which it owns, into a new store.
// The packing of an ordering, and the merges of the arenas, each run on
// up to workers goroutines, beside the sort's (see SortOrderings). What
// is built is the same for every worker count.
func buildFrom(dict *dictionary.Dictionary, ts [][3]ID, workers int) *Store {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	st := NewShared(dict)
	// Each ordering's runs are packed as it arrives. The two orderings of
	// a head position arrive one after the other, and meet in its arena
	// while the next orderings are packed.
	var runs [6]packedRun
	l := newLanes(workers)
	SortOrderings(ts, workers, func(ix Index, sorted [][3]ID) {
		runs[ix] = packOrdering(sorted, ix, workers)
		st.size = len(sorted)
		if ix%2 == 1 { // both orderings of head position ix/2 are packed
			i := ix / 2
			l.do(func() { st.arenas[i] = records(runs[2*i], runs[2*i+1]) })
		}
	})
	l.wait()
	return st
}

// columns lists each ordering's triple columns, most significant first.
var columns = [6][3]int{SPO: {0, 1, 2}, SOP: {0, 2, 1}, PSO: {1, 0, 2}, POS: {1, 2, 0}, OSP: {2, 0, 1}, OPS: {2, 1, 0}}

// SortOrderings sorts ts, which it consumes, into the six orderings and
// hands each to fn: in AllIndexes order, one call at a time, on the
// calling goroutine. Each is the deduped triples without a None, sorted
// by the ordering's columns and still in (s, p, o) form, and it is fn's
// only until fn returns: its array is then reused for a later ordering.
//
// Dictionary ids are dense, so every ordering is sorted by stable
// counting passes over one column: SPO by three least-significant-digit
// passes — o, then p, then s — and each other ordering by one pass over
// an ordering that already sorts its last two columns: PSO and OSP from
// SPO, SOP and POS from OSP, OPS from POS. The counting arrays span
// 0..MaxID(ts). With workers > 1 the next orderings are derived on a
// second goroutine while fn runs. Three triple arrays, ts among them,
// are live at most, and each ordering is a total order over the deduped
// triples, so what fn sees is the same for every worker count.
func SortOrderings(ts [][3]ID, workers int, fn func(ix Index, sorted [][3]ID)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	ts = slices.DeleteFunc(ts, func(t [3]ID) bool { return t[0] == None || t[1] == None || t[2] == None })
	top := MaxID(ts)
	next := make([]uint32, top+2)
	spo := make([][3]ID, len(ts))
	countingSort(spo, ts, 2, next)
	countingSort(ts, spo, 1, next)
	countingSort(spo, ts, 0, next)
	spo = dedupeTriples(spo)

	// The derivations beside fn count in their own array.
	deriving := next
	if workers > 1 {
		deriving = make([]uint32, len(next))
	}
	l := newLanes(workers)
	var osp, sop [][3]ID
	l.do(func() {
		osp = countingSort(ts, spo, 2, deriving)
		sop = countingSort(make([][3]ID, len(spo)), osp, 0, deriving)
	})
	fn(SPO, spo)
	l.wait()
	fn(SOP, sop)
	pso := countingSort(sop, spo, 1, next)
	var pos, ops [][3]ID
	l.do(func() { pos = countingSort(spo, osp, 1, deriving) })
	fn(PSO, pso)
	l.wait()
	l.do(func() { ops = countingSort(pso, pos, 2, deriving) })
	fn(POS, pos)
	l.wait()
	fn(OSP, osp)
	fn(OPS, ops)
}

// MaxID returns the largest id in ts, None for none.
func MaxID(ts [][3]ID) ID {
	var top ID
	for _, t := range ts {
		top = max(top, t[0], t[1], t[2])
	}
	return top
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

// packOrdering builds ordering ix's run from ts sorted by it, in up to
// workers parts cut between heads and packed side by side. A head's
// vectors depend on its triples alone, so the run is the same for every
// worker count.
func packOrdering(ts [][3]ID, ix Index, workers int) packedRun {
	a := columns[ix][0]
	parts := make([]packedRun, max(workers, 1))
	l := newLanes(workers)
	lo := 0
	for k := range parts {
		hi := max(lo, (k+1)*len(ts)/len(parts))
		for hi > 0 && hi < len(ts) && ts[hi][a] == ts[hi-1][a] {
			hi++
		}
		part := ts[lo:hi]
		l.do(func() { parts[k] = packPart(part, columns[ix]) })
		lo = hi
	}
	l.wait()
	run := parts[0]
	for _, p := range parts[1:] {
		run.heads = append(run.heads, p.heads...)
		run.b = append(run.b, p.b...)
	}
	return run
}

// packPart packs ts, sorted by the columns col, into a run.
func packPart(ts [][3]ID, col [3]int) packedRun {
	a, b, c := col[0], col[1], col[2]
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

// countingSort writes src into dst, which is at least as long, stably
// sorted by column col, and returns dst cut to src's length: a counting
// sort over the id range, dictionary ids being dense. next holds a
// counter per id plus one, and is cleared first.
func countingSort(dst, src [][3]ID, col int, next []uint32) [][3]ID {
	dst = dst[:len(src)]
	clear(next) // next[id+1] counts id, then next[id] is its write cursor
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
	return dst
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
