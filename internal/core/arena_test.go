package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"hexastore/internal/dictionary"
	"hexastore/internal/idlist"
	"hexastore/internal/lubm"
	"hexastore/internal/rdf"
	"hexastore/internal/triplestore"
)

// spoSorted returns ts sorted by (s, p, o) without duplicates.
func spoSorted(ts [][3]ID) [][3]ID {
	return dedupeTriples(orderRows(SPO, ts))
}

// modelTriples returns what the oracle holds, sorted by (s, p, o).
func modelTriples(model *triplestore.Store) [][3]ID {
	var out [][3]ID
	model.Match(None, None, None, func(s, p, o ID) bool {
		out = append(out, [3]ID{s, p, o})
		return true
	})
	return spoSorted(out)
}

// batchRows renders a batch that adds and then deletes as the disjoint,
// (s, p, o)-sorted row sets Patch takes, as the delta keeps them: an add
// the batch deletes again is only a delete.
func batchRows(adds, dels [][3]ID) (a, d [][3]ID) {
	d = spoSorted(dels)
	for _, tr := range spoSorted(adds) {
		if _, found := slices.BinarySearchFunc(d, tr, func(x, y [3]ID) int { return slices.Compare(x[:], y[:]) }); !found {
			a = append(a, tr)
		}
	}
	return a, d
}

// checkStore holds st to the triple set want (sorted by (s, p, o), no
// duplicates), which is all the oracle it needs: with any positions bound
// to constants, every ordering's stream is the matching subset of want in
// (s, p, o) order. Every access path is compared for each probe — the
// eight Match shapes, SortedPairs, SortedListView, AppendSorted,
// PatternCardinality, Has — then Len, Heads, HeadIDs, Stats and the
// arenas' counters.
func checkStore(t testing.TB, st *Store, want [][3]ID, probes [][3]ID) {
	t.Helper()
	if st.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", st.Len(), len(want))
	}
	held := make(map[[3]ID]bool, len(want))
	for _, tr := range want {
		held[tr] = true
	}
	for _, tr := range probes {
		if st.Has(tr[0], tr[1], tr[2]) != held[tr] {
			t.Fatalf("Has%v = %v", tr, !held[tr])
		}
		for mask := 0; mask < 8; mask++ {
			pat := [3]ID{None, None, None}
			var free []int
			for j := 0; j < 3; j++ {
				if mask&(1<<j) != 0 {
					pat[j] = tr[j]
				} else {
					free = append(free, j)
				}
			}
			var exp [][3]ID
			for _, w := range want {
				if (pat[0] == None || pat[0] == w[0]) && (pat[1] == None || pat[1] == w[1]) && (pat[2] == None || pat[2] == w[2]) {
					exp = append(exp, w)
				}
			}
			got := matchStream(st, pat[0], pat[1], pat[2])
			if !slices.Equal(got, exp) {
				t.Fatalf("Match%v yields %v, want %v", pat, got, exp)
			}
			if n := st.PatternCardinality(pat[0], pat[1], pat[2]); n != len(exp) {
				t.Fatalf("PatternCardinality%v = %d, want %d", pat, n, len(exp))
			}
			switch len(free) {
			case 1:
				var ids []ID
				for _, w := range exp {
					ids = append(ids, w[free[0]])
				}
				if got := st.AppendSorted(nil, pat[0], pat[1], pat[2]); !slices.Equal(got, ids) {
					t.Fatalf("AppendSorted%v = %v, want %v", pat, got, ids)
				}
				if v := st.SortedListView(pat[0], pat[1], pat[2]); !slices.Equal(v.AppendTo(nil), ids) {
					t.Fatalf("SortedListView%v = %v, want %v", pat, v.AppendTo(nil), ids)
				}
			case 2:
				var pairs [][2]ID
				st.SortedPairs(pat[0], pat[1], pat[2], func(a, b ID) bool {
					pairs = append(pairs, [2]ID{a, b})
					return true
				})
				for i, w := range exp {
					if i >= len(pairs) || pairs[i] != [2]ID{w[free[0]], w[free[1]]} {
						t.Fatalf("SortedPairs%v yields %v, want the free positions of %v", pat, pairs, exp)
					}
				}
				if len(pairs) != len(exp) {
					t.Fatalf("SortedPairs%v yields %d pairs, want %d", pat, len(pairs), len(exp))
				}
			}
		}
	}

	// Heads, HeadIDs and Stats from the distinct values and pairs.
	var col [3]map[ID]bool
	var pair [3]map[[2]ID]bool // (s,p), (s,o), (p,o)
	for i := range col {
		col[i], pair[i] = map[ID]bool{}, map[[2]ID]bool{}
	}
	for _, w := range want {
		for i := range col {
			col[i][w[i]] = true
		}
		pair[0][[2]ID{w[0], w[1]}] = true
		pair[1][[2]ID{w[0], w[2]}] = true
		pair[2][[2]ID{w[1], w[2]}] = true
	}
	headCol := [6]int{SPO: 0, SOP: 0, PSO: 1, POS: 1, OSP: 2, OPS: 2}
	for _, ix := range AllIndexes {
		var exp []ID
		for id := range col[headCol[ix]] {
			exp = append(exp, id)
		}
		slices.Sort(exp)
		got := st.HeadIDs(ix)
		if !slices.Equal(got, exp) || st.Heads(ix) != len(exp) {
			t.Fatalf("%s: HeadIDs = %v (Heads %d), want %v", ix, got, st.Heads(ix), exp)
		}
	}
	wantStats := Stats{
		Triples:            len(want),
		Headers:            2 * (len(col[0]) + len(col[1]) + len(col[2])),
		VectorEntries:      2 * (len(pair[0]) + len(pair[1]) + len(pair[2])),
		ListEntries:        3 * len(want),
		TripleTableEntries: 3 * len(want),
	}
	if got := st.Stats(); got != wantStats {
		t.Fatalf("Stats = %+v, want %+v", got, wantStats)
	}
	checkCounters(t, st)
}

// checkCounters recounts every arena of a store the long way and
// compares its running counters — what Stats, IndexBytes and ArenaStats
// are served from — and holds every record to both its vectors or none.
func checkCounters(t testing.TB, st *Store) {
	t.Helper()
	var as ArenaStats
	for i := range st.arenas {
		a := &st.arenas[i]
		var heads, listEntries, chunks int
		var vecEntries [2]int
		var live, size, heap int64
		a.rangeHeads(func(head ID) bool {
			v := halves(a.record(head))
			if v[0].Len() == 0 || v[1].Len() == 0 || v[0].Total() != v[1].Total() {
				t.Fatalf("arena %d head %d: a record of %d and %d keys, %d and %d ids", i, head, v[0].Len(), v[1].Len(), v[0].Total(), v[1].Total())
			}
			heads++
			vecEntries[0] += v[0].Len()
			vecEntries[1] += v[1].Len()
			listEntries += v[0].Total()
			live += int64(v[0].EncodedLen() + v[1].EncodedLen())
			return true
		})
		for _, s := range a.segs {
			size += int64(len(s.b))
			heap += int64(cap(s.b))
		}
		for _, c := range a.dir {
			if c != nil {
				chunks++
			}
		}
		heap += int64(chunks)*dirChunk*4 + int64(cap(a.dir))*8 + int64(cap(a.segs))*32
		if heads != a.heads || vecEntries != a.vecEntries || listEntries != a.listEntries ||
			chunks != a.chunks || size != a.size || size-live != a.dead || heap != a.bytes() {
			t.Fatalf("arena %d: counters say heads %d, entries %v/%d, chunks %d, size %d, dead %d, heap %d; a recount %d, %v/%d, %d, %d, %d, %d",
				i, a.heads, a.vecEntries, a.listEntries, a.chunks, a.size, a.dead, a.bytes(),
				heads, vecEntries, listEntries, chunks, size, size-live, heap)
		}
		if a.dead*deadDivisor > a.size || len(a.segs) > maxSegments {
			t.Fatalf("arena %d: %d of %d bytes dead in %d segments: the rewrite rule was not applied", i, a.dead, a.size, len(a.segs))
		}
		as.HeapBytes += heap
		as.Bytes += size
		as.DeadBytes += size - live
		as.Segments += len(a.segs)
	}
	if got := st.ArenaStats(); got != as || st.IndexBytes() != as.HeapBytes {
		t.Fatalf("ArenaStats = %+v, IndexBytes = %d; a recount has %+v", got, st.IndexBytes(), as)
	}
}

// buildPacked builds ts with the given worker count.
func buildPacked(ts [][3]ID, workers int) *Store {
	b := NewBuilder(nil)
	b.AddAll(slices.Clone(ts))
	return b.BuildParallel(workers)
}

// edgeDatasets are the generated inputs that sit on the layout's edges.
func edgeDatasets() map[string][][3]ID {
	sets := map[string][][3]ID{}
	var ts [][3]ID
	for i := ID(1); i <= 3000; i++ {
		ts = append(ts, [3]ID{i, 5000 + i, 10000 + i})
	}
	sets["all-distinct heads"] = ts

	ts = nil
	for p := ID(1); p <= 40; p++ {
		for o := ID(1); o <= 150; o++ {
			ts = append(ts, [3]ID{7, p, o * p})
		}
	}
	sets["one giant head"] = ts

	ts = nil
	for _, keys := range []ID{1, 15, 16, 17, 31, 32, 33, 48, 49} { // around the skip-table stride
		for p := ID(1); p <= keys; p++ {
			ts = append(ts, [3]ID{100 + keys, 3 * p, 9})
		}
	}
	sets["skip-table edge"] = ts

	ts = nil
	for _, n := range []ID{127, 128, 129, 256, 257} { // around the compression block
		for o := ID(1); o <= n; o++ {
			ts = append(ts, [3]ID{n, 2, 2 * o})
		}
	}
	sets["block edge"] = ts

	// Head ids far past the last chunk anything else needs, with empty
	// chunks between, and too sparse for the mirror build's counting sort.
	sets["sparse ids"] = [][3]ID{
		{1, 2, 3}, {1, 2, 5_000_000}, {4_000_000, 2, 3}, {4_000_000, 2_000_000, 1},
		{1023, 1024, 1025}, {1024, 1023, 1025}, {2048, 2, 4_000_000},
	}

	rng := rand.New(rand.NewSource(11))
	ts = nil
	for i := 0; i < 4000; i++ {
		ts = append(ts, [3]ID{ID(rng.Intn(500) + 1), ID(rng.Intn(12) + 1), ID(rng.Intn(2500) + 1)})
	}
	sets["random"] = ts

	// Every terminal list one id, so every entry is a singleton: distinct
	// (s, p), (s, o) and (p, o) pairs, with heads of 1 to 40 keys.
	ts = nil
	for s := ID(1); s <= 40; s++ {
		for k := ID(1); k <= s; k++ {
			ts = append(ts, [3]ID{s, 100 + s*40 + k, 5000 + s*40 + k})
		}
	}
	sets["every list one id"] = ts
	return sets
}

// TestArenaMatchesRawLayout: on every edge dataset the packed store gives
// the triplestore oracle's answer through every access path, its full
// scan and HeadIDs ascend, and every worker count builds a store with the
// same snapshot bytes.
func TestArenaMatchesRawLayout(t *testing.T) {
	for name, ts := range edgeDatasets() {
		t.Run(name, func(t *testing.T) {
			model := triplestore.New(dictionary.New())
			for _, tr := range ts {
				model.Add(tr[0], tr[1], tr[2])
			}
			want := modelTriples(model)
			probes := slices.Clone(want)
			if len(probes) > 60 {
				rand.New(rand.NewSource(3)).Shuffle(len(probes), func(i, j int) { probes[i], probes[j] = probes[j], probes[i] })
				probes = probes[:60]
			}
			// Absent: in a nil chunk, past the directory, and a head that
			// exists under a key that does not.
			probes = append(probes, [3]ID{900_000, 1, 1}, [3]ID{1 << 40, 1 << 41, 1 << 42}, [3]ID{want[0][0], 77777, want[0][2]})
			var snaps [][]byte
			for _, workers := range []int{1, 3} {
				st := buildPacked(ts, workers)
				checkStore(t, st, want, probes)
				snaps = append(snaps, snapshotBytes(t, st))
			}
			if !bytes.Equal(snaps[0], snaps[1]) {
				t.Fatal("one and three workers build stores that snapshot to different bytes")
			}
		})
	}
}

// TestSnapshotBytesPinned: the snapshot of a fixed input is the bytes the
// map-based packed layout wrote for it (hash recorded at the parent of
// the arena change), so the directory walk emits what collect-and-sort
// did.
func TestSnapshotBytesPinned(t *testing.T) {
	dict := dictionary.New()
	b := NewBuilder(dict)
	b.AddAll(genTriples(dict, 5000, 42))
	sum := sha256.Sum256(snapshotBytes(t, b.Build()))
	if got, want := hex.EncodeToString(sum[:]), "3af1f0f0968dd6628298b9704019f064fbb891decec160374065d5b1a928a699"; got != want {
		t.Fatalf("snapshot hashes to %s, the parent layout wrote %s", got, want)
	}
}

// TestArenaPatchChain folds 60 generated changes — adds that create
// heads past the directory's end, deletes that empty heads, adds the
// store holds and deletes it lacks — into a packed store one Patch at a
// time. After every step the result answers like the oracle (and so like
// a store built from scratch, which is compared directly every tenth
// step), its counters equal a recount, PatchStats add up to its heads,
// and views taken from earlier stores still read what they read then. The
// chain must cross the rewrite rule at least twice.
func TestArenaPatchChain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	model := triplestore.New(dictionary.New())
	var base [][3]ID
	for i := 0; i < 2000; i++ {
		tr := [3]ID{ID(rng.Intn(2500) + 1), ID(rng.Intn(10) + 1), ID(rng.Intn(2500) + 1)}
		base = append(base, tr)
		model.Add(tr[0], tr[1], tr[2])
	}
	st := buildPacked(base, 2)
	visible := func() [][3]ID { return modelTriples(model) }
	type heldView struct {
		v    idlist.View
		want []ID
	}
	var views []heldView
	rewrites := 0
	nextFresh := ID(4000)
	for step := 0; step < 60; step++ {
		cur := visible()
		pick := func() [3]ID { return cur[rng.Intn(len(cur))] }
		tr := pick()
		v := st.SortedListView(tr[0], tr[1], None)
		views = append(views, heldView{v, v.AppendTo(nil)})

		var adds, dels [][3]ID
		for i := 0; i < 12; i++ {
			adds = append(adds, [3]ID{pick()[0], pick()[1], pick()[2]}) // old heads, maybe a held triple
			dels = append(dels, pick())
			dels = append(dels, [3]ID{pick()[0], 99, pick()[2]}) // not there
		}
		for i := 0; i < 5; i++ { // new heads, ever further past the directory
			nextFresh += ID(rng.Intn(700))
			adds = append(adds, [3]ID{nextFresh, pick()[1], nextFresh + 1})
		}
		s0 := pick()[0] // empty a subject head
		for _, w := range cur {
			if w[0] == s0 {
				dels = append(dels, w)
			}
		}
		adds, dels = batchRows(adds, dels)
		for _, tr := range adds {
			model.Add(tr[0], tr[1], tr[2])
		}
		for _, tr := range dels {
			model.Remove(tr[0], tr[1], tr[2])
		}
		oldSeg := &st.arena(SPO).segs[0].b[0]
		next, ps := st.Patch(sixOrders(adds), sixOrders(dels))
		if &next.arena(SPO).segs[0].b[0] != oldSeg {
			rewrites++
		}
		want := visible()
		probes := append(append(slices.Clone(adds), dels...), tr, [3]ID{nextFresh + 5000, 1, 1})
		checkStore(t, next, want, probes)
		heads := 0
		for _, ix := range AllIndexes {
			heads += next.Heads(ix)
		}
		if ps.HeadsRebuilt+ps.HeadsShared != heads || ps.HeadsRebuilt == 0 {
			t.Fatalf("step %d: PatchStats %+v for a store of %d heads", step, ps, heads)
		}
		if step%10 == 9 {
			scratch := buildPacked(want, 2)
			if !bytes.Equal(snapshotBytes(t, next), snapshotBytes(t, scratch)) {
				t.Fatalf("step %d: the patched store and one built from scratch snapshot differently", step)
			}
			for i, a := range next.arenas {
				if live := a.size - a.dead; live != scratch.arenas[i].size {
					t.Fatalf("step %d: arena %d holds %d live bytes, a build writes %d", step, i, live, scratch.arenas[i].size)
				}
			}
		}
		for i, h := range views {
			if !slices.Equal(h.v.AppendTo(nil), h.want) {
				t.Fatalf("step %d: the view taken before step %d changed under it", step, i)
			}
		}
		st = next
	}
	if rewrites < 2 {
		t.Fatalf("the chain rewrote spo %d times; it is meant to cross the rule at least twice", rewrites)
	}
}

// lubmTriples encodes the LUBM dataset of the given size, seed 1, into a
// fresh dictionary, in generation order.
func lubmTriples(universities int) (*dictionary.Dictionary, [][3]ID) {
	dict := dictionary.New()
	var triples [][3]ID
	lubm.Config{Universities: universities, Seed: 1}.Generate(func(tr rdf.Triple) bool {
		s, p, o := dict.EncodeTriple(tr)
		triples = append(triples, [3]ID{s, p, o})
		return true
	})
	return dict, triples
}

// TestPackedBytesPerTriple pins what the packed index costs on LUBM: a
// change to the vector codec or the record layout that spends more bytes
// fails here, not only in the benchmark. The build is deterministic, so
// the figure repeats exactly; the bound is the layout's figure plus half
// a byte.
func TestPackedBytesPerTriple(t *testing.T) {
	dict, triples := lubmTriples(7)
	b := NewBuilder(dict)
	b.AddAll(triples)
	st := b.BuildParallel(1)
	got := float64(st.IndexBytes()) / float64(st.Len())
	t.Logf("%d triples, IndexBytes %d = %.3f B/triple", st.Len(), st.IndexBytes(), got)
	const bound = 19.2 + 0.5
	if got > bound {
		t.Fatalf("the packed index costs %.3f B/triple, more than %.1f", got, bound)
	}
}

// heapAlloc is the live heap after two collections.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestIndexBytesMatchesHeap is IndexBytes' witness: the heap a packed
// store retains — measured, not summed — is within 10 % of what it
// reports, for a bulk build of ~120k LUBM triples and again for the store
// a chain of patches leaves, whose dead bytes and older segments must be
// counted, not hidden.
func TestIndexBytesMatchesHeap(t *testing.T) {
	dict, triples := lubmTriples(7)
	if len(triples) < 100_000 {
		t.Fatalf("only %d triples", len(triples))
	}
	within := func(what string, st *Store, retained uint64) {
		t.Helper()
		reported := st.IndexBytes()
		t.Logf("%s: IndexBytes %d (%.1f B/triple), heap retains %d", what, reported, float64(reported)/float64(st.Len()), retained)
		if ratio := float64(reported) / float64(retained); ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("%s: IndexBytes reports %d for a store that retains %d (ratio %.2f)", what, reported, retained, ratio)
		}
	}

	before := heapAlloc()
	b := NewBuilder(dict)
	b.AddAll(triples)
	st := b.BuildParallel(2)
	b = nil
	within("build", st, heapAlloc()-before)

	// Twelve patches, each moving ~1 % of the triples to new subjects;
	// only the last store stays reachable.
	rng := rand.New(rand.NewSource(1))
	fresh := ID(dict.Len())
	for i := 0; i < 12; i++ {
		var adds, dels [][3]ID
		for j := 0; j < len(triples)/100; j++ {
			k := rng.Intn(len(triples))
			fresh++
			dels = append(dels, triples[k])
			triples[k][0] = fresh
			adds = append(adds, triples[k])
		}
		st, _ = st.Patch(sixOrders(spoSorted(adds)), sixOrders(spoSorted(dels)))
	}
	if as := st.ArenaStats(); as.DeadBytes == 0 || as.Segments <= len(st.arenas) {
		t.Fatalf("the patch chain left no garbage to count: %+v", as)
	}
	within("patch chain", st, heapAlloc()-before)
	runtime.KeepAlive(st)
	runtime.KeepAlive(triples) // live at both measurements
}

// FuzzArenaPatch turns fuzz bytes into a build set and a sequence of
// add/delete batches, folds the batches into the packed store one Patch
// each, and holds every intermediate store to the triplestore oracle. Ids
// are drawn from a few dozen low values plus a sparse high range, so
// batches share heads, empty them, and land in chunks the directory does
// not have yet.
func FuzzArenaPatch(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 1, 2, 4, 9, 2, 3, 0x00, 1, 2, 5, 0x81, 1, 2, 3, 0x80, 250, 1, 201})
	f.Add([]byte{0, 0x80, 1, 1, 1, 0x81, 1, 1, 1, 0x01, 1, 1, 1})
	f.Add(bytes.Repeat([]byte{40, 7, 220, 0x80}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		id := func(b byte) ID {
			if b >= 200 {
				return 3000 * ID(b-199)
			}
			return ID(b%40) + 1
		}
		next := func() (tr [3]ID, ok bool) {
			if len(data) < 3 {
				return tr, false
			}
			tr = [3]ID{id(data[0]), id(data[1]), id(data[2])}
			data = data[3:]
			return tr, true
		}
		model := triplestore.New(dictionary.New())
		var build [][3]ID
		if len(data) > 0 {
			n := int(data[0])
			data = data[1:]
			for i := 0; i < n; i++ {
				tr, ok := next()
				if !ok {
					break
				}
				build = append(build, tr)
				model.Add(tr[0], tr[1], tr[2])
			}
		}
		st := buildPacked(build, 1)
		visible := func() [][3]ID { return modelTriples(model) }
		checkStore(t, st, visible(), build)
		// Ops: a flag byte (bit 0: delete, bit 7: last of its batch), then
		// the triple. A batch's deletes apply after its adds.
		var adds, dels [][3]ID
		for len(data) > 0 {
			flag := data[0]
			data = data[1:]
			tr, ok := next()
			if ok && flag&1 == 0 {
				adds = append(adds, tr)
			} else if ok {
				dels = append(dels, tr)
			}
			if ok && flag&0x80 == 0 && len(data) > 0 {
				continue
			}
			adds, dels = batchRows(adds, dels)
			for _, tr := range adds {
				model.Add(tr[0], tr[1], tr[2])
			}
			for _, tr := range dels {
				model.Remove(tr[0], tr[1], tr[2])
			}
			st, _ = st.Patch(sixOrders(adds), sixOrders(dels))
			checkStore(t, st, visible(), append(adds, dels...))
			adds, dels = nil, nil
		}
	})
}
