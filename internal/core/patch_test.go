package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hexastore/internal/dictionary"
)

// orderRows renders a triple set as the sorted rows of ordering ix, the
// form Patch takes its changes in.
func orderRows(ix Index, ts [][3]ID) [][3]ID {
	perm := [6][3]int{SPO: {0, 1, 2}, SOP: {0, 2, 1}, PSO: {1, 0, 2}, POS: {1, 2, 0}, OSP: {2, 0, 1}, OPS: {2, 1, 0}}[ix]
	rows := make([][3]ID, len(ts))
	for i, t := range ts {
		rows[i] = [3]ID{t[perm[0]], t[perm[1]], t[perm[2]]}
	}
	slices.SortFunc(rows, func(a, b [3]ID) int { return slices.Compare(a[:], b[:]) })
	return rows
}

func sixOrders(ts [][3]ID) (out [6][][3]ID) {
	for _, ix := range AllIndexes {
		out[ix] = orderRows(ix, ts)
	}
	return out
}

// recAddr returns where head's record starts in memory, nil when head
// is absent.
func recAddr(a *arena, head ID) *byte {
	if rec := a.record(head); rec != nil {
		return &rec[0]
	}
	return nil
}

// matchStream is what Match emits for one pattern, in emission order.
func matchStream(st *Store, s, p, o ID) [][3]ID {
	var out [][3]ID
	st.Match(s, p, o, func(s, p, o ID) bool {
		out = append(out, [3]ID{s, p, o})
		return true
	})
	return out
}

// TestPatchMatchesRebuild is the compaction differential: a store
// patched with sorted adds and tombstones must be indistinguishable
// from a bulk build of the same visible set — equal Match streams for
// all eight binding shapes, equal Len, Stats and live arena bytes (the
// packed vectors are byte-for-byte the size a build produces) — for changes
// that create heads, empty heads, empty terminal lists, or touch
// nothing; and every head vector the change does not name must be the
// old store's own.
func TestPatchMatchesRebuild(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		// The packed layout is the only one left; the "compressed=true/"
		// prefix is kept only so the subtest names stay stable.
		t.Run(fmt.Sprintf("compressed=true/seed=%d", seed), func(t *testing.T) {
			testPatchMatchesRebuild(t, seed)
		})
	}
}

func testPatchMatchesRebuild(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dict := dictionary.New()
	base := dedupeTriples(orderRows(SPO, genTriples(dict, 3000, seed)))
	b := NewBuilder(dict)
	b.AddAll(slices.Clone(base))
	old := b.BuildParallel(2)
	oldImage := orderRows(SPO, matchStream(old, None, None, None))

	held := map[[3]ID]bool{}
	for _, tr := range base {
		held[tr] = true
	}
	var adds, dels [][3]ID
	add := func(tr [3]ID) {
		if !held[tr] {
			held[tr] = true
			adds = append(adds, tr)
		}
	}
	del := func(tr [3]ID) {
		if held[tr] {
			held[tr] = false
			dels = append(dels, tr)
		}
	}
	fresh := func() ID { return ID(dict.Len() + 1 + rng.Intn(50)) } // ids no vector has seen
	pick := func() [3]ID { return base[rng.Intn(len(base))] }
	if seed < 4 { // seed 4 is the change that touches nothing
		for i := 0; i < 40; i++ {
			add([3]ID{fresh(), pick()[1], fresh()})     // new subject and object heads
			add([3]ID{pick()[0], pick()[1], pick()[2]}) // new rows under old heads
			del(pick())
		}
		// Empty a subject head, a predicate head, and a few (s,p) lists.
		s0, p0 := pick()[0], pick()[1]
		for _, tr := range base {
			if tr[0] == s0 || tr[1] == p0 {
				del(tr)
			}
		}
		for i := 0; i < 5; i++ {
			sp := pick()
			for _, tr := range base {
				if tr[0] == sp[0] && tr[1] == sp[1] {
					del(tr)
				}
			}
		}
	}

	got, ps := old.Patch(sixOrders(adds), sixOrders(dels))

	var visible [][3]ID
	for tr, ok := range held {
		if ok {
			visible = append(visible, tr)
		}
	}
	wb := NewBuilder(dict)
	wb.AddAll(visible)
	want := wb.BuildParallel(2)

	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, rebuild has %d", got.Len(), want.Len())
	}
	if g, w := got.Stats(), want.Stats(); g != w {
		t.Fatalf("Stats = %+v, rebuild has %+v", g, w)
	}
	for i, a := range got.arenas {
		if g, w := a.size-a.dead, want.arenas[i].size; g != w || want.arenas[i].dead != 0 {
			t.Fatalf("arena %d: %d live bytes, rebuild has %d", i, g, w)
		}
	}

	// All eight binding shapes, bound to triples that exist, that were
	// deleted, and that were never there. Every stream has a defined
	// order, the full scan's being (s, p, o).
	all := matchStream(got, None, None, None)
	if !slices.Equal(all, orderRows(SPO, visible)) {
		t.Fatalf("full scan yields %d triples, want %d", len(all), len(visible))
	}
	probes := append(slices.Clone(adds), dels...)
	for i := 0; i < 200; i++ {
		probes = append(probes, pick())
	}
	probes = append(probes, [3]ID{fresh(), fresh(), fresh()})
	for _, tr := range probes {
		for mask := 1; mask < 8; mask++ {
			pat := [3]ID{None, None, None}
			for j := 0; j < 3; j++ {
				if mask&(1<<j) != 0 {
					pat[j] = tr[j]
				}
			}
			g, w := matchStream(got, pat[0], pat[1], pat[2]), matchStream(want, pat[0], pat[1], pat[2])
			if !slices.Equal(g, w) {
				t.Fatalf("Match%v: %d triples, rebuild yields %d", pat, len(g), len(w))
			}
		}
	}

	// Sharing: a head the change names nowhere is the old store's vector
	// itself; the counters say how many were which.
	shared, rebuilt := 0, 0
	for _, ix := range AllIndexes {
		named := map[ID]bool{}
		for _, rows := range [][][3]ID{orderRows(ix, adds), orderRows(ix, dels)} {
			for _, row := range rows {
				named[row[0]] = true
			}
		}
		// A rewrite moves every record, shared or not, into a new segment.
		ga, oa := got.arena(ix), old.arena(ix)
		rewritten := &ga.segs[0].b[0] != &oa.segs[0].b[0]
		ga.rangeHeads(func(head ID) bool {
			if !named[head] {
				if !rewritten && recAddr(ga, head) != recAddr(oa, head) {
					t.Fatalf("%s head %d was re-encoded though the change does not name it", ix, head)
				}
				shared++
				return true
			}
			if recAddr(ga, head) == recAddr(oa, head) {
				t.Fatalf("%s head %d is named by the change but still the old vector", ix, head)
			}
			rebuilt++
			return true
		})
	}
	if ps.HeadsShared != shared || ps.HeadsRebuilt != rebuilt {
		t.Fatalf("PatchStats = %+v, counted %d shared and %d rebuilt", ps, shared, rebuilt)
	}
	if len(adds)+len(dels) == 0 && rebuilt != 0 {
		t.Fatalf("an empty change re-encoded %d heads", rebuilt)
	}

	// The patched-from store is untouched.
	if !slices.Equal(orderRows(SPO, matchStream(old, None, None, None)), oldImage) {
		t.Fatal("Patch changed the store it was given")
	}
}
