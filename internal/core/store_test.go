package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hexastore/internal/rdf"
)

// buildStore bulk-builds a store holding ts.
func buildStore(ts ...[3]ID) *Store {
	b := NewBuilder(nil)
	b.AddAll(ts)
	return b.Build()
}

// patchOps folds one batch of adds and deletes into st with Patch, the
// write path of a sealed store. The batch's deletes apply after its adds.
func patchOps(st *Store, adds, dels [][3]ID) *Store {
	last := map[[3]ID]bool{}
	for _, tr := range adds {
		last[tr] = true
	}
	for _, tr := range dels {
		last[tr] = false
	}
	var a, d [][3]ID
	for tr, add := range last {
		if add {
			a = append(a, tr)
		} else {
			d = append(d, tr)
		}
	}
	next, _ := st.Patch(sixOrders(a), sixOrders(d))
	return next
}

func TestAddAndHas(t *testing.T) {
	st := patchOps(New(), [][3]ID{{1, 2, 3}}, nil)
	if st.Len() != 1 {
		t.Fatal("adding a new triple left Len at", st.Len())
	}
	if st = patchOps(st, [][3]ID{{1, 2, 3}}, nil); st.Len() != 1 {
		t.Fatal("adding a held triple changed Len to", st.Len())
	}
	if !st.Has(1, 2, 3) {
		t.Error("Has(1,2,3) = false")
	}
	if st.Has(1, 2, 4) || st.Has(3, 2, 1) {
		t.Error("Has reported absent triple present")
	}
}

func TestAddRejectsNone(t *testing.T) {
	b := NewBuilder(nil)
	b.AddAll([][3]ID{{None, 1, 2}, {1, None, 2}, {1, 2, None}, {1, 2, 3}})
	if st := b.Build(); st.Len() != 1 || !st.Has(1, 2, 3) {
		t.Errorf("Len = %d, want only the triple without None", st.Len())
	}
}

func TestRemove(t *testing.T) {
	st := buildStore([3]ID{1, 2, 3}, [3]ID{1, 2, 4})
	if st = patchOps(st, nil, [][3]ID{{1, 2, 3}}); st.Len() != 1 {
		t.Fatal("removing a held triple left Len at", st.Len())
	}
	if st = patchOps(st, nil, [][3]ID{{1, 2, 3}, {9, 9, 9}}); st.Len() != 1 {
		t.Fatal("removing absent triples changed Len to", st.Len())
	}
	if st.Has(1, 2, 3) {
		t.Error("removed triple still present")
	}
	if !st.Has(1, 2, 4) {
		t.Error("sibling triple vanished")
	}
}

func TestRemovePrunesEmptyStructures(t *testing.T) {
	st := patchOps(buildStore([3]ID{1, 2, 3}), nil, [][3]ID{{1, 2, 3}})
	for _, ix := range AllIndexes {
		if n := st.Heads(ix); n != 0 {
			t.Errorf("index %v has %d heads after full removal", ix, n)
		}
	}
	stats := st.Stats()
	if stats.TotalEntries() != 0 {
		t.Errorf("TotalEntries = %d after full removal", stats.TotalEntries())
	}
}

// allSixViews extracts the triple set as seen through each of the six
// indices; they must agree exactly.
func allSixViews(st *Store) [6]map[[3]ID]bool {
	var views [6]map[[3]ID]bool
	extract := func(ix Index, assemble func(head, key, member ID) [3]ID) map[[3]ID]bool {
		set := make(map[[3]ID]bool)
		for _, head := range st.HeadIDs(ix) {
			st.Head(ix, head).RangePairs(func(key, member ID) bool {
				set[assemble(head, key, member)] = true
				return true
			})
		}
		return set
	}
	views[SPO] = extract(SPO, func(s, p, o ID) [3]ID { return [3]ID{s, p, o} })
	views[SOP] = extract(SOP, func(s, o, p ID) [3]ID { return [3]ID{s, p, o} })
	views[PSO] = extract(PSO, func(p, s, o ID) [3]ID { return [3]ID{s, p, o} })
	views[POS] = extract(POS, func(p, o, s ID) [3]ID { return [3]ID{s, p, o} })
	views[OSP] = extract(OSP, func(o, s, p ID) [3]ID { return [3]ID{s, p, o} })
	views[OPS] = extract(OPS, func(o, p, s ID) [3]ID { return [3]ID{s, p, o} })
	return views
}

func TestSixIndexesStayConsistentUnderRandomOps(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	st := New()
	model := make(map[[3]ID]bool)

	// 100 batches of 50 random ops, each folded in with one Patch.
	for batch := 0; batch < 100; batch++ {
		last := map[[3]ID]bool{} // what the batch's last op on a triple did
		for op := 0; op < 50; op++ {
			key := [3]ID{ID(rng.Intn(20) + 1), ID(rng.Intn(8) + 1), ID(rng.Intn(25) + 1)}
			last[key] = rng.Intn(3) != 0
			if last[key] {
				model[key] = true
			} else {
				delete(model, key)
			}
		}
		var adds, dels [][3]ID
		for key, add := range last {
			if add {
				adds = append(adds, key)
			} else {
				dels = append(dels, key)
			}
		}
		st = patchOps(st, adds, dels)
	}

	if st.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", st.Len(), len(model))
	}
	views := allSixViews(st)
	for ix, view := range views {
		if len(view) != len(model) {
			t.Fatalf("index %v sees %d triples, model has %d", Index(ix), len(view), len(model))
		}
		for tr := range model {
			if !view[tr] {
				t.Fatalf("index %v missing triple %v", Index(ix), tr)
			}
		}
	}
}

// TestSharedTerminalLists: the two orderings that end in the same element
// — spo and pso, sop and osp, pos and ops — hold the same terminal list
// for a pair, the list the paper's layout keeps one physical copy of.
func TestSharedTerminalLists(t *testing.T) {
	st := buildStore([3]ID{1, 2, 3}, [3]ID{1, 2, 4})
	for _, pair := range []struct {
		a, b        Index
		headA, keyA ID
		want        []ID
	}{
		{SPO, PSO, 1, 2, []ID{3, 4}},
		{SOP, OSP, 1, 3, []ID{2}},
		{POS, OPS, 2, 3, []ID{1}},
	} {
		la, _ := st.Head(pair.a, pair.headA).Find(pair.keyA)
		lb, _ := st.Head(pair.b, pair.keyA).Find(pair.headA)
		if got, gotB := la.AppendTo(nil), lb.AppendTo(nil); !reflect.DeepEqual(got, pair.want) || !reflect.DeepEqual(gotB, pair.want) {
			t.Errorf("%s and %s lists of (%d, %d) are %v and %v, want %v", pair.a, pair.b, pair.headA, pair.keyA, got, gotB, pair.want)
		}
	}
}

// TestWorstCaseSpaceBound verifies the paper's §4.1 space argument: for a
// dataset where every resource occurs exactly once, each resource key
// occupies exactly five entries (2 headers + 2 vector slots + 1 list
// slot), i.e. the expansion factor over a triples table is exactly 5.
func TestWorstCaseSpaceBound(t *testing.T) {
	// Disjoint resources: triple i is (3i+1, 3i+2, 3i+3).
	const n = 100
	b := NewBuilder(nil)
	for i := 0; i < n; i++ {
		b.Add(ID(3*i+1), ID(3*i+2), ID(3*i+3))
	}
	stats := b.Build().Stats()
	if stats.Headers != 6*n {
		t.Errorf("Headers = %d, want %d", stats.Headers, 6*n)
	}
	if stats.VectorEntries != 6*n {
		t.Errorf("VectorEntries = %d, want %d", stats.VectorEntries, 6*n)
	}
	if stats.ListEntries != 3*n {
		t.Errorf("ListEntries = %d, want %d", stats.ListEntries, 3*n)
	}
	if got := stats.ExpansionFactor(); got != 5.0 {
		t.Errorf("ExpansionFactor = %v, want exactly 5 in the worst case", got)
	}
}

// TestSpaceBelowWorstCaseWithSharing: when resources repeat, the factor
// drops below 5 (the paper: "In practice, the requirement can be lower").
func TestSpaceBelowWorstCaseWithSharing(t *testing.T) {
	b := NewBuilder(nil)
	for s := ID(1); s <= 10; s++ {
		for o := ID(100); o < 110; o++ {
			b.Add(s, 50, o) // single property, dense s×o
		}
	}
	f := b.Build().Stats().ExpansionFactor()
	if f >= 5.0 {
		t.Errorf("ExpansionFactor = %v, want < 5 for repeating resources", f)
	}
	if f <= 0 {
		t.Errorf("ExpansionFactor = %v, want > 0", f)
	}
}

func TestAccessors(t *testing.T) {
	st := buildStore([3]ID{1, 2, 3}, [3]ID{1, 2, 5}, [3]ID{4, 2, 3}, [3]ID{1, 7, 3})

	if got := st.Objects(1, 2).AppendTo(nil); !reflect.DeepEqual(got, []ID{3, 5}) {
		t.Errorf("Objects(1,2) = %v, want [3 5]", got)
	}
	if got := st.Subjects(2, 3).AppendTo(nil); !reflect.DeepEqual(got, []ID{1, 4}) {
		t.Errorf("Subjects(2,3) = %v, want [1 4]", got)
	}
	if got := st.Properties(1, 3).AppendTo(nil); !reflect.DeepEqual(got, []ID{2, 7}) {
		t.Errorf("Properties(1,3) = %v, want [2 7]", got)
	}
	if st.Objects(9, 9).Len() != 0 || st.Objects(None, 2).Len() != 0 {
		t.Error("Objects on an absent pair is not empty")
	}
}

func TestHeadVectorsSorted(t *testing.T) {
	b := NewBuilder(nil)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		b.Add(ID(rng.Intn(10)+1), ID(rng.Intn(10)+1), ID(rng.Intn(10)+1))
	}
	st := b.Build()
	for _, ix := range AllIndexes {
		for _, head := range st.HeadIDs(ix) {
			cur := st.Head(ix, head).Keys()
			prev := None
			for key, ok := cur.Next(); ok; key, ok = cur.Next() {
				if key <= prev {
					t.Fatalf("index %v head %d has key %d after %d", ix, head, key, prev)
				}
				prev = key
				ids := cur.View().AppendTo(nil)
				if !sort.SliceIsSorted(ids, func(a, b int) bool { return ids[a] < ids[b] }) {
					t.Fatalf("index %v head %d key %d has unsorted list %v", ix, head, key, ids)
				}
			}
		}
	}
}

// TestKeyCursorPositions walks KeyCursor for every (head, key) position
// pair and every head value and checks it yields exactly the distinct
// values the key position takes in the triples with that head.
func TestKeyCursorPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var ts [][3]ID
	for i := 0; i < 400; i++ {
		// Wide key range: vectors longer than one skip-table group.
		ts = append(ts, [3]ID{ID(rng.Intn(4) + 1), ID(rng.Intn(60) + 1), ID(rng.Intn(60) + 1)})
	}
	st := buildStore(ts...)
	for h := 0; h < 3; h++ {
		for k := 0; k < 3; k++ {
			if h == k {
				continue
			}
			for head := ID(1); head <= 61; head++ {
				seen := map[ID]bool{}
				for _, tr := range ts {
					if tr[h] == head {
						seen[tr[k]] = true
					}
				}
				var want []ID
				for v := range seen {
					want = append(want, v)
				}
				sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
				var got []ID
				cur := st.KeyCursor(h, k, head)
				for v, ok := cur.SeekGE(0); ok; v, ok = cur.SeekGE(v + 1) {
					got = append(got, v)
				}
				if !reflect.DeepEqual(got, want) && len(got)+len(want) > 0 {
					t.Fatalf("KeyCursor(%d, %d, %d) = %v, want %v", h, k, head, got, want)
				}
			}
		}
	}
}

func TestAddTriple(t *testing.T) {
	b := NewBuilder(nil)
	tr := rdf.T(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewLiteral("o"))
	if !b.AddTriple(tr) {
		t.Fatal("AddTriple rejected a valid triple")
	}
	if b.AddTriple(rdf.Triple{}) {
		t.Error("AddTriple accepted invalid triple")
	}
	st := b.Build()
	s, _ := st.Dictionary().Lookup(tr.Subject)
	p, _ := st.Dictionary().Lookup(tr.Predicate)
	o, _ := st.Dictionary().Lookup(tr.Object)
	if !st.Has(s, p, o) {
		t.Error("encoded triple not present")
	}
	if st.Dictionary().Len() != 3 {
		t.Errorf("dictionary has %d terms, want 3 (invalid triple must not encode)", st.Dictionary().Len())
	}
}

func TestIndexString(t *testing.T) {
	want := []string{"spo", "sop", "pso", "pos", "osp", "ops"}
	for i, ix := range AllIndexes {
		if ix.String() != want[i] {
			t.Errorf("Index(%d).String() = %q, want %q", i, ix.String(), want[i])
		}
	}
	if Index(99).String() != "invalid" {
		t.Errorf("Index(99).String() = %q", Index(99).String())
	}
}
