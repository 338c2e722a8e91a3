package idlist

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func ids(vs ...ID) []ID { return vs }

func TestFromSortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromSorted(unsorted) did not panic")
		}
	}()
	FromSorted(ids(3, 1, 2))
}

func TestFromSortedPanicsOnDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FromSorted(duplicates) did not panic")
		}
	}()
	FromSorted(ids(1, 1, 2))
}

func TestFromUnsorted(t *testing.T) {
	l := FromUnsorted(ids(5, 3, 5, 1, 3, 9))
	if got := l.IDs(); !reflect.DeepEqual(got, ids(1, 3, 5, 9)) {
		t.Errorf("FromUnsorted = %v, want [1 3 5 9]", got)
	}
}

func TestInsertKeepsSortedAndDeduped(t *testing.T) {
	var l List
	for _, v := range ids(5, 1, 3, 5, 2, 9, 1) {
		l.Insert(v)
	}
	if got := l.IDs(); !reflect.DeepEqual(got, ids(1, 2, 3, 5, 9)) {
		t.Errorf("after inserts = %v", got)
	}
	if l.Insert(3) {
		t.Error("Insert(existing) reported change")
	}
	if !l.Insert(4) {
		t.Error("Insert(new) reported no change")
	}
}

func TestRemove(t *testing.T) {
	l := FromUnsorted(ids(1, 2, 3, 4, 5))
	if !l.Remove(3) {
		t.Error("Remove(3) reported no change")
	}
	if l.Remove(3) {
		t.Error("Remove(3) twice reported change")
	}
	if l.Remove(99) {
		t.Error("Remove(absent) reported change")
	}
	if got := l.IDs(); !reflect.DeepEqual(got, ids(1, 2, 4, 5)) {
		t.Errorf("after removes = %v", got)
	}
	// Remove first and last.
	l.Remove(1)
	l.Remove(5)
	if got := l.IDs(); !reflect.DeepEqual(got, ids(2, 4)) {
		t.Errorf("after boundary removes = %v", got)
	}
}

func TestContains(t *testing.T) {
	l := FromUnsorted(ids(2, 4, 6))
	for _, v := range ids(2, 4, 6) {
		if !l.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	for _, v := range ids(1, 3, 5, 7) {
		if l.Contains(v) {
			t.Errorf("Contains(%d) = true", v)
		}
	}
	var nilList *List
	if nilList.Contains(1) {
		t.Error("nil list Contains = true")
	}
}

func TestNilListAccessors(t *testing.T) {
	var l *List
	if l.Len() != 0 {
		t.Error("nil Len != 0")
	}
	if l.IDs() != nil {
		t.Error("nil IDs != nil")
	}
	l.Range(func(ID) bool { t.Error("nil Range invoked fn"); return true })
}

func TestRangeEarlyStop(t *testing.T) {
	l := FromUnsorted(ids(1, 2, 3, 4))
	var seen []ID
	l.Range(func(id ID) bool {
		seen = append(seen, id)
		return id < 2
	})
	if !reflect.DeepEqual(seen, ids(1, 2)) {
		t.Errorf("Range early stop saw %v", seen)
	}
}

func TestIntersect(t *testing.T) {
	tests := []struct {
		a, b, want []ID
	}{
		{ids(1, 2, 3), ids(2, 3, 4), ids(2, 3)},
		{ids(), ids(1, 2), ids()},
		{ids(1, 3, 5), ids(2, 4, 6), ids()},
		{ids(1, 2, 3), ids(1, 2, 3), ids(1, 2, 3)},
		{ids(5), ids(1, 2, 3, 4, 5, 6), ids(5)},
	}
	for _, tc := range tests {
		got := Intersect(FromUnsorted(tc.a), FromUnsorted(tc.b)).IDs()
		want := FromUnsorted(tc.want).IDs()
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("Intersect(%v,%v) = %v, want %v", tc.a, tc.b, got, want)
		}
	}
}

func TestIntersectGallopPath(t *testing.T) {
	// Force the binary-probing branch: |b| > 16*|a|.
	big := make([]ID, 0, 1000)
	for i := 0; i < 1000; i++ {
		big = append(big, ID(i*2)+2) // evens starting at 2
	}
	a := FromUnsorted(ids(4, 5, 100, 101, 2000))
	got := Intersect(a, FromSorted(big)).IDs()
	if !reflect.DeepEqual(got, ids(4, 100, 2000)) {
		t.Errorf("gallop Intersect = %v, want [4 100 2000]", got)
	}
}

func TestUnion(t *testing.T) {
	got := Union(FromUnsorted(ids(1, 3, 5)), FromUnsorted(ids(2, 3, 6))).IDs()
	if !reflect.DeepEqual(got, ids(1, 2, 3, 5, 6)) {
		t.Errorf("Union = %v", got)
	}
}

func TestUnionAll(t *testing.T) {
	lists := []*List{
		FromUnsorted(ids(1, 4)),
		FromUnsorted(ids(2, 4)),
		FromUnsorted(ids(3)),
		FromUnsorted(ids()),
		FromUnsorted(ids(5, 1)),
	}
	got := UnionAll(lists).IDs()
	if !reflect.DeepEqual(got, ids(1, 2, 3, 4, 5)) {
		t.Errorf("UnionAll = %v", got)
	}
	if UnionAll(nil).Len() != 0 {
		t.Error("UnionAll(nil) not empty")
	}
	single := UnionAll(lists[:1])
	if !reflect.DeepEqual(single.IDs(), ids(1, 4)) {
		t.Errorf("UnionAll(single) = %v", single.IDs())
	}
	// Must be a copy, not an alias.
	single.Insert(99)
	if lists[0].Contains(99) {
		t.Error("UnionAll(single) aliases its input")
	}
}

func TestMergeJoinMatchesIntersect(t *testing.T) {
	a := FromUnsorted(ids(1, 2, 5, 8, 9))
	b := FromUnsorted(ids(2, 3, 5, 9, 10))
	var got []ID
	MergeJoin(a, b, func(id ID) { got = append(got, id) })
	if !reflect.DeepEqual(got, Intersect(a, b).IDs()) {
		t.Errorf("MergeJoin = %v, Intersect = %v", got, Intersect(a, b).IDs())
	}
}

func TestBuilder(t *testing.T) {
	var b Builder
	for _, v := range ids(9, 1, 5, 1, 9, 3) {
		b.Add(v)
	}
	if b.Len() != 6 {
		t.Errorf("Builder.Len = %d, want 6", b.Len())
	}
	got := b.Finish().IDs()
	if !reflect.DeepEqual(got, ids(1, 3, 5, 9)) {
		t.Errorf("Builder.Finish = %v", got)
	}
}

func TestCopyIsIndependent(t *testing.T) {
	orig := FromUnsorted(ids(1, 2, 3))
	cp := orig.Copy()
	cp.Insert(4)
	if orig.Contains(4) {
		t.Error("Copy shares storage with original")
	}
}

func randomList(rng *rand.Rand, maxLen int) *List {
	n := rng.Intn(maxLen)
	var b Builder
	for i := 0; i < n; i++ {
		b.Add(ID(rng.Intn(100) + 1))
	}
	return b.Finish()
}

// Property: Intersect/Union agree with naive map-based set
// algebra on random inputs.
func TestSetAlgebraProperty(t *testing.T) {
	f := func(rawA, rawB []uint16) bool {
		a := fromRaw(rawA)
		b := fromRaw(rawB)
		setA := toSet(a)
		setB := toSet(b)

		wantI := setOp(setA, setB, func(inA, inB bool) bool { return inA && inB })
		wantU := setOp(setA, setB, func(inA, inB bool) bool { return inA || inB })

		return equalIDs(Intersect(a, b).IDs(), wantI) &&
			equalIDs(Union(a, b).IDs(), wantU)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Insert then Remove restores the original list.
func TestInsertRemoveInverseProperty(t *testing.T) {
	f := func(raw []uint16, extra uint16) bool {
		l := fromRaw(raw)
		before := append([]ID(nil), l.IDs()...)
		id := ID(extra) + 1
		had := l.Contains(id)
		inserted := l.Insert(id)
		if had == inserted {
			return false // Insert must report change iff absent
		}
		if inserted {
			l.Remove(id)
		}
		return equalIDs(l.IDs(), before)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func fromRaw(raw []uint16) *List {
	var b Builder
	for _, v := range raw {
		b.Add(ID(v) + 1)
	}
	return b.Finish()
}

func toSet(l *List) map[ID]bool {
	m := make(map[ID]bool)
	l.Range(func(id ID) bool { m[id] = true; return true })
	return m
}

func setOp(a, b map[ID]bool, keep func(inA, inB bool) bool) []ID {
	var out []ID
	seen := make(map[ID]bool)
	for id := range a {
		seen[id] = true
	}
	for id := range b {
		seen[id] = true
	}
	for id := range seen {
		if keep(a[id], b[id]) {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
