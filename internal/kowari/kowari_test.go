package kowari

import (
	"math/rand"
	"sort"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/rdf"
)

func TestAddHasRemove(t *testing.T) {
	st := New()
	if !st.Add(1, 2, 3) {
		t.Fatal("Add = false")
	}
	if st.Add(1, 2, 3) {
		t.Fatal("duplicate Add = true")
	}
	if !st.Has(1, 2, 3) {
		t.Fatal("Has = false")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
	if !st.Remove(1, 2, 3) {
		t.Fatal("Remove = false")
	}
	if st.Remove(1, 2, 3) {
		t.Fatal("second Remove = true")
	}
	if st.Len() != 0 {
		t.Fatalf("Len = %d after Remove, want 0", st.Len())
	}
}

func TestAddRejectsWildcards(t *testing.T) {
	st := New()
	if st.Add(None, 1, 2) || st.Add(1, None, 2) || st.Add(1, 2, None) {
		t.Fatal("Add with None position succeeded")
	}
}

// TestMatchAgainstCore verifies all eight pattern shapes against the
// sextuple store on identical random data.
func TestMatchAgainstCore(t *testing.T) {
	ks := New()
	csb := core.NewBuilder(nil)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 4000; i++ {
		s, p, o := ID(rng.Intn(40)+1), ID(rng.Intn(10)+1), ID(rng.Intn(50)+1)
		ks.Add(s, p, o)
		csb.Add(s, p, o)
	}
	cs := csb.Build()
	if ks.Len() != cs.Len() {
		t.Fatalf("kowari Len = %d, core Len = %d", ks.Len(), cs.Len())
	}
	patterns := [][3]ID{
		{7, 4, 11}, {7, 4, None}, {7, None, 11}, {None, 4, 11},
		{7, None, None}, {None, 4, None}, {None, None, 11}, {None, None, None},
	}
	for _, pat := range patterns {
		var got [][3]ID
		ks.Match(pat[0], pat[1], pat[2], func(s, p, o ID) bool {
			got = append(got, [3]ID{s, p, o})
			return true
		})
		want := cs.Triples(pat[0], pat[1], pat[2])
		if len(got) != len(want) {
			t.Fatalf("pattern %v: kowari %d, core %d", pat, len(got), len(want))
		}
		set := make(map[[3]ID]bool, len(want))
		for _, w := range want {
			set[w] = true
		}
		for _, g := range got {
			if !set[g] {
				t.Fatalf("pattern %v: kowari produced %v missing from core", pat, g)
			}
		}
	}
}

func TestMatchEarlyStop(t *testing.T) {
	st := New()
	for i := ID(1); i <= 50; i++ {
		st.Add(i, 1, 2)
	}
	n := 0
	st.Match(None, 1, None, func(_, _, _ ID) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
}

func TestSubjectsForPropertySorted(t *testing.T) {
	st := New()
	// Insert so that pos order (by object) differs from subject order.
	st.Add(9, 1, 100)
	st.Add(2, 1, 300)
	st.Add(5, 1, 200)
	st.Add(5, 1, 150) // duplicate subject via second object
	st.Add(4, 2, 100) // different property: excluded
	got := st.SubjectsForProperty(1)
	want := []ID{2, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("SubjectsForProperty = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SubjectsForProperty = %v, want %v", got, want)
		}
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Fatal("result not sorted")
	}
}

func TestBuilderMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBuilder(nil)
	inc := NewShared(b.dict)
	var triples [][3]ID
	for i := 0; i < 2000; i++ {
		s, p, o := ID(rng.Intn(30)+1), ID(rng.Intn(8)+1), ID(rng.Intn(40)+1)
		triples = append(triples, [3]ID{s, p, o})
	}
	for _, tr := range triples {
		b.Add(tr[0], tr[1], tr[2])
		inc.Add(tr[0], tr[1], tr[2])
	}
	built := b.Build()
	if built.Len() != inc.Len() {
		t.Fatalf("built Len = %d, incremental Len = %d", built.Len(), inc.Len())
	}
	for ord := SPO; ord <= OSP; ord++ {
		if len(built.idx[ord]) != len(inc.idx[ord]) {
			t.Fatalf("ordering %v sizes differ", ord)
		}
		for i := range built.idx[ord] {
			if built.idx[ord][i] != inc.idx[ord][i] {
				t.Fatalf("ordering %v entry %d: built %v, incremental %v",
					ord, i, built.idx[ord][i], inc.idx[ord][i])
			}
		}
	}
}

func TestAddTriple(t *testing.T) {
	st := New()
	if !st.AddTriple(rdf.T(rdf.NewIRI("a"), rdf.NewIRI("p"), rdf.NewLiteral("v"))) {
		t.Fatal("AddTriple = false")
	}
	if st.AddTriple(rdf.Triple{}) {
		t.Fatal("AddTriple of invalid triple = true")
	}
	if st.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st.Len())
	}
}

func TestIndexesSortedAfterRandomOps(t *testing.T) {
	st := New()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 3000; i++ {
		s, p, o := ID(rng.Intn(20)+1), ID(rng.Intn(6)+1), ID(rng.Intn(20)+1)
		if rng.Intn(4) == 0 {
			st.Remove(s, p, o)
		} else {
			st.Add(s, p, o)
		}
	}
	for ord := SPO; ord <= OSP; ord++ {
		ix := st.idx[ord]
		for i := 1; i < len(ix); i++ {
			if !lessKey(ix[i-1], ix[i]) {
				t.Fatalf("ordering %v not strictly sorted at %d", ord, i)
			}
		}
		if len(ix) != st.Len() {
			t.Fatalf("ordering %v has %d entries, Len = %d", ord, len(ix), st.Len())
		}
	}
}

func TestSizeBytes(t *testing.T) {
	st := New()
	st.Add(1, 2, 3)
	st.Add(4, 5, 6)
	if got := st.SizeBytes(); got != 2*3*24 {
		t.Fatalf("SizeBytes = %d, want %d", got, 2*3*24)
	}
}

func TestCount(t *testing.T) {
	st := New()
	st.Add(1, 2, 3)
	st.Add(1, 2, 4)
	st.Add(1, 3, 5)
	if n := st.Count(1, None, None); n != 3 {
		t.Fatalf("Count(1,?,?) = %d, want 3", n)
	}
	if n := st.Count(1, 2, None); n != 2 {
		t.Fatalf("Count(1,2,?) = %d, want 2", n)
	}
	if n := st.Count(None, None, None); n != 3 {
		t.Fatalf("Count(?,?,?) = %d, want 3", n)
	}
}
