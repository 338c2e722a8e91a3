package core

import (
	"math/rand"
	"reflect"
	"testing"

	"hexastore/internal/rdf"
)

func buildSample(t *testing.T) *Store {
	t.Helper()
	return buildStore(
		[3]ID{1, 10, 100}, [3]ID{1, 10, 101}, [3]ID{1, 11, 100},
		[3]ID{2, 10, 100}, [3]ID{2, 12, 102},
		[3]ID{3, 11, 101}, [3]ID{3, 11, 103},
	)
}

func collect(st *Store, s, p, o ID) [][3]ID {
	var out [][3]ID
	st.Match(s, p, o, func(s, p, o ID) bool {
		out = append(out, [3]ID{s, p, o})
		return true
	})
	return out
}

func TestMatchAllEightPatterns(t *testing.T) {
	st := buildSample(t)
	tests := []struct {
		name    string
		s, p, o ID
		want    int
	}{
		{"fully bound hit", 1, 10, 100, 1},
		{"fully bound miss", 1, 10, 999, 0},
		{"s p bound", 1, 10, None, 2},
		{"s o bound", 1, None, 100, 2},
		{"p o bound", None, 10, 100, 2},
		{"s bound", 1, None, None, 3},
		{"p bound", None, 11, None, 3},
		{"o bound", None, None, 100, 3},
		{"unbound", None, None, None, 7},
		{"absent head", 99, None, None, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := collect(st, tc.s, tc.p, tc.o)
			if len(got) != tc.want {
				t.Errorf("Match(%d,%d,%d) returned %d triples %v, want %d",
					tc.s, tc.p, tc.o, len(got), got, tc.want)
			}
			for _, tr := range got {
				if (tc.s != None && tr[0] != tc.s) ||
					(tc.p != None && tr[1] != tc.p) ||
					(tc.o != None && tr[2] != tc.o) {
					t.Errorf("Match(%d,%d,%d) yielded non-matching %v", tc.s, tc.p, tc.o, tr)
				}
			}
		})
	}
}

func TestMatchEarlyStop(t *testing.T) {
	st := buildSample(t)
	patterns := [][3]ID{
		{1, 10, None}, {1, None, 100}, {None, 10, 100},
		{1, None, None}, {None, 11, None}, {None, None, 100},
		{None, None, None},
	}
	for _, pat := range patterns {
		n := 0
		st.Match(pat[0], pat[1], pat[2], func(_, _, _ ID) bool {
			n++
			return false
		})
		if n != 1 {
			t.Errorf("Match(%v) with early stop invoked fn %d times, want 1", pat, n)
		}
	}
}

func TestMatchAgainstNaiveModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBuilder(nil)
	var model [][3]ID
	seen := make(map[[3]ID]bool)
	for i := 0; i < 2000; i++ {
		tr := [3]ID{ID(rng.Intn(15) + 1), ID(rng.Intn(6) + 1), ID(rng.Intn(20) + 1)}
		b.Add(tr[0], tr[1], tr[2])
		if !seen[tr] {
			seen[tr] = true
			model = append(model, tr)
		}
	}
	st := b.Build()

	naive := func(s, p, o ID) map[[3]ID]bool {
		out := make(map[[3]ID]bool)
		for _, tr := range model {
			if (s == None || tr[0] == s) && (p == None || tr[1] == p) && (o == None || tr[2] == o) {
				out[tr] = true
			}
		}
		return out
	}

	// Exercise all 8 pattern shapes with random bindings.
	for trial := 0; trial < 200; trial++ {
		var s, p, o ID
		if rng.Intn(2) == 0 {
			s = ID(rng.Intn(16)) // may be None (0) or absent id
		}
		if rng.Intn(2) == 0 {
			p = ID(rng.Intn(7))
		}
		if rng.Intn(2) == 0 {
			o = ID(rng.Intn(21))
		}
		want := naive(s, p, o)
		got := collect(st, s, p, o)
		if len(got) != len(want) {
			t.Fatalf("Match(%d,%d,%d) size = %d, naive = %d", s, p, o, len(got), len(want))
		}
		for _, tr := range got {
			if !want[tr] {
				t.Fatalf("Match(%d,%d,%d) yielded %v not in naive result", s, p, o, tr)
			}
		}
	}
}

func TestCount(t *testing.T) {
	st := buildSample(t)
	if got := st.Count(None, None, None); got != 7 {
		t.Errorf("Count(all) = %d, want 7", got)
	}
	if got := st.Count(None, 10, None); got != 3 {
		t.Errorf("Count(p=10) = %d, want 3", got)
	}
}

func TestTriples(t *testing.T) {
	st := buildSample(t)
	got := st.Triples(3, None, None)
	want := [][3]ID{{3, 11, 101}, {3, 11, 103}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Triples(3,·,·) = %v, want %v", got, want)
	}
}

func TestDecodeMatch(t *testing.T) {
	b := NewBuilder(nil)
	tr := rdf.T(rdf.NewIRI("alice"), rdf.NewIRI("knows"), rdf.NewIRI("bob"))
	b.AddTriple(tr)
	st := b.Build()
	var got []rdf.Triple
	if err := st.DecodeMatch(None, None, None, func(t rdf.Triple) bool {
		got = append(got, t)
		return true
	}); err != nil {
		t.Fatalf("DecodeMatch: %v", err)
	}
	if len(got) != 1 || got[0] != tr {
		t.Errorf("DecodeMatch = %v, want [%v]", got, tr)
	}
}
