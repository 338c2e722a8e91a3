package query

import (
	"reflect"
	"testing"

	"hexastore/internal/core"
)

// buildGraph creates a small store:
//
//	1 -p10→ 100, 1 -p10→ 101, 1 -p11→ 102
//	2 -p10→ 100, 2 -p12→ 101
//	3 -p11→ 100
func buildGraph() *core.Store {
	stb := core.NewBuilder(nil)
	for _, tr := range [][3]ID{
		{1, 10, 100}, {1, 10, 101}, {1, 11, 102},
		{2, 10, 100}, {2, 12, 101},
		{3, 11, 100},
	} {
		stb.Add(tr[0], tr[1], tr[2])
	}
	st := stb.Build()
	return st
}

func TestPatternBound(t *testing.T) {
	cases := []struct {
		pat  Pattern
		want int
	}{
		{Pattern{}, 0},
		{Pattern{S: 1}, 1},
		{Pattern{S: 1, O: 2}, 2},
		{Pattern{S: 1, P: 2, O: 3}, 3},
	}
	for _, tc := range cases {
		if got := tc.pat.Bound(); got != tc.want {
			t.Errorf("Bound(%+v) = %d, want %d", tc.pat, got, tc.want)
		}
	}
}

func TestCountExact(t *testing.T) {
	e := NewEngine(buildGraph())
	cases := []struct {
		pat  Pattern
		want int
	}{
		{Pattern{S: 1, P: 10}, 2},
		{Pattern{P: 10, O: 100}, 2},
		{Pattern{S: 1, O: 101}, 1},
		{Pattern{S: 1, P: 10, O: 100}, 1},
		{Pattern{S: 1, P: 10, O: 999}, 0},
		{Pattern{S: 1}, 3},
		{Pattern{P: 10}, 3},
		{Pattern{O: 100}, 3},
		{Pattern{}, 6},
	}
	for _, tc := range cases {
		if got, err := e.Count(tc.pat); err != nil || got != tc.want {
			t.Errorf("Count(%+v) = %d, %v, want %d", tc.pat, got, err, tc.want)
		}
	}
}

func TestCountMatchesMatch(t *testing.T) {
	e := NewEngine(buildGraph())
	// For every pattern over this small id space, the index-read count
	// must equal the number of triples Match streams.
	for s := ID(0); s <= 3; s++ {
		for p := ID(0); p <= 12; p++ {
			for o := ID(0); o <= 102; o++ {
				pat := Pattern{S: s, P: p, O: o}
				want := 0
				if err := e.Match(pat, func(_, _, _ ID) bool { want++; return true }); err != nil {
					t.Fatalf("Match(%+v): %v", pat, err)
				}
				if got, err := e.Count(pat); err != nil || got != want {
					t.Fatalf("Count(%+v) = %d, %v; Match yields %d", pat, got, err, want)
				}
			}
		}
	}
}

func TestSubjectsRelatedToBothObjects(t *testing.T) {
	e := NewEngine(buildGraph())
	// Objects 100 and 101: subjects of 100 = {1,2,3}; of 101 = {1,2}.
	got := e.SubjectsRelatedToBothObjects(100, 101).IDs()
	if !reflect.DeepEqual(got, []ID{1, 2}) {
		t.Errorf("SubjectsRelatedToBothObjects(100,101) = %v, want [1 2]", got)
	}
	if e.SubjectsRelatedToBothObjects(100, 999).Len() != 0 {
		t.Error("intersection with absent object non-empty")
	}
}

func TestRelatedResources(t *testing.T) {
	e := NewEngine(buildGraph())
	var got [][2]ID
	e.RelatedResources(100, func(p, s ID) bool {
		got = append(got, [2]ID{p, s})
		return true
	})
	want := [][2]ID{{10, 1}, {10, 2}, {11, 3}} // ops order: by property, then subject
	if !reflect.DeepEqual(got, want) {
		t.Errorf("RelatedResources(100) = %v, want %v", got, want)
	}
	// Early stop.
	n := 0
	e.RelatedResources(100, func(_, _ ID) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop invoked fn %d times", n)
	}
}

func TestMatchDelegates(t *testing.T) {
	e := NewEngine(buildGraph())
	if got, err := e.Count(Pattern{P: 10}); err != nil || got != 3 {
		t.Errorf("Count(p=10) = %d, %v, want 3", got, err)
	}
	n := 0
	e.Match(Pattern{S: 1}, func(_, _, _ ID) bool { n++; return true })
	if n != 3 {
		t.Errorf("Match(s=1) yielded %d, want 3", n)
	}
}
