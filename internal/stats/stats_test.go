package stats

import (
	"math"
	"math/rand"
	"testing"

	"hexastore/internal/core"
)

// buildStore creates a store with a known distribution:
//
//	predicate 1: 100 triples, 10 subjects × 10 objects (dense grid)
//	predicate 2: 20 triples, 20 subjects, 1 object (type-like)
//	predicate 3: 5 triples, 5 subjects, 5 objects (sparse 1:1)
func buildStore(t *testing.T) *core.Store {
	t.Helper()
	stb := core.NewBuilder(nil)
	for s := ID(1); s <= 10; s++ {
		for o := ID(101); o <= 110; o++ {
			stb.Add(s, 1, o)
		}
	}
	for s := ID(11); s <= 30; s++ {
		stb.Add(s, 2, 200)
	}
	for i := ID(0); i < 5; i++ {
		stb.Add(31+i, 3, 301+i)
	}
	st := stb.Build()
	return st
}

func TestBuildCounts(t *testing.T) {
	st := buildStore(t)
	sum := Build(st)
	if sum.Triples != 125 {
		t.Fatalf("Triples = %d, want 125", sum.Triples)
	}
	if sum.DistinctP != 3 {
		t.Fatalf("DistinctP = %d, want 3", sum.DistinctP)
	}
	if got := sum.PredCount[1]; got != 100 {
		t.Fatalf("PredCount[1] = %d, want 100", got)
	}
	if got := sum.PredDistinctS[1]; got != 10 {
		t.Fatalf("PredDistinctS[1] = %d, want 10", got)
	}
	if got := sum.PredDistinctO[1]; got != 10 {
		t.Fatalf("PredDistinctO[1] = %d, want 10", got)
	}
	if got := sum.PredCount[2]; got != 20 {
		t.Fatalf("PredCount[2] = %d, want 20", got)
	}
	if got := sum.PredDistinctO[2]; got != 1 {
		t.Fatalf("PredDistinctO[2] = %d, want 1", got)
	}
	if got := sum.ObjCount[200]; got != 20 {
		t.Fatalf("ObjCount[200] = %d, want 20", got)
	}
	if got := sum.SubjCount[1]; got != 10 {
		t.Fatalf("SubjCount[1] = %d, want 10", got)
	}
}

func TestEstimateExactForSingleBoundPositions(t *testing.T) {
	st := buildStore(t)
	sum := Build(st)
	// Single-position estimates are exact (they read per-resource counts).
	cases := []struct {
		s, p, o ID
		want    float64
	}{
		{None, 1, None, 100},
		{None, 2, None, 20},
		{None, None, 200, 20},
		{1, None, None, 10},
		{None, None, None, 125},
	}
	for _, c := range cases {
		if got := sum.EstimatePattern(c.s, c.p, c.o); got != c.want {
			t.Errorf("Estimate(%d,%d,%d) = %g, want %g", c.s, c.p, c.o, got, c.want)
		}
	}
}

func TestEstimateTwoBoundPositions(t *testing.T) {
	st := buildStore(t)
	sum := Build(st)
	// (s,1,?): predicate 1 has 100 triples over 10 subjects → 10.
	if got := sum.EstimatePattern(1, 1, None); got != 10 {
		t.Fatalf("Estimate(s,p,?) = %g, want 10", got)
	}
	// (?,1,o): 100 triples over 10 objects → 10.
	if got := sum.EstimatePattern(None, 1, 110); got != 10 {
		t.Fatalf("Estimate(?,p,o) = %g, want 10", got)
	}
	// (?,2,o): 20 triples over 1 object → 20.
	if got := sum.EstimatePattern(None, 2, 200); got != 20 {
		t.Fatalf("Estimate(?,2,200) = %g, want 20", got)
	}
}

func TestEstimateFullyBound(t *testing.T) {
	st := buildStore(t)
	sum := Build(st)
	// (s,1,o): 100/(10*10) = 1 — the grid is dense, the estimate exact.
	if got := sum.EstimatePattern(1, 1, 101); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Estimate(s,p,o) = %g, want 1", got)
	}
}

func TestEstimateUnknownResources(t *testing.T) {
	st := buildStore(t)
	sum := Build(st)
	if got := sum.EstimatePattern(None, 99, None); got != 0 {
		t.Fatalf("unknown predicate estimate = %g, want 0", got)
	}
	if got := sum.EstimatePattern(999, None, None); got != 0 {
		t.Fatalf("unknown subject estimate = %g, want 0", got)
	}
	if got := sum.EstimatePattern(None, None, 999); got != 0 {
		t.Fatalf("unknown object estimate = %g, want 0", got)
	}
}

func TestEstimateEmptyStore(t *testing.T) {
	sum := Build(core.New())
	if got := sum.EstimatePattern(None, None, None); got != 0 {
		t.Fatalf("empty-store estimate = %g, want 0", got)
	}
}

// TestEstimateOrdersSelectivityCorrectly checks the property the planner
// relies on: the relative order of estimates matches the relative order
// of true cardinalities for patterns of the same shape.
func TestEstimateOrdersSelectivityCorrectly(t *testing.T) {
	stb := core.NewBuilder(nil)
	rng := rand.New(rand.NewSource(1))
	// Predicate 1 is 50× more frequent than predicate 2.
	for i := 0; i < 5000; i++ {
		stb.Add(ID(rng.Intn(500)+1), 1, ID(rng.Intn(500)+1001))
	}
	for i := 0; i < 100; i++ {
		stb.Add(ID(rng.Intn(500)+1), 2, ID(rng.Intn(10)+2001))
	}
	st := stb.Build()
	sum := Build(st)
	if sum.EstimatePattern(None, 2, None) >= sum.EstimatePattern(None, 1, None) {
		t.Fatal("rare predicate estimated no cheaper than common one")
	}
	if sum.EstimatePattern(None, 2, 2001) >= sum.EstimatePattern(None, 1, None) {
		t.Fatal("bound-object rare predicate estimated no cheaper than unbound common one")
	}
}

func TestSummaryString(t *testing.T) {
	sum := Build(buildStore(t))
	s := sum.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
