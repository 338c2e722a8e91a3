package query

import (
	"reflect"
	"testing"

	"hexastore/internal/core"
)

// chainStore builds a two-hop graph:
//
//	1 -a→ 10 -b→ 20
//	1 -a→ 11 -b→ 21
//	2 -a→ 11
//	3 -c→ 10        (c is off the a/b path)
//	11 -b→ 22
const (
	propA = ID(101)
	propB = ID(102)
	propC = ID(103)
)

func chainStore() *core.Store {
	stb := core.NewBuilder(nil)
	stb.Add(1, propA, 10)
	stb.Add(1, propA, 11)
	stb.Add(2, propA, 11)
	stb.Add(3, propC, 10)
	stb.Add(10, propB, 20)
	stb.Add(11, propB, 21)
	stb.Add(11, propB, 22)
	st := stb.Build()
	return st
}

func TestPathEndpointsSingleHop(t *testing.T) {
	e := NewEngine(chainStore())
	got := e.PathEndpoints([]ID{propA}).IDs()
	if !reflect.DeepEqual(got, []ID{10, 11}) {
		t.Errorf("PathEndpoints(a) = %v, want [10 11]", got)
	}
}

func TestPathEndpointsTwoHops(t *testing.T) {
	e := NewEngine(chainStore())
	got := e.PathEndpoints([]ID{propA, propB}).IDs()
	if !reflect.DeepEqual(got, []ID{20, 21, 22}) {
		t.Errorf("PathEndpoints(a/b) = %v, want [20 21 22]", got)
	}
}

func TestPathEndpointsDeadEnd(t *testing.T) {
	e := NewEngine(chainStore())
	if got := e.PathEndpoints([]ID{propB, propA}); got.Len() != 0 {
		t.Errorf("PathEndpoints(b/a) = %v, want empty", got.IDs())
	}
	if got := e.PathEndpoints([]ID{999}); got.Len() != 0 {
		t.Errorf("PathEndpoints(absent) = %v, want empty", got.IDs())
	}
	if got := e.PathEndpoints(nil); got.Len() != 0 {
		t.Errorf("PathEndpoints(nil) = %v, want empty", got.IDs())
	}
}

func TestPathPairs(t *testing.T) {
	e := NewEngine(chainStore())
	got := map[[2]ID]bool{}
	e.PathPairs([]ID{propA, propB}, func(start, end ID) bool {
		got[[2]ID{start, end}] = true
		return true
	})
	want := map[[2]ID]bool{
		{1, 20}: true, // 1-a→10-b→20
		{1, 21}: true, // 1-a→11-b→21
		{1, 22}: true,
		{2, 21}: true, // 2-a→11-b→21
		{2, 22}: true,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PathPairs(a/b) = %v, want %v", got, want)
	}
}

func TestPathPairsSingleHop(t *testing.T) {
	e := NewEngine(chainStore())
	n := 0
	e.PathPairs([]ID{propA}, func(_, _ ID) bool { n++; return true })
	if n != 3 {
		t.Errorf("PathPairs(a) yielded %d pairs, want 3", n)
	}
	// Early stop.
	n = 0
	e.PathPairs([]ID{propA, propB}, func(_, _ ID) bool { n++; return false })
	if n != 1 {
		t.Errorf("early stop invoked fn %d times", n)
	}
	e.PathPairs(nil, func(_, _ ID) bool {
		t.Error("PathPairs(nil) invoked fn")
		return true
	})
}

func TestReachable(t *testing.T) {
	e := NewEngine(chainStore())
	if got := e.Reachable(1, 1).IDs(); !reflect.DeepEqual(got, []ID{10, 11}) {
		t.Errorf("Reachable(1, 1 hop) = %v, want [10 11]", got)
	}
	got := e.Reachable(1, 2).IDs()
	if !reflect.DeepEqual(got, []ID{10, 11, 20, 21, 22}) {
		t.Errorf("Reachable(1, 2 hops) = %v", got)
	}
	// Saturation: more hops add nothing.
	if more := e.Reachable(1, 10).IDs(); !reflect.DeepEqual(more, got) {
		t.Errorf("Reachable(1, 10) = %v, want %v", more, got)
	}
	if e.Reachable(999, 3).Len() != 0 {
		t.Error("Reachable from absent node non-empty")
	}
	if e.Reachable(1, 0).Len() != 0 {
		t.Error("Reachable with 0 hops non-empty")
	}
}

// Cycle safety: a→b→a must terminate and include both nodes.
func TestReachableCycle(t *testing.T) {
	stb := core.NewBuilder(nil)
	stb.Add(1, 5, 2)
	stb.Add(2, 5, 1)
	st := stb.Build()
	e := NewEngine(st)
	got := e.Reachable(1, 100).IDs()
	if !reflect.DeepEqual(got, []ID{1, 2}) {
		t.Errorf("Reachable over cycle = %v, want [1 2]", got)
	}
}
