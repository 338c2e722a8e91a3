package graph_test

import (
	"errors"
	"sort"
	"testing"

	"hexastore/internal/graph"
)

// sevenMethods exposes only the seven Graph methods of the graph it
// wraps, hiding every capability: what a new backend starts as.
type sevenMethods struct{ graph.Graph }

// reversedMatch streams its graph's matches in reverse, so a sorted
// list the adapter returns cannot owe its order to the Match order.
type reversedMatch struct{ graph.Graph }

func (r reversedMatch) Match(s, p, o graph.ID, fn func(s, p, o graph.ID) bool) error {
	var ts [][3]graph.ID
	if err := r.Graph.Match(s, p, o, func(s, p, o graph.ID) bool {
		ts = append(ts, [3]graph.ID{s, p, o})
		return true
	}); err != nil {
		return err
	}
	for i := len(ts) - 1; i >= 0; i-- {
		if !fn(ts[i][0], ts[i][1], ts[i][2]) {
			break
		}
	}
	return nil
}

// failingMatch is a graph whose Match always fails.
type failingMatch struct{ graph.Graph }

var errMatch = errors.New("match failed")

func (failingMatch) Match(s, p, o graph.ID, fn func(s, p, o graph.ID) bool) error {
	return errMatch
}

// TestSortedSourceContract checks, for every backend that advertises
// the capability and for the adapter graph.SortedOf gives the graphs
// that do not, that AppendSortedList/SortedPairs return exactly the
// Match results in sorted order — the invariant the merge-join engine
// is built on.
func TestSortedSourceContract(t *testing.T) {
	gs := backends(t, sampleTriples())
	if _, ok := graph.AsSortedSource(gs["baseline"]); ok {
		t.Fatal("baseline must not advertise SortedSource")
	}
	for _, in := range []struct {
		name string
		g    graph.Graph
		own  bool // the backend's own SortedSource, not the adapter
	}{
		{"memory", gs["memory"], true},
		{"disk", gs["disk"], true},
		{"SortedOf(baseline)", gs["baseline"], false},
		{"SortedOf(bare memory)", sevenMethods{gs["memory"]}, false},
		{"SortedOf(reversed baseline)", reversedMatch{gs["baseline"]}, false},
	} {
		name, g := in.name, in.g
		if _, ok := graph.AsSortedSource(g); ok != in.own {
			t.Fatalf("%s: AsSortedSource ok = %v, want %v", name, ok, in.own)
		}
		ss := graph.SortedOf(g)
		dict := g.Dictionary()
		knows, _ := dict.Lookup(ex("knows"))
		alice, _ := dict.Lookup(ex("alice"))
		carol, _ := dict.Lookup(ex("carol"))

		// 2-bound shapes: list equals sorted Match results.
		shapes := [][3]graph.ID{
			{alice, knows, graph.None},
			{alice, graph.None, carol},
			{graph.None, knows, carol},
		}
		for _, sh := range shapes {
			// Appends must extend the caller's buffer, not replace it.
			prefix := []graph.ID{9999}
			got, err := ss.AppendSortedList(prefix, sh[0], sh[1], sh[2])
			if err != nil {
				t.Fatalf("%s: AppendSortedList(%v): %v", name, sh, err)
			}
			if len(got) == 0 || got[0] != 9999 {
				t.Fatalf("%s: AppendSortedList(%v) dropped the existing buffer: %v", name, sh, got)
			}
			got = got[1:]
			var want []graph.ID
			if err := g.Match(sh[0], sh[1], sh[2], func(s, p, o graph.ID) bool {
				switch {
				case sh[0] == graph.None:
					want = append(want, s)
				case sh[1] == graph.None:
					want = append(want, p)
				default:
					want = append(want, o)
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(got) != len(want) {
				t.Fatalf("%s: AppendSortedList(%v) = %v, want %v", name, sh, got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: AppendSortedList(%v) = %v, want %v", name, sh, got, want)
				}
			}
		}

		// 1-bound shapes: pairs stream in (first, second) sorted order
		// and cover the same triples as Match.
		for _, sh := range [][3]graph.ID{
			{alice, graph.None, graph.None},
			{graph.None, knows, graph.None},
			{graph.None, graph.None, carol},
		} {
			var pairs [][2]graph.ID
			if err := ss.SortedPairs(sh[0], sh[1], sh[2], func(a, b graph.ID) bool {
				pairs = append(pairs, [2]graph.ID{a, b})
				return true
			}); err != nil {
				t.Fatalf("%s: SortedPairs(%v): %v", name, sh, err)
			}
			for i := 1; i < len(pairs); i++ {
				if pairs[i-1][0] > pairs[i][0] ||
					(pairs[i-1][0] == pairs[i][0] && pairs[i-1][1] >= pairs[i][1]) {
					t.Fatalf("%s: SortedPairs(%v) out of order at %d: %v", name, sh, i, pairs)
				}
			}
			n, err := g.Count(sh[0], sh[1], sh[2])
			if err != nil {
				t.Fatal(err)
			}
			if len(pairs) != n {
				t.Fatalf("%s: SortedPairs(%v) yielded %d pairs, Count says %d", name, sh, len(pairs), n)
			}
		}

		// Early termination is honored.
		seen := 0
		if err := ss.SortedPairs(graph.None, knows, graph.None, func(a, b graph.ID) bool {
			seen++
			return false
		}); err != nil {
			t.Fatal(err)
		}
		if seen != 1 {
			t.Fatalf("%s: SortedPairs kept iterating after stop: %d calls", name, seen)
		}
	}

	// The adapter surfaces a Match error from both methods.
	failing := graph.SortedOf(failingMatch{gs["baseline"]})
	if _, err := failing.AppendSortedList(nil, 1, 2, graph.None); !errors.Is(err, errMatch) {
		t.Fatalf("AppendSortedList over a failing Match: err = %v, want %v", err, errMatch)
	}
	if err := failing.SortedPairs(1, graph.None, graph.None, func(a, b graph.ID) bool { return true }); !errors.Is(err, errMatch) {
		t.Fatalf("SortedPairs over a failing Match: err = %v, want %v", err, errMatch)
	}
}
