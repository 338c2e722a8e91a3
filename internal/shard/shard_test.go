package shard_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/shard"
	"hexastore/internal/triplestore"
)

type ID = dictionary.ID

const None = dictionary.None

func ex(local string) rdf.Term { return rdf.NewIRI("http://ex/" + local) }

// memCluster opens an n-shard in-memory cluster.
func memCluster(t *testing.T, n int) *shard.Cluster {
	t.Helper()
	c, err := shard.OpenCluster(shard.Config{Shards: n})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// randomTriples builds a dense random triple set over small id ranges so
// every pattern shape has multi-shard answers.
func randomTriples(n int) []rdf.Triple {
	rng := rand.New(rand.NewSource(42))
	seen := make(map[[3]int]bool)
	var ts []rdf.Triple
	for len(ts) < n {
		k := [3]int{rng.Intn(60), rng.Intn(8), rng.Intn(40)}
		if seen[k] {
			continue
		}
		seen[k] = true
		ts = append(ts, rdf.T(
			ex(fmt.Sprintf("s%d", k[0])),
			ex(fmt.Sprintf("p%d", k[1])),
			ex(fmt.Sprintf("o%d", k[2]))))
	}
	return ts
}

// load inserts triples through the Graph interface.
func load(t *testing.T, g graph.Graph, ts []rdf.Triple) {
	t.Helper()
	for _, tr := range ts {
		if _, err := graph.AddTriple(g, tr); err != nil {
			t.Fatal(err)
		}
	}
}

// collect gathers Match output as ordered triples.
func collect(t *testing.T, g graph.Graph, s, p, o ID) [][3]ID {
	t.Helper()
	var out [][3]ID
	if err := g.Match(s, p, o, func(s, p, o ID) bool {
		out = append(out, [3]ID{s, p, o})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// decode renders triples as sorted term strings, for cross-graph
// comparison (ids differ between independently-loaded graphs).
func decode(t *testing.T, g graph.Graph, triples [][3]ID) []string {
	t.Helper()
	dict := g.Dictionary()
	out := make([]string, 0, len(triples))
	for _, tr := range triples {
		tt, err := dict.DecodeTriple(tr[0], tr[1], tr[2])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, tt.String())
	}
	slices.Sort(out)
	return out
}

// TestClusterMatchesReference drives every pattern shape through an
// 8-shard cluster and a single store and requires identical results.
func TestClusterMatchesReference(t *testing.T) {
	ts := randomTriples(800)
	ref, err := delta.New(graph.Memory(core.New()), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	load(t, ref, ts)
	c := memCluster(t, 8)
	load(t, c, ts)

	if c.Len() != ref.Len() {
		t.Fatalf("Len = %d, want %d", c.Len(), ref.Len())
	}

	dictC, dictR := c.Dictionary(), ref.Dictionary()
	// Probe a grid of patterns over terms known to both graphs.
	lookup := func(d *dictionary.Dictionary, term rdf.Term) ID {
		id, ok := d.Lookup(term)
		if !ok {
			t.Fatalf("term %v missing", term)
		}
		return id
	}
	type pat struct{ s, p, o rdf.Term }
	pats := []pat{
		{ex("s3"), ex("p1"), ex("o5")},
		{ex("s3"), ex("p1"), rdf.Term{}},
		{ex("s3"), rdf.Term{}, ex("o5")},
		{ex("s3"), rdf.Term{}, rdf.Term{}},
		{rdf.Term{}, ex("p1"), ex("o5")},
		{rdf.Term{}, ex("p1"), rdf.Term{}},
		{rdf.Term{}, rdf.Term{}, ex("o5")},
		{rdf.Term{}, rdf.Term{}, rdf.Term{}},
	}
	toIDs := func(d *dictionary.Dictionary, p pat) (ID, ID, ID) {
		var s, pr, o ID
		if p.s.Value != "" {
			s = lookup(d, p.s)
		}
		if p.p.Value != "" {
			pr = lookup(d, p.p)
		}
		if p.o.Value != "" {
			o = lookup(d, p.o)
		}
		return s, pr, o
	}
	for _, p := range pats {
		cs, cp, co := toIDs(dictC, p)
		rs, rp, ro := toIDs(dictR, p)
		gotM := collect(t, c, cs, cp, co)
		wantM := collect(t, ref, rs, rp, ro)
		got := decode(t, c, gotM)
		want := decode(t, ref, wantM)
		if !slices.Equal(got, want) {
			t.Errorf("pattern %+v: %d matches, want %d", p, len(got), len(want))
		}
		// Cluster Match output must be globally sorted for every shape.
		sorted := slices.IsSortedFunc(gotM, func(a, b [3]ID) int {
			for i := range a {
				if a[i] != b[i] {
					if a[i] < b[i] {
						return -1
					}
					return 1
				}
			}
			return 0
		})
		if !sorted {
			t.Errorf("pattern %+v: cluster Match output not sorted", p)
		}
		gotN, err := c.Count(cs, cp, co)
		if err != nil {
			t.Fatal(err)
		}
		wantN, err := ref.Count(rs, rp, ro)
		if err != nil {
			t.Fatal(err)
		}
		if gotN != wantN || gotN != len(gotM) {
			t.Errorf("pattern %+v: Count = %d, want %d (matched %d)", p, gotN, wantN, len(gotM))
		}
	}

	// SortedSource equivalence on 2-bound and 1-bound shapes.
	refSS, _ := graph.AsSortedSource(ref)
	p1 := lookup(dictC, ex("p1"))
	rp1 := lookup(dictR, ex("p1"))
	o5 := lookup(dictC, ex("o5"))
	ro5 := lookup(dictR, ex("o5"))
	gotList, err := c.AppendSortedList(nil, None, p1, o5)
	if err != nil {
		t.Fatal(err)
	}
	wantList, err := refSS.AppendSortedList(nil, None, rp1, ro5)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotList) != len(wantList) || !slices.IsSorted(gotList) {
		t.Fatalf("AppendSortedList: %d ids (sorted=%v), want %d", len(gotList), slices.IsSorted(gotList), len(wantList))
	}
	var gotPairs, wantPairs int
	if err := c.SortedPairs(None, p1, None, func(a, b ID) bool { gotPairs++; return true }); err != nil {
		t.Fatal(err)
	}
	if err := refSS.SortedPairs(None, rp1, None, func(a, b ID) bool { wantPairs++; return true }); err != nil {
		t.Fatal(err)
	}
	if gotPairs != wantPairs {
		t.Fatalf("SortedPairs streamed %d pairs, want %d", gotPairs, wantPairs)
	}
}

// TestClusterRemoveAndHas exercises routed point operations.
func TestClusterRemoveAndHas(t *testing.T) {
	ts := randomTriples(100)
	c := memCluster(t, 4)
	load(t, c, ts)
	for i, tr := range ts {
		if i%3 != 0 {
			continue
		}
		changed, err := graph.RemoveTriple(c, tr)
		if err != nil || !changed {
			t.Fatalf("RemoveTriple(%v) = %v, %v", tr, changed, err)
		}
		ok, err := graph.HasTriple(c, tr)
		if err != nil || ok {
			t.Fatalf("HasTriple after remove = %v, %v", ok, err)
		}
	}
	want := 0
	for i := range ts {
		if i%3 != 0 {
			want++
		}
	}
	if c.Len() != want {
		t.Fatalf("Len = %d, want %d", c.Len(), want)
	}
}

// TestClusterSnapshotIsolation pins a view, mutates the cluster, and
// requires the view to stay frozen.
func TestClusterSnapshotIsolation(t *testing.T) {
	c := memCluster(t, 4)
	load(t, c, randomTriples(50))
	snap := graph.Snapshot(c)
	before := snap.Len()

	load(t, c, []rdf.Triple{rdf.T(ex("new1"), ex("pnew"), ex("x")), rdf.T(ex("new2"), ex("pnew"), ex("x"))})
	if snap.Len() != before {
		t.Fatalf("pinned view grew: %d -> %d", before, snap.Len())
	}
	if c.Len() != before+2 {
		t.Fatalf("cluster Len = %d, want %d", c.Len(), before+2)
	}
	if _, err := snap.Add(1, 1, 1); err == nil {
		t.Fatal("mutating a pinned view must fail")
	}
}

// TestClusterBatchAtomicity checks that a multi-shard ApplyTriples batch
// is all-or-nothing for concurrently pinned views: each batch moves K
// marker triples, so every pinned view must count exactly K.
func TestClusterBatchAtomicity(t *testing.T) {
	const k = 8
	c := memCluster(t, 4)
	dict := c.Dictionary()
	marker := dict.Encode(ex("marker"))

	batch := func(gen int) []graph.TripleOp {
		var ops []graph.TripleOp
		for i := 0; i < k; i++ {
			if gen > 0 {
				ops = append(ops, graph.TripleOp{Del: true,
					T: rdf.T(ex(fmt.Sprintf("m%d_%d", gen-1, i)), ex("marker"), ex("v"))})
			}
			ops = append(ops, graph.TripleOp{
				T: rdf.T(ex(fmt.Sprintf("m%d_%d", gen, i)), ex("marker"), ex("v"))})
		}
		return ops
	}
	if _, _, err := c.ApplyTriples(batch(0)); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		for gen := 1; gen <= 50; gen++ {
			if _, _, err := c.ApplyTriples(batch(gen)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		n, err := graph.Snapshot(c).Count(None, marker, None)
		if err != nil {
			t.Fatal(err)
		}
		if n != k {
			t.Fatalf("pinned view counted %d marker triples, want %d — torn batch", n, k)
		}
	}
}

// TestNewEnforcesSharedDictionary is the shared-dictionary ownership
// rule: a shard with its own dictionary is rejected outright.
func TestNewEnforcesSharedDictionary(t *testing.T) {
	dict := dictionary.New()
	mk := func(d *dictionary.Dictionary) graph.Graph {
		ov, err := delta.New(graph.Memory(core.NewShared(d)), delta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ov
	}
	if _, err := shard.New(dict, []graph.Graph{mk(dict), mk(dictionary.New())}); err == nil {
		t.Fatal("New accepted a shard with a foreign dictionary")
	}
	if _, err := shard.New(dict, []graph.Graph{mk(dict), mk(dict)}); err != nil {
		t.Fatalf("New rejected a well-formed cluster: %v", err)
	}
	// A store without snapshot pinning is rejected too.
	if _, err := shard.New(dict, []graph.Graph{graph.Baseline(triplestore.New(dict))}); err == nil {
		t.Fatal("New accepted a shard without snapshot support")
	}
}

// TestClusterStats sanity-checks per-shard stats.
func TestClusterStats(t *testing.T) {
	c := memCluster(t, 3)
	load(t, c, randomTriples(200))
	st := c.Stats()
	if st.Shards != 3 || len(st.PerShard) != 3 {
		t.Fatalf("Stats shards = %d/%d", st.Shards, len(st.PerShard))
	}
	total := 0
	for i, row := range st.PerShard {
		if row.Triples == 0 {
			t.Errorf("shard %d is empty — placement skew or routing bug", i)
		}
		if row.Delta == nil {
			t.Errorf("shard %d: no delta stats", i)
		}
		total += row.Triples
	}
	if total != c.Len() || st.Triples != c.Len() {
		t.Fatalf("per-shard triples sum to %d (stats %d), want %d", total, st.Triples, c.Len())
	}
}
