package sparql

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/obs"
	"hexastore/internal/rdf"
	"hexastore/internal/triplestore"
)

// costTriples is a known distribution:
//
//	predicate 1: 100 triples, 10 subjects × 10 objects (dense grid)
//	predicate 2: 20 triples, 20 subjects, 1 object (type-like)
//	predicate 3: 5 triples, 5 subjects, 5 objects (sparse 1:1)
func costTriples() [][3]core.ID {
	var ts [][3]core.ID
	for s := core.ID(1); s <= 10; s++ {
		for o := core.ID(101); o <= 110; o++ {
			ts = append(ts, [3]core.ID{s, 1, o})
		}
	}
	for s := core.ID(11); s <= 30; s++ {
		ts = append(ts, [3]core.ID{s, 2, 200})
	}
	for i := core.ID(0); i < 5; i++ {
		ts = append(ts, [3]core.ID{31 + i, 3, 301 + i})
	}
	return ts
}

// costBackends holds ts on each backend the cost source reads: a sealed
// memory store, a clean overlay, a pending overlay whose delta holds
// ts[0] — (1,1,101) in costTriples, whose subject, predicate and object
// all have other triples in the main, so the distinct counts the main
// answers are the full store's — and a disk store.
func costBackends(t *testing.T, ts [][3]core.ID) map[string]graph.Graph {
	t.Helper()
	memory := func(ts [][3]core.ID) graph.Graph {
		b := core.NewBuilder(nil)
		b.AddAll(ts)
		return graph.Memory(b.Build())
	}
	clean, err := delta.New(memory(ts), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	if err := ds.BulkLoad(ts); err != nil {
		t.Fatal(err)
	}
	gs := map[string]graph.Graph{"memory": memory(ts), "clean overlay": clean, "disk": graph.Disk(ds)}
	if len(ts) > 0 {
		pending, err := delta.New(memory(ts[1:]), delta.Options{CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pending.Add(ts[0][0], ts[0][1], ts[0][2]); err != nil {
			t.Fatal(err)
		}
		gs["pending overlay"] = pending
	}
	return gs
}

// costSourceOf prices from a snapshot of g, as an evaluation does.
func costSourceOf(g graph.Graph) *costSource { return newCostSource(graph.Snapshot(g)) }

func TestCostSourceCounts(t *testing.T) {
	for name, g := range costBackends(t, costTriples()) {
		cs := costSourceOf(g)
		for _, c := range []struct {
			what     string
			distinct bool
			ix       core.Index
			head     core.ID
			want     float64
		}{
			{"predicates", true, core.PSO, core.None, 3},
			{"subjects", true, core.SPO, core.None, 35},
			{"objects", true, core.OSP, core.None, 16},
			{"triples of predicate 1", false, core.PSO, 1, 100},
			{"subjects of predicate 1", true, core.PSO, 1, 10},
			{"objects of predicate 1", true, core.POS, 1, 10},
			{"triples of predicate 2", false, core.PSO, 2, 20},
			{"objects of predicate 2", true, core.POS, 2, 1},
			{"triples of object 200", false, core.OSP, 200, 20},
			{"triples of subject 1", false, core.SPO, 1, 10},
		} {
			if got := cs.read(c.distinct, c.ix, c.head); got != c.want {
				t.Errorf("%s: %s = %g, want %g", name, c.what, got, c.want)
			}
		}
		if cs.n != 125 || cs.err != nil {
			t.Errorf("%s: %d triples, err %v; want 125, nil", name, cs.n, cs.err)
		}
	}

	// A backend that cannot count distinct keys answers with their
	// upper bounds: a head's triples, and every triple for the heads.
	ts := triplestore.New(nil)
	for _, tr := range costTriples() {
		ts.Add(tr[0], tr[1], tr[2])
	}
	cs := costSourceOf(graph.Baseline(ts))
	if got := cs.read(true, core.PSO, 1); got != 100 {
		t.Errorf("baseline: subjects of predicate 1 = %g, want the bound 100", got)
	}
	if got := cs.read(true, core.PSO, core.None); got != 125 {
		t.Errorf("baseline: predicates = %g, want the bound 125", got)
	}
}

func TestCostEstimateExactForSingleBoundPositions(t *testing.T) {
	for name, g := range costBackends(t, costTriples()) {
		cs := costSourceOf(g)
		// Single-position estimates are exact (they read per-resource counts).
		for _, c := range []struct {
			s, p, o core.ID
			want    float64
		}{
			{core.None, 1, core.None, 100},
			{core.None, 2, core.None, 20},
			{core.None, core.None, 200, 20},
			{1, core.None, core.None, 10},
			{core.None, core.None, core.None, 125},
		} {
			if got := cs.estimate(c.s, c.p, c.o); got != c.want {
				t.Errorf("%s: estimate(%d,%d,%d) = %g, want %g", name, c.s, c.p, c.o, got, c.want)
			}
		}
	}
}

func TestCostEstimateTwoBoundPositions(t *testing.T) {
	for name, g := range costBackends(t, costTriples()) {
		cs := costSourceOf(g)
		for _, c := range []struct {
			what    string
			s, p, o core.ID
			want    float64
		}{
			{"(s,1,?): 100 triples over 10 subjects", 1, 1, core.None, 10},
			{"(?,1,o): 100 triples over 10 objects", core.None, 1, 110, 10},
			{"(?,2,o): 20 triples over 1 object", core.None, 2, 200, 20},
		} {
			if got := cs.estimate(c.s, c.p, c.o); got != c.want {
				t.Errorf("%s: %s: estimate = %g, want %g", name, c.what, got, c.want)
			}
		}
	}
}

func TestCostEstimateFullyBound(t *testing.T) {
	for name, g := range costBackends(t, costTriples()) {
		// (s,1,o): 100/(10*10) = 1 — the grid is dense, the estimate exact.
		if got := costSourceOf(g).estimate(1, 1, 101); math.Abs(got-1) > 1e-9 {
			t.Errorf("%s: estimate(s,p,o) = %g, want 1", name, got)
		}
	}
}

func TestCostEstimateUnknownResources(t *testing.T) {
	for name, g := range costBackends(t, costTriples()) {
		cs := costSourceOf(g)
		for _, c := range [][3]core.ID{{core.None, 99, core.None}, {999, core.None, core.None}, {core.None, core.None, 999}, {1, 99, core.None}} {
			if got := cs.estimate(c[0], c[1], c[2]); got != 0 {
				t.Errorf("%s: estimate%v = %g, want 0", name, c, got)
			}
		}
	}
}

func TestCostEstimateEmptyStore(t *testing.T) {
	for name, g := range costBackends(t, nil) {
		if got := costSourceOf(g).estimate(core.None, core.None, core.None); got != 0 {
			t.Errorf("%s: empty-store estimate = %g, want 0", name, got)
		}
	}
}

// TestCostEstimateOrdersSelectivityCorrectly checks the property the
// planner relies on: the relative order of estimates matches the
// relative order of true cardinalities for patterns of the same shape.
func TestCostEstimateOrdersSelectivityCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var ts [][3]core.ID
	// Predicate 1 is 50× more frequent than predicate 2.
	for i := 0; i < 5000; i++ {
		ts = append(ts, [3]core.ID{core.ID(rng.Intn(500) + 1), 1, core.ID(rng.Intn(500) + 1001)})
	}
	for i := 0; i < 100; i++ {
		ts = append(ts, [3]core.ID{core.ID(rng.Intn(500) + 1), 2, core.ID(rng.Intn(10) + 2001)})
	}
	for name, g := range costBackends(t, ts) {
		cs := costSourceOf(g)
		if cs.estimate(core.None, 2, core.None) >= cs.estimate(core.None, 1, core.None) {
			t.Errorf("%s: rare predicate estimated no cheaper than common one", name)
		}
		if cs.estimate(core.None, 2, 2001) >= cs.estimate(core.None, 1, core.None) {
			t.Errorf("%s: bound-object rare predicate estimated no cheaper than unbound common one", name)
		}
	}
}

// TestCostReadsWhatThePlanJoins checks that pricing reads each number
// once and only the numbers the cost model uses: a one-pattern branch
// reads none, and a join of constant predicates reads their own counts,
// never a whole ordering's.
func TestCostReadsWhatThePlanJoins(t *testing.T) {
	g := skewedStore(t)
	dict := g.Dictionary()
	common, _ := dict.Lookup(rdf.NewIRI("common"))
	rare, _ := dict.Lookup(rdf.NewIRI("rare"))
	pats := []idPattern{
		{pat: Pattern{S: V("s"), P: C(rdf.NewIRI("common")), O: V("o")}, resolved: true},
		{pat: Pattern{S: V("s"), P: C(rdf.NewIRI("rare")), O: V("x")}, resolved: true},
	}
	pats[0].ids[1], pats[1].ids[1] = common, rare

	cs := costSourceOf(g)
	if _, _, err := planOrderJoin(cs, pats[:1]); err != nil || len(cs.reads) != 0 {
		t.Fatalf("one pattern: %d reads, err %v; want none", len(cs.reads), err)
	}
	if _, _, err := planOrderJoin(cs, pats); err != nil {
		t.Fatal(err)
	}
	seen := map[costRead]bool{}
	for _, r := range cs.reads {
		if r.head == core.None {
			t.Errorf("read %+v: a whole ordering's count, for a join of constant predicates", r)
		}
		key := costRead{distinct: r.distinct, ix: r.ix, head: r.head}
		if seen[key] {
			t.Errorf("read %+v twice", r)
		}
		seen[key] = true
	}
}

var errCount = errors.New("count failed")

// failingCounts is a graph whose counts fail.
type failingCounts struct{ graph.Graph }

func (failingCounts) Count(s, p, o graph.ID) (int, error) { return 0, errCount }

// TestCostReadErrorFailsQuery checks that a count the planner cannot
// read fails the query with its error instead of pricing it as zero.
func TestCostReadErrorFailsQuery(t *testing.T) {
	g := failingCounts{skewedStore(t)}
	q, err := Parse(`SELECT ?s WHERE { ?s <common> ?o . ?s <rare> ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	q.Explain = ExplainPlan
	if _, err := EvalOpts(context.Background(), g, q, EvalOptions{}); !errors.Is(err, errCount) {
		t.Fatalf("EvalOpts error = %v, want %v", err, errCount)
	}
	if _, err := NewPlanner(g).EvalOpts(context.Background(), q, EvalOptions{}); !errors.Is(err, errCount) {
		t.Fatalf("Planner.EvalOpts error = %v, want %v", err, errCount)
	}
}

// countingCounts is a graph that counts the counts read from it.
type countingCounts struct {
	graph.Graph
	reads *int
}

func (c countingCounts) Count(s, p, o graph.ID) (int, error) {
	*c.reads++
	return c.Graph.Count(s, p, o)
}

// TestTracedPlanHitReadsNoCount checks that a plan-cache hit reads no
// count even when traced, as every query is while the server's
// slow-query log is on: its step estimates come with the memoized plan.
func TestTracedPlanHitReadsNoCount(t *testing.T) {
	g := countingCounts{skewedStore(t), new(int)}
	pl := NewPlanner(g)
	run := func() {
		t.Helper()
		q, err := Parse(`SELECT ?s WHERE { ?s <common> ?o . ?s <rare> ?x }`)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTrace("query")
		if _, err := pl.EvalOpts(context.Background(), q, EvalOptions{Trace: tr}); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		for _, sp := range findSpans(tr, "step[") {
			if est := attrInt(t, sp, "estRows"); est < 0 {
				t.Errorf("%s: estRows = %d, want a priced estimate", sp.Name(), est)
			}
		}
	}
	run()
	miss := *g.reads
	if miss == 0 {
		t.Fatal("the plan miss read no count")
	}
	run()
	if hit := *g.reads - miss; hit != 0 || pl.CacheStats().PlanHits != 1 {
		t.Errorf("the traced plan hit read %d counts (%d plan hits), want 0", hit, pl.CacheStats().PlanHits)
	}
}
