package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/lubm"
	"hexastore/internal/obs"
	"hexastore/internal/rdf"
	"hexastore/internal/triplestore"
)

// skewedStore builds a dataset where the cost-based planner's choice
// matters: a very common predicate and a very rare one sharing subjects.
func skewedStore(t testing.TB) graph.Graph {
	stb := core.NewBuilder(nil)
	rng := rand.New(rand.NewSource(8))
	common := rdf.NewIRI("common")
	rare := rdf.NewIRI("rare")
	for i := 0; i < 5000; i++ {
		s := rdf.NewIRI(fmt.Sprintf("s%d", rng.Intn(1000)))
		o := rdf.NewIRI(fmt.Sprintf("o%d", rng.Intn(1000)))
		stb.AddTriple(rdf.T(s, common, o))
	}
	for i := 0; i < 20; i++ {
		s := rdf.NewIRI(fmt.Sprintf("s%d", i))
		stb.AddTriple(rdf.T(s, rare, rdf.NewLiteral("x")))
	}
	st := stb.Build()
	return graph.Memory(st)
}

// plannerExec parses src and evaluates it through pl.
func plannerExec(pl *Planner, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return pl.EvalOpts(context.Background(), q, EvalOptions{})
}

func TestPlannerResultsMatchDefaultEval(t *testing.T) {
	st := skewedStore(t)
	pl := NewPlanner(st)
	queries := []string{
		`SELECT ?s WHERE { ?s <rare> ?x . ?s <common> ?o }`,
		`SELECT ?s ?o WHERE { ?s <common> ?o . ?s <rare> "x" }`,
		`SELECT DISTINCT ?s WHERE { ?s <common> ?o }`,
		`SELECT ?s WHERE { ?s <rare> ?x } LIMIT 5`,
		`SELECT ?a ?b WHERE { ?a <common> ?m . ?m <common> ?b }`,
	}
	for _, src := range queries {
		want, err := Exec(st, src)
		if err != nil {
			t.Fatalf("Exec(%q): %v", src, err)
		}
		got, err := plannerExec(pl, src)
		if err != nil {
			t.Fatalf("Planner.EvalOpts(%q): %v", src, err)
		}
		want.SortRows()
		got.SortRows()
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("query %q: planner %d rows, default %d", src, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for _, v := range want.Vars {
				if got.Rows[i][v] != want.Rows[i][v] {
					t.Fatalf("query %q row %d var %s: planner %v, default %v",
						src, i, v, got.Rows[i][v], want.Rows[i][v])
				}
			}
		}
	}
}

func TestPlanOrderStatsPutsSelectiveFirst(t *testing.T) {
	st := skewedStore(t)
	dict := st.Dictionary()
	commonID, _ := dict.Lookup(rdf.NewIRI("common"))
	rareID, _ := dict.Lookup(rdf.NewIRI("rare"))

	pats := []idPattern{
		{pat: Pattern{S: V("s"), P: C(rdf.NewIRI("common")), O: V("o")}, resolved: true},
		{pat: Pattern{S: V("s"), P: C(rdf.NewIRI("rare")), O: V("x")}, resolved: true},
	}
	pats[0].ids[1] = commonID
	pats[1].ids[1] = rareID

	order, _, err := planOrderJoin(newCostSource(st), pats)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] != 1 {
		t.Fatalf("planner ordered common predicate first: order = %v", order)
	}
}

func TestPlanOrderStatsAvoidsCartesianProduct(t *testing.T) {
	st := skewedStore(t)
	dict := st.Dictionary()
	rareID, _ := dict.Lookup(rdf.NewIRI("rare"))
	commonID, _ := dict.Lookup(rdf.NewIRI("common"))

	// Three patterns: rare (selective, binds ?s), a disconnected pattern
	// over ?a/?b, and a common pattern connected to ?s. The planner must
	// not pick the disconnected pattern second even though its estimate
	// might look appealing.
	pats := []idPattern{
		{pat: Pattern{S: V("s"), P: C(rdf.NewIRI("rare")), O: V("x")}, resolved: true},
		{pat: Pattern{S: V("a"), P: C(rdf.NewIRI("rare")), O: V("b")}, resolved: true},
		{pat: Pattern{S: V("s"), P: C(rdf.NewIRI("common")), O: V("o")}, resolved: true},
	}
	pats[0].ids[1] = rareID
	pats[1].ids[1] = rareID
	pats[2].ids[1] = commonID

	order, _, err := planOrderJoin(newCostSource(st), pats)
	if err != nil {
		t.Fatal(err)
	}
	if order[0] == 1 {
		// Both rare patterns are equivalent starts; fine either way.
		t.Skip("planner started with the disconnected twin; acceptable")
	}
	if order[1] != 2 {
		t.Fatalf("planner picked disconnected pattern before connected one: %v", order)
	}
}

// TestPlanCacheReplansAfterDrift holds the plan cache's one staleness
// rule: a memoized plan is planned again once the store has moved by a
// tenth of the count it was priced at, and never for a store that did
// not move.
func TestPlanCacheReplansAfterDrift(t *testing.T) {
	triple := func(i int) rdf.Triple {
		return rdf.T(rdf.NewIRI(fmt.Sprintf("s%d", i)), rdf.NewIRI("p"), rdf.NewIRI("o"))
	}
	// Two patterns and no constant, so even the empty store plans it.
	const src = `SELECT ?s WHERE { ?s ?p ?o . ?o ?q ?r }`
	for _, c := range []struct {
		name        string
		built       int  // triples the plan is priced at
		add, remove int  // then written
		want        bool // whether the plan is made again
	}{
		{"unchanged", 100, 0, 0, false},
		{"9% added", 100, 9, 0, false},
		{"10% added", 100, 10, 0, true},
		{"9% removed", 100, 0, 9, false},
		{"10% removed", 100, 0, 10, true},
		{"empty, unchanged", 0, 0, 0, false},
		{"empty, one added", 0, 1, 0, true},
	} {
		stb := core.NewBuilder(nil)
		for i := 0; i < c.built; i++ {
			stb.AddTriple(triple(i))
		}
		ov, err := delta.New(graph.Memory(stb.Build()), delta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		pl := NewPlanner(ov)
		if _, err := plannerExec(pl, src); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < c.add; i++ {
			if _, err := graph.AddTriple(ov, triple(c.built+i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < c.remove; i++ {
			if _, err := graph.RemoveTriple(ov, triple(i)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := plannerExec(pl, src); err != nil {
			t.Fatal(err)
		}
		cs := pl.CacheStats()
		if replanned := cs.PlanMisses == 2; replanned != c.want || cs.PlanHits+cs.PlanMisses != 2 {
			t.Errorf("%s: %d hits, %d misses; want replanned = %v", c.name, cs.PlanHits, cs.PlanMisses, c.want)
		}
	}
}

// TestPlannerPricesPendingDelta checks that a pending overlay is priced
// on what it holds now: a predicate written after NewPlanner, which
// only the delta has, counts at once, so the rare predicate that was
// there from the start still goes first.
func TestPlannerPricesPendingDelta(t *testing.T) {
	stb := core.NewBuilder(nil)
	for i := 0; i < 20; i++ {
		stb.AddTriple(rdf.T(rdf.NewIRI(fmt.Sprintf("s%d", i)), rdf.NewIRI("rare"), rdf.NewLiteral("x")))
	}
	ov, err := delta.New(graph.Memory(stb.Build()), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(ov)
	for i := 0; i < 500; i++ {
		if _, err := graph.AddTriple(ov, rdf.T(rdf.NewIRI(fmt.Sprintf("s%d", i%100)), rdf.NewIRI("common"), rdf.NewIRI(fmt.Sprintf("o%d", i)))); err != nil {
			t.Fatal(err)
		}
	}
	if ds := ov.Stats(); ds.DeltaAdds == 0 {
		t.Fatal("the writes were compacted away; the test needs them pending")
	}
	order := planOrder(t, `SELECT ?s ?o WHERE { ?s <common> ?o . ?s <rare> ?z }`,
		func(q *Query, opt EvalOptions) (*Result, error) { return pl.EvalOpts(context.Background(), q, opt) })
	if !strings.Contains(order[0], "<rare>") {
		t.Errorf("plan starts from %q, want the <rare> pattern (order %q)", order[0], order)
	}
}

func TestPlannerWithModifiersAndOptionals(t *testing.T) {
	st := skewedStore(t)
	pl := NewPlanner(st)
	res, err := plannerExec(pl, `
		SELECT ?s ?x WHERE {
			?s <common> ?o .
			OPTIONAL { ?s <rare> ?x }
		} LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(res.Rows))
	}
}

// restrictedChain is the university-restricted advisor ⋈ teacherOf
// shape: two patterns select one university's students, two more join
// their advisors' courses. Its one pattern with two constants is the
// selective start, and it is written second.
const restrictedChain = `SELECT ?student ?course WHERE {
	?student <lubm:memberOf> ?dept .
	?dept <lubm:subOrganizationOf> <lubm:University0> .
	?student <lubm:advisor> ?prof .
	?prof <lubm:teacherOf> ?course }`

// planOrder runs EXPLAIN on src through eval and returns the plan
// span's pattern order and the trace.
func planOrderTrace(t *testing.T, src string, eval func(*Query, EvalOptions) (*Result, error)) ([]string, *obs.Trace) {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	q.Explain = ExplainPlan
	tr := obs.NewTrace("query")
	if _, err := eval(q, EvalOptions{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	plans := findSpans(tr, "plan")
	if len(plans) != 1 {
		t.Fatalf("plan spans = %d, want 1", len(plans))
	}
	order, ok := plans[0].Attr("order")
	if !ok {
		t.Fatal("plan span missing order attr")
	}
	return strings.Split(fmt.Sprint(order), " ; "), tr
}

// planOrder is planOrderTrace without the trace.
func planOrder(t *testing.T, src string, eval func(*Query, EvalOptions) (*Result, error)) []string {
	t.Helper()
	order, _ := planOrderTrace(t, src, eval)
	return order
}

// TestPlansStartMostSelective checks the restricted chain's plan on
// every way of pricing it: the package-level entry point and a Planner
// read the same counts, and a backend that cannot count distinct keys
// (the flat baseline) prices with their upper bounds. Each starts from
// the two-constant pattern, written second, and every step carries a
// priced estimate.
func TestPlansStartMostSelective(t *testing.T) {
	var ts []rdf.Triple
	lubm.Config{Universities: 2, Seed: 1, DeptsPerUniv: 3, UndergradPerDept: 10, GradPerDept: 5}.Generate(func(tr rdf.Triple) bool {
		ts = append(ts, tr)
		return true
	})
	mem, base := buildMemory(ts), buildBaseline(ts)
	want := []string{"subOrganizationOf", "memberOf", "advisor", "teacherOf"}
	pl := NewPlanner(mem)
	for _, c := range []struct {
		name string
		eval func(*Query, EvalOptions) (*Result, error)
	}{
		{"EvalOpts", func(q *Query, opt EvalOptions) (*Result, error) { return EvalOpts(context.Background(), mem, q, opt) }},
		{"Planner", func(q *Query, opt EvalOptions) (*Result, error) { return pl.EvalOpts(context.Background(), q, opt) }},
		{"baseline", func(q *Query, opt EvalOptions) (*Result, error) { return EvalOpts(context.Background(), base, q, opt) }},
	} {
		order, tr := planOrderTrace(t, restrictedChain, c.eval)
		if len(order) != len(want) {
			t.Fatalf("%s: order %q, want %d steps", c.name, order, len(want))
		}
		for i, p := range want {
			if !strings.Contains(order[i], "<lubm:"+p+">") {
				t.Errorf("%s: step %d is %q, want the %s pattern (order %q)", c.name, i+1, order[i], p, order)
			}
		}
		for _, sp := range findSpans(tr, "step[") {
			if est := attrInt(t, sp, "estRows"); est < 0 {
				t.Errorf("%s %s: estRows = %d, want a priced estimate", c.name, sp.Name(), est)
			}
		}
	}
}

// TestEntryPointsAgreeOnOrder checks that the package-level entry point
// and a Planner choose the same order, the rare pattern first, on a
// memory store, a pending overlay and disk — also when both patterns
// bind only their predicate, where text order alone would start from
// the 30,000-row pattern.
func TestEntryPointsAgreeOnOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	var ts []rdf.Triple
	for i := 0; i < 30_000; i++ {
		ts = append(ts, rdf.T(rdf.NewIRI(fmt.Sprintf("s%d", rng.Intn(3000))), rdf.NewIRI("common"), rdf.NewIRI(fmt.Sprintf("o%d", rng.Intn(3000)))))
	}
	for i := 0; i < 30; i++ {
		ts = append(ts, rdf.T(rdf.NewIRI(fmt.Sprintf("s%d", i)), rdf.NewIRI("rare"), rdf.NewLiteral("x")))
	}
	pending := liveMemory(t, buildMemory(ts[1:]))
	if _, err := graph.AddTriple(pending, ts[0]); err != nil {
		t.Fatal(err)
	}
	backends := map[string]graph.Graph{"memory": buildMemory(ts), "pending overlay": pending, "disk": buildDisk(t, ts)}
	for name, g := range backends {
		pl := NewPlanner(g)
		for _, src := range []string{
			`SELECT ?s ?o WHERE { ?s <common> ?o . ?s <rare> "x" }`,
			`SELECT ?s ?o WHERE { ?s <common> ?o . ?s <rare> ?z }`,
		} {
			pkg := planOrder(t, src, func(q *Query, opt EvalOptions) (*Result, error) { return EvalOpts(context.Background(), g, q, opt) })
			planned := planOrder(t, src, func(q *Query, opt EvalOptions) (*Result, error) { return pl.EvalOpts(context.Background(), q, opt) })
			if fmt.Sprint(pkg) != fmt.Sprint(planned) {
				t.Errorf("%s %s: EvalOpts order %q, Planner order %q", name, src, pkg, planned)
			}
			if !strings.Contains(pkg[0], "<rare>") {
				t.Errorf("%s %s: plan starts from %q, want the <rare> pattern", name, src, pkg[0])
			}
		}
	}
}

// buildDisk bulk-loads ts into a new disk store.
func buildDisk(t testing.TB, ts []rdf.Triple) graph.Graph {
	t.Helper()
	ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	ids := make([][3]core.ID, len(ts))
	for i, tr := range ts {
		ids[i][0], ids[i][1], ids[i][2] = ds.Dictionary().EncodeTriple(tr)
	}
	if err := ds.BulkLoad(ids); err != nil {
		t.Fatal(err)
	}
	return graph.Disk(ds)
}

// buildBaseline loads ts into the flat triples table.
func buildBaseline(ts []rdf.Triple) graph.Graph {
	g := graph.Baseline(triplestore.New(nil))
	for _, tr := range ts {
		graph.AddTriple(g, tr)
	}
	return g
}
