package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/graph"
	"hexastore/internal/lubm"
	"hexastore/internal/obs"
	"hexastore/internal/rdf"
	"hexastore/internal/stats"
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
	sum, err := stats.BuildGraph(st)
	if err != nil {
		t.Fatal(err)
	}
	dict := st.Dictionary()
	commonID, _ := dict.Lookup(rdf.NewIRI("common"))
	rareID, _ := dict.Lookup(rdf.NewIRI("rare"))

	pats := []idPattern{
		{pat: Pattern{S: V("s"), P: C(rdf.NewIRI("common")), O: V("o")}, resolved: true},
		{pat: Pattern{S: V("s"), P: C(rdf.NewIRI("rare")), O: V("x")}, resolved: true},
	}
	pats[0].ids[1] = commonID
	pats[1].ids[1] = rareID

	order, _ := planOrderJoin(sum, pats)
	if order[0] != 1 {
		t.Fatalf("planner ordered common predicate first: order = %v", order)
	}
}

func TestPlanOrderStatsAvoidsCartesianProduct(t *testing.T) {
	st := skewedStore(t)
	sum, err := stats.BuildGraph(st)
	if err != nil {
		t.Fatal(err)
	}
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

	order, _ := planOrderJoin(sum, pats)
	if order[0] == 1 {
		// Both rare patterns are equivalent starts; fine either way.
		t.Skip("planner started with the disconnected twin; acceptable")
	}
	if order[1] != 2 {
		t.Fatalf("planner picked disconnected pattern before connected one: %v", order)
	}
}

func TestPlannerRefresh(t *testing.T) {
	stb := core.NewBuilder(nil)
	stb.AddTriple(rdf.T(rdf.NewIRI("a"), rdf.NewIRI("p"), rdf.NewIRI("b")))
	ov, err := delta.New(graph.Memory(stb.Build()), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pl := NewPlanner(ov)
	if pl.Stats().Triples != 1 {
		t.Fatalf("Triples = %d, want 1", pl.Stats().Triples)
	}
	if _, err := graph.AddTriple(ov, rdf.T(rdf.NewIRI("c"), rdf.NewIRI("p"), rdf.NewIRI("d"))); err != nil {
		t.Fatal(err)
	}
	pl.Refresh()
	if pl.Stats().Triples != 2 {
		t.Fatalf("after Refresh Triples = %d, want 2", pl.Stats().Triples)
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

// planOrderOf runs EXPLAIN on q through eval and returns the plan span's
// pattern order and the trace.
func planOrderOf(t *testing.T, eval func(*Query, EvalOptions) (*Result, error)) ([]string, *obs.Trace) {
	t.Helper()
	q, err := Parse(restrictedChain)
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

// TestNoStatsStartsMostBound checks the statistics-free plan: without a
// summary, and with an empty one, every estimate ties, so the order is
// connected and most-bound-first — it starts from the two-constant
// pattern, not from the first pattern in the text.
func TestNoStatsStartsMostBound(t *testing.T) {
	b := core.NewBuilder(nil)
	lubm.Config{Universities: 2, Seed: 1, DeptsPerUniv: 3, UndergradPerDept: 10, GradPerDept: 5}.Generate(func(tr rdf.Triple) bool {
		b.AddTriple(tr)
		return true
	})
	g := graph.Memory(b.Build())
	want := []string{"subOrganizationOf", "memberOf", "advisor", "teacherOf"}
	check := func(name string, order []string) {
		t.Helper()
		if len(order) != len(want) {
			t.Fatalf("%s: order %q, want %d steps", name, order, len(want))
		}
		for i, p := range want {
			if !strings.Contains(order[i], "<lubm:"+p+">") {
				t.Errorf("%s: step %d is %q, want the %s pattern (order %q)", name, i+1, order[i], p, order)
			}
		}
	}

	order, tr := planOrderOf(t, func(q *Query, opt EvalOptions) (*Result, error) {
		return EvalOpts(context.Background(), g, q, opt)
	})
	check("EvalOpts", order)
	if v, _ := findSpans(tr, "plan")[0].Attr("stats"); v != "none" {
		t.Errorf("EvalOpts plan stats = %v, want none", v)
	}
	for _, sp := range findSpans(tr, "step[") {
		if est := attrInt(t, sp, "estRows"); est != -1 {
			t.Errorf("EvalOpts %s: estRows = %d, want -1 without statistics", sp.Name(), est)
		}
	}

	pl := NewPlanner(g)
	pl.sum.Store(&stats.Summary{})
	order, tr = planOrderOf(t, func(q *Query, opt EvalOptions) (*Result, error) {
		return pl.EvalOpts(context.Background(), q, opt)
	})
	check("empty-summary Planner", order)
	if v, _ := findSpans(tr, "plan")[0].Attr("stats"); v != "summary" {
		t.Errorf("Planner plan stats = %v, want summary", v)
	}
}
