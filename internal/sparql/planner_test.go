package sparql

import (
	"fmt"
	"math/rand"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/graph"
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
		got, err := pl.Exec(src)
		if err != nil {
			t.Fatalf("Planner.Exec(%q): %v", src, err)
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

	order, _ := planOrderJoin(sum, pats, nil)
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

	order, _ := planOrderJoin(sum, pats, nil)
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
	res, err := pl.Exec(`
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
