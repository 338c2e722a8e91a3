package sparql

import (
	"strconv"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
)

// catalogStore mimics the Barton BQ1 shape: resources of several types,
// with the Type property dominating.
func catalogStore(t *testing.T) graph.Graph {
	t.Helper()
	stb := core.NewBuilder(nil)
	typeIRI := rdf.NewIRI("http://ex/Type")
	add := func(s, o string) {
		stb.AddTriple(rdf.T(rdf.NewIRI("http://ex/"+s), typeIRI, rdf.NewIRI("http://ex/"+o)))
	}
	// 5 Texts, 3 Dates, 1 Person.
	for i := 0; i < 5; i++ {
		add("t"+strconv.Itoa(i), "Text")
	}
	for i := 0; i < 3; i++ {
		add("d"+strconv.Itoa(i), "Date")
	}
	add("p0", "Person")
	// Extra properties to ensure grouping only sees Type triples.
	stb.AddTriple(rdf.T(rdf.NewIRI("http://ex/t0"), rdf.NewIRI("http://ex/lang"), rdf.NewLiteral("French")))
	st := stb.Build()
	return graph.Memory(st)
}

func rowCount(t *testing.T, row Row, alias string) int {
	t.Helper()
	term, ok := row[alias]
	if !ok {
		t.Fatalf("alias ?%s unbound in row %v", alias, row)
	}
	n, err := strconv.Atoi(term.Value)
	if err != nil {
		t.Fatalf("alias ?%s = %q, not a number", alias, term.Value)
	}
	return n
}

// TestCountGroupByBQ1Shape is the paper's BQ1 as SPARQL: counts of each
// different type of resource in the store.
func TestCountGroupByBQ1Shape(t *testing.T) {
	st := catalogStore(t)
	res, err := Exec(st, `
		SELECT ?type (COUNT(?s) AS ?n) WHERE {
			?s <http://ex/Type> ?type
		} GROUP BY ?type ORDER BY DESC(?n)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("groups = %d, want 3", len(res.Rows))
	}
	wantTypes := []string{"http://ex/Text", "http://ex/Date", "http://ex/Person"}
	wantCounts := []int{5, 3, 1}
	for i := range wantTypes {
		if got := res.Rows[i]["type"].Value; got != wantTypes[i] {
			t.Fatalf("row %d type = %q, want %q", i, got, wantTypes[i])
		}
		if got := rowCount(t, res.Rows[i], "n"); got != wantCounts[i] {
			t.Fatalf("row %d count = %d, want %d", i, got, wantCounts[i])
		}
	}
	if got := res.Vars; len(got) != 2 || got[0] != "type" || got[1] != "n" {
		t.Fatalf("Vars = %v", got)
	}
}

func TestCountStar(t *testing.T) {
	st := catalogStore(t)
	res, err := Exec(st, `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if got := rowCount(t, res.Rows[0], "n"); got != 10 {
		t.Fatalf("COUNT(*) = %d, want 10", got)
	}
}

func TestCountDistinct(t *testing.T) {
	st := catalogStore(t)
	res, err := Exec(st, `
		SELECT (COUNT(DISTINCT ?type) AS ?kinds) WHERE {
			?s <http://ex/Type> ?type
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowCount(t, res.Rows[0], "kinds"); got != 3 {
		t.Fatalf("COUNT(DISTINCT) = %d, want 3", got)
	}
}

func TestCountWithoutGroupByIsSingleGroup(t *testing.T) {
	st := catalogStore(t)
	res, err := Exec(st, `
		SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://ex/Type> <http://ex/Text> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || rowCount(t, res.Rows[0], "n") != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCountOptionalSkipsUnbound(t *testing.T) {
	st := catalogStore(t)
	// Only t0 has a lang triple; COUNT(?l) must count bound values only.
	res, err := Exec(st, `
		SELECT (COUNT(?l) AS ?n) WHERE {
			?s <http://ex/Type> <http://ex/Text> .
			OPTIONAL { ?s <http://ex/lang> ?l }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowCount(t, res.Rows[0], "n"); got != 1 {
		t.Fatalf("COUNT over optional = %d, want 1", got)
	}
}

func TestGroupByMultipleKeys(t *testing.T) {
	stb := core.NewBuilder(nil)
	p1, p2 := rdf.NewIRI("p1"), rdf.NewIRI("p2")
	for i := 0; i < 6; i++ {
		s := rdf.NewIRI("s" + strconv.Itoa(i%2)) // two subjects
		stb.AddTriple(rdf.T(s, p1, rdf.NewIRI("o"+strconv.Itoa(i))))
		stb.AddTriple(rdf.T(s, p2, rdf.NewIRI("x")))
	}
	st := stb.Build()
	res, err := Exec(graph.Memory(st), `
		SELECT ?s ?p (COUNT(?o) AS ?n) WHERE { ?s ?p ?o }
		GROUP BY ?s ?p ORDER BY ?s ?p`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // 2 subjects × 2 predicates
		t.Fatalf("groups = %d, want 4", len(res.Rows))
	}
	// Each subject has 3 p1 objects and 1 distinct p2 triple.
	for _, row := range res.Rows {
		n := rowCount(t, row, "n")
		if row["p"].Value == "p1" && n != 3 {
			t.Fatalf("p1 count = %d, want 3", n)
		}
		if row["p"].Value == "p2" && n != 1 {
			t.Fatalf("p2 count = %d, want 1", n)
		}
	}
}

func TestAggregateWithLimit(t *testing.T) {
	st := catalogStore(t)
	res, err := Exec(st, `
		SELECT ?type (COUNT(?s) AS ?n) WHERE { ?s <http://ex/Type> ?type }
		GROUP BY ?type ORDER BY DESC(?n) LIMIT 1`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["type"].Value != "http://ex/Text" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAggregateSyntaxErrors(t *testing.T) {
	bad := []string{
		`SELECT (SUM(?x) AS ?n) WHERE { ?s ?p ?x }`,               // unsupported func
		`SELECT (COUNT(?x) AS ?n) WHERE { ?s ?p ?o }`,             // ?x not in pattern
		`SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s ?p ?o }`,          // ?s not grouped
		`SELECT (COUNT(?o) AS ?p) WHERE { ?s ?p ?o }`,             // alias collides
		`SELECT ?s WHERE { ?s ?p ?o } GROUP BY ?s`,                // GROUP BY without aggregate
		`SELECT (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?z`, // unknown group var
		`SELECT (COUNT(?o) ?n) WHERE { ?s ?p ?o }`,                // missing AS
		`SELECT (COUNT(?o) AS ?n WHERE { ?s ?p ?o }`,              // missing ')'
		`SELECT (COUNT(?o) AS ?n) WHERE { ?s ?p ?o } ORDER BY ?o`, // order by non-key
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestAggregateOverUnion(t *testing.T) {
	st := catalogStore(t)
	res, err := Exec(st, `
		SELECT (COUNT(?s) AS ?n) WHERE {
			{ ?s <http://ex/Type> <http://ex/Text> } UNION { ?s <http://ex/Type> <http://ex/Date> }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rowCount(t, res.Rows[0], "n"); got != 8 {
		t.Fatalf("union count = %d, want 8", got)
	}
}
