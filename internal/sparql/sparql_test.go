package sparql

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
)

// evalWorkers evaluates q over g without statistics under an explicit
// intra-query worker budget.
func evalWorkers(g graph.Graph, q *Query, workers int) (*Result, error) {
	return EvalOpts(context.Background(), g, q, EvalOptions{Workers: workers})
}

// buildMemory bulk-builds ts into a sealed memory graph.
func buildMemory(ts []rdf.Triple) graph.Graph {
	b := core.NewBuilder(nil)
	for _, tr := range ts {
		b.AddTriple(tr)
	}
	return graph.Memory(b.Build())
}

// liveMemory returns a writable memory graph over main: a delta overlay
// without a WAL.
func liveMemory(t testing.TB, main graph.Graph) *delta.Overlay {
	t.Helper()
	ov, err := delta.New(main, delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ov
}

func TestParseBasic(t *testing.T) {
	q, err := Parse(`SELECT ?x ?y WHERE { ?x <knows> ?y . ?y <age> "42" }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !reflect.DeepEqual(q.Vars, []string{"x", "y"}) {
		t.Errorf("Vars = %v", q.Vars)
	}
	if len(q.Patterns) != 2 {
		t.Fatalf("Patterns = %d, want 2", len(q.Patterns))
	}
	if q.Patterns[0].P.RDF.Value != "knows" {
		t.Errorf("pattern 0 predicate = %v", q.Patterns[0].P)
	}
	if q.Patterns[1].O.RDF.Kind != rdf.Literal || q.Patterns[1].O.RDF.Value != "42" {
		t.Errorf("pattern 1 object = %v", q.Patterns[1].O)
	}
	if q.Distinct || q.Limit != 0 {
		t.Error("unexpected DISTINCT/LIMIT")
	}
}

func TestParseDistinctStarLimit(t *testing.T) {
	q, err := Parse(`select distinct * where { ?s ?p ?o . } limit 7`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !q.Distinct || q.Limit != 7 || len(q.Vars) != 0 {
		t.Errorf("got %+v", q)
	}
	if got := q.AllVars(); !reflect.DeepEqual(got, []string{"s", "p", "o"}) {
		t.Errorf("AllVars = %v", got)
	}
}

func TestParseBlankAndEscapes(t *testing.T) {
	q, err := Parse(`SELECT ?x WHERE { _:b1 <p> ?x . ?x <q> "a\"b\n" }`)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if q.Patterns[0].S.RDF != rdf.NewBlank("b1") {
		t.Errorf("blank subject = %v", q.Patterns[0].S.RDF)
	}
	if q.Patterns[1].O.RDF.Value != "a\"b\n" {
		t.Errorf("escaped literal = %q", q.Patterns[1].O.RDF.Value)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		``,
		`SELECT`,
		`SELECT WHERE { ?a <b> ?c }`,
		`SELECT ?x { ?x <p> ?y }`,               // missing WHERE
		`SELECT ?x WHERE { }`,                   // empty BGP
		`SELECT ?x WHERE { ?x <p> }`,            // short pattern
		`SELECT ?x WHERE { ?x <p ?y }`,          // unterminated IRI
		`SELECT ?x WHERE { ?x <p> "unte }`,      // unterminated literal
		`SELECT ?x WHERE { ?x <p> ?y } LIMIT x`, // bad limit
		`SELECT ?z WHERE { ?x <p> ?y }`,         // projection of unknown var
		`SELECT ?x WHERE { ?x <p> ?y } trailing`,
		`SELECT ? WHERE { ?x <p> ?y }`,      // empty var
		`SELECT ?x WHERE { ?x <p> "a\qb" }`, // bad escape
		`SELECT ?x WHERE { _: <p> ?x }`,     // empty blank label
		`SELECT ?x WHERE { ?x <p> ?y ?z }`,  // no separator; 4 terms then }
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func iri(s string) rdf.Term { return rdf.NewIRI(s) }

// academicStore loads the Figure 1 sample data from the paper.
func academicStore(t *testing.T) graph.Graph {
	t.Helper()
	stb := core.NewBuilder(nil)
	facts := [][3]string{
		{"ID1", "type", "FullProfessor"},
		{"ID1", "teacherOf", "AI"},
		{"ID1", "bachelorFrom", "MIT"},
		{"ID1", "mastersFrom", "Cambridge"},
		{"ID1", "phdFrom", "Yale"},
		{"ID2", "type", "AssocProfessor"},
		{"ID2", "worksFor", "MIT"},
		{"ID2", "teacherOf", "DataBases"},
		{"ID2", "bachelorsFrom", "Yale"},
		{"ID2", "phdFrom", "Stanford"},
		{"ID3", "type", "GradStudent"},
		{"ID3", "advisor", "ID2"},
		{"ID3", "teachingAssist", "AI"},
		{"ID3", "bachelorsFrom", "Stanford"},
		{"ID3", "mastersFrom", "Princeton"},
		{"ID4", "type", "GradStudent"},
		{"ID4", "advisor", "ID1"},
		{"ID4", "takesCourse", "DataBases"},
		{"ID4", "bachelorsFrom", "Columbia"},
	}
	for _, f := range facts {
		stb.AddTriple(rdf.T(iri(f[0]), iri(f[1]), iri(f[2])))
	}
	st := stb.Build()
	return graph.Memory(st)
}

// TestFigure1Queries runs the two SQL queries of paper Figure 1(b),
// expressed in our SPARQL subset.
func TestFigure1Queries(t *testing.T) {
	st := academicStore(t)

	// "What relationship does ID2 have to MIT?"
	res, err := Exec(st, `SELECT ?property WHERE { <ID2> ?property <MIT> }`)
	if err != nil {
		t.Fatalf("query 1: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["property"] != iri("worksFor") {
		t.Errorf("query 1 rows = %v, want worksFor", res.Rows)
	}

	// "People with the same relationship to Stanford as ID1 has to Yale."
	res, err = Exec(st, `
		SELECT ?person WHERE {
			<ID1> ?property <Yale> .
			?person ?property <Stanford>
		}`)
	if err != nil {
		t.Fatalf("query 2: %v", err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["person"] != iri("ID2") {
		t.Errorf("query 2 rows = %v, want ID2 (phdFrom)", res.Rows)
	}
}

func TestEvalJoinChain(t *testing.T) {
	st := academicStore(t)
	// Advisees of people who work for MIT.
	res, err := Exec(st, `
		SELECT ?student ?prof WHERE {
			?student <advisor> ?prof .
			?prof <worksFor> <MIT>
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["student"] != iri("ID3") || res.Rows[0]["prof"] != iri("ID2") {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestEvalDistinctAndLimit(t *testing.T) {
	st := academicStore(t)
	// Every subject having a type, with duplicates possible via ?p.
	res, err := Exec(st, `SELECT DISTINCT ?s WHERE { ?s ?p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Errorf("DISTINCT ?s rows = %d, want 4", len(res.Rows))
	}

	res, err = Exec(st, `SELECT ?s WHERE { ?s ?p ?o } LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Errorf("LIMIT 5 rows = %d", len(res.Rows))
	}
}

func TestEvalUnknownConstant(t *testing.T) {
	st := academicStore(t)
	res, err := Exec(st, `SELECT ?x WHERE { ?x <type> <Unicorn> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("rows = %v, want none", res.Rows)
	}
}

func TestEvalRepeatedVariableInPattern(t *testing.T) {
	stb := core.NewBuilder(nil)
	stb.AddTriple(rdf.T(iri("a"), iri("loves"), iri("a")))
	stb.AddTriple(rdf.T(iri("a"), iri("loves"), iri("b")))
	st := stb.Build()
	res, err := Exec(graph.Memory(st), `SELECT ?x WHERE { ?x <loves> ?x }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["x"] != iri("a") {
		t.Errorf("rows = %v, want only a", res.Rows)
	}
}

func TestEvalCartesianProduct(t *testing.T) {
	stb := core.NewBuilder(nil)
	stb.AddTriple(rdf.T(iri("a"), iri("p"), iri("b")))
	stb.AddTriple(rdf.T(iri("c"), iri("q"), iri("d")))
	st := stb.Build()
	res, err := Exec(graph.Memory(st), `SELECT ?x ?y WHERE { ?x <p> ?o1 . ?y <q> ?o2 }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0]["x"] != iri("a") || res.Rows[0]["y"] != iri("c") {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestEvalMatchesNaiveJoin(t *testing.T) {
	st := academicStore(t)
	// Pairs of people with a common bachelors university.
	res, err := Exec(st, `
		SELECT ?a ?b WHERE {
			?a <bachelorsFrom> ?u .
			?b <bachelorsFrom> ?u
		}`)
	if err != nil {
		t.Fatal(err)
	}
	// Naive: ID2,ID3,ID4 have bachelorsFrom (Yale, Stanford, Columbia) —
	// all distinct, so only reflexive pairs.
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 reflexive pairs: %v", len(res.Rows), res.Rows)
	}
	for _, row := range res.Rows {
		if row["a"] != row["b"] {
			t.Errorf("non-reflexive pair %v", row)
		}
	}
}

func TestSortRows(t *testing.T) {
	st := academicStore(t)
	res, err := Exec(st, `SELECT ?s WHERE { ?s <type> <GradStudent> }`)
	if err != nil {
		t.Fatal(err)
	}
	res.SortRows()
	if len(res.Rows) != 2 || res.Rows[0]["s"] != iri("ID3") || res.Rows[1]["s"] != iri("ID4") {
		t.Errorf("sorted rows = %v", res.Rows)
	}
}

func TestPatternAndTermString(t *testing.T) {
	p := Pattern{S: V("x"), P: C(iri("p")), O: C(rdf.NewLiteral("v"))}
	if got := p.String(); got != `?x <p> "v" .` {
		t.Errorf("Pattern.String = %q", got)
	}
	if !strings.Contains(p.String(), "?x") {
		t.Error("missing var in pattern string")
	}
	if got := p.Vars(); !reflect.DeepEqual(got, []string{"x"}) {
		t.Errorf("Vars = %v", got)
	}
}

func TestSyntaxErrorMessage(t *testing.T) {
	_, err := Parse(`SELECT ?x WHERE { ?x <p ?y }`)
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("error type %T, want *SyntaxError", err)
	}
	if se.Offset <= 0 || !strings.Contains(se.Error(), "IRI") {
		t.Errorf("unhelpful error: %v", se)
	}
}
