package sparql

import (
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
)

// familyStore builds a small dataset exercising FILTER / OPTIONAL /
// UNION / ORDER BY semantics.
func familyStore(t *testing.T) graph.Graph {
	t.Helper()
	b := core.NewBuilder(nil)
	add := func(s, p, o rdf.Term) {
		if !b.AddTriple(rdf.T(s, p, o)) {
			t.Fatalf("AddTriple(%v %v %v) failed", s, p, o)
		}
	}
	ex := func(local string) rdf.Term { return rdf.NewIRI("http://example.org/" + local) }
	lit := rdf.NewLiteral

	add(ex("alice"), ex("age"), lit("42"))
	add(ex("bob"), ex("age"), lit("7"))
	add(ex("carol"), ex("age"), lit("30"))
	add(ex("alice"), ex("knows"), ex("bob"))
	add(ex("alice"), ex("knows"), ex("carol"))
	add(ex("bob"), ex("knows"), ex("carol"))
	add(ex("alice"), ex("email"), lit("alice@example.org"))
	add(ex("alice"), rdf.NewIRI(rdfTypeIRI), ex("Person"))
	add(ex("bob"), rdf.NewIRI(rdfTypeIRI), ex("Person"))
	add(ex("carol"), rdf.NewIRI(rdfTypeIRI), ex("Robot"))
	return graph.Memory(b.Build())
}

func names(res *Result, v string) []string {
	var out []string
	for _, row := range res.Rows {
		term, ok := row[v]
		if !ok {
			out = append(out, "(unbound)")
			continue
		}
		val := term.Value
		if i := strings.LastIndexByte(val, '/'); i >= 0 {
			val = val[i+1:]
		}
		out = append(out, val)
	}
	return out
}

func TestPrefixDeclarations(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?who WHERE { ex:alice ex:knows ?who }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestUndeclaredPrefixRejected(t *testing.T) {
	if _, err := Parse(`SELECT ?x WHERE { nope:alice ?p ?x }`); err == nil {
		t.Fatal("undeclared prefix accepted")
	}
}

func TestAKeywordExpandsToRDFType(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?x WHERE { ?x a ex:Person }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("a ex:Person rows = %d, want 2 (alice, bob)", len(res.Rows))
	}
}

func TestFilterNumericComparison(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?who WHERE { ?who ex:age ?age . FILTER (?age > 18) }`)
	if err != nil {
		t.Fatal(err)
	}
	res.SortRows()
	got := names(res, "who")
	if len(got) != 2 || got[0] != "alice" || got[1] != "carol" {
		t.Fatalf("adults = %v, want [alice carol]", got)
	}
}

func TestFilterNumericNotLexicographic(t *testing.T) {
	st := familyStore(t)
	// Lexicographically "7" > "42"; numerically 7 < 42. The filter must
	// compare numerically because both operands are numbers.
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?who WHERE { ?who ex:age ?age . FILTER (?age < 10) }`)
	if err != nil {
		t.Fatal(err)
	}
	got := names(res, "who")
	if len(got) != 1 || got[0] != "bob" {
		t.Fatalf("FILTER(age < 10) = %v, want [bob]", got)
	}
}

func TestFilterEqualityAndInequality(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?a ?b WHERE { ?a ex:knows ?b . FILTER (?b != ex:carol) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (alice knows bob)", len(res.Rows))
	}
	res2, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?a WHERE { ?a ex:knows ?b . FILTER (?b = ex:bob) }`)
	if err != nil {
		t.Fatal(err)
	}
	if got := names(res2, "a"); len(got) != 1 || got[0] != "alice" {
		t.Fatalf("= filter rows = %v", got)
	}
}

func TestFilterBetweenVariables(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?x ?y WHERE {
			?x ex:age ?ax . ?y ex:age ?ay . FILTER (?ax < ?ay)
		}`)
	if err != nil {
		t.Fatal(err)
	}
	// Pairs with strictly increasing ages: (bob,carol) (bob,alice) (carol,alice).
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
}

func TestFilterConstantsOnly(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?x WHERE { ?x ex:age ?a . FILTER (1 < 2) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("always-true filter rows = %d, want 3", len(res.Rows))
	}
	res, err = Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?x WHERE { ?x ex:age ?a . FILTER (2 < 1) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("always-false filter rows = %d, want 0", len(res.Rows))
	}
}

func TestOptionalBindsWhenPresent(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?who ?mail WHERE {
			?who ex:age ?age .
			OPTIONAL { ?who ex:email ?mail }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	bound := 0
	for _, row := range res.Rows {
		if _, ok := row["mail"]; ok {
			bound++
		}
	}
	if bound != 1 {
		t.Fatalf("rows with bound ?mail = %d, want 1 (only alice has email)", bound)
	}
}

func TestOptionalMultipleMatchesMultiplyRows(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?friend WHERE {
			ex:alice ex:age ?age .
			OPTIONAL { ex:alice ex:knows ?friend }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (one per known friend)", len(res.Rows))
	}
}

func TestOptionalWithUnknownConstantLeavesUnbound(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?who ?pet WHERE {
			?who ex:age ?age .
			OPTIONAL { ?who ex:hasPet ?pet }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for _, row := range res.Rows {
		if _, ok := row["pet"]; ok {
			t.Fatal("?pet bound although no hasPet triples exist")
		}
	}
}

func TestUnionCombinesBranches(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?x WHERE {
			{ ?x a ex:Person } UNION { ?x a ex:Robot }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("union rows = %d, want 3", len(res.Rows))
	}
}

func TestUnionWithSharedRequiredPattern(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT DISTINCT ?x WHERE {
			?x ex:age ?age .
			{ ?x ex:email ?m } UNION { ?x ex:knows ex:carol }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	// alice (email, and knows carol — DISTINCT collapses) and bob (knows carol).
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestUnionThreeAlternatives(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?x WHERE {
			{ ?x a ex:Person } UNION { ?x a ex:Robot } UNION { ?x ex:email ?m }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // alice, bob, carol, alice-by-email
		t.Fatalf("rows = %d, want 4", len(res.Rows))
	}
}

func TestOrderByAscendingNumeric(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?who ?age WHERE { ?who ex:age ?age } ORDER BY ?age`)
	if err != nil {
		t.Fatal(err)
	}
	got := names(res, "who")
	want := []string{"bob", "carol", "alice"} // 7, 30, 42 numerically
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ORDER BY ?age = %v, want %v", got, want)
		}
	}
}

func TestOrderByDescending(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?who WHERE { ?who ex:age ?age } ORDER BY DESC(?age)`)
	if err != nil {
		t.Fatal(err)
	}
	got := names(res, "who")
	want := []string{"alice", "carol", "bob"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ORDER BY DESC(?age) = %v, want %v", got, want)
		}
	}
}

func TestOrderByWithLimitAndOffset(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?who WHERE { ?who ex:age ?age } ORDER BY ?age LIMIT 1 OFFSET 1`)
	if err != nil {
		t.Fatal(err)
	}
	got := names(res, "who")
	if len(got) != 1 || got[0] != "carol" {
		t.Fatalf("middle row = %v, want [carol]", got)
	}
}

func TestOffsetWithoutOrder(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?who WHERE { ?who ex:age ?age } OFFSET 2`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(res.Rows))
	}
}

func TestOffsetBeyondResultSet(t *testing.T) {
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?who WHERE { ?who ex:age ?age } OFFSET 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatalf("rows = %d, want 0", len(res.Rows))
	}
}

func TestOrderByRejectsUnknownVariable(t *testing.T) {
	if _, err := Parse(`SELECT ?x WHERE { ?x ?p ?o } ORDER BY ?zzz`); err == nil {
		t.Fatal("ORDER BY with unknown variable accepted")
	}
}

func TestFilterRejectsUnknownVariable(t *testing.T) {
	if _, err := Parse(`SELECT ?x WHERE { ?x ?p ?o . FILTER (?zzz > 1) }`); err == nil {
		t.Fatal("FILTER with unknown variable accepted")
	}
}

func TestProjectionMayUseOptionalVars(t *testing.T) {
	q, err := Parse(`SELECT ?x ?m WHERE { ?x ?p ?o . OPTIONAL { ?x <email> ?m } }`)
	if err != nil {
		t.Fatal(err)
	}
	if !q.OptionalVars()["m"] {
		t.Fatal("?m not classified as optional")
	}
}

func TestParseFilterSyntaxErrors(t *testing.T) {
	bad := []string{
		`SELECT ?x WHERE { ?x ?p ?o . FILTER ?x > 1 }`,     // missing (
		`SELECT ?x WHERE { ?x ?p ?o . FILTER (?x >) }`,     // missing operand
		`SELECT ?x WHERE { ?x ?p ?o . FILTER (?x ?y ?z) }`, // no operator
		`SELECT ?x WHERE { ?x ?p ?o . FILTER (?x > 1 }`,    // missing )
		`SELECT ?x WHERE { { ?x ?p ?o } }`,                 // group without UNION
		`SELECT ?x WHERE { OPTIONAL { } ?x ?p ?o }`,        // empty optional
		`SELECT ?x WHERE { ?x ?p ?o } ORDER BY`,            // missing key
		`SELECT ?x WHERE { ?x ?p ?o } OFFSET x`,            // bad offset
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestFilterAppliedEarlyPrunes(t *testing.T) {
	// The filter references only ?age which is bound by the first
	// pattern; the second pattern multiplies rows. If the filter ran
	// only at emit time the result would be identical, so this is a
	// semantics check that early filtering does not over-prune.
	st := familyStore(t)
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT ?who ?friend WHERE {
			?who ex:age ?age .
			?who ex:knows ?friend .
			FILTER (?age >= 30)
		}`)
	if err != nil {
		t.Fatal(err)
	}
	// alice (42) knows bob and carol; carol (30) knows nobody.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
}

func TestDistinctAcrossUnionBranches(t *testing.T) {
	st := familyStore(t)
	// alice matches both branches; DISTINCT must collapse her.
	res, err := Exec(st, `
		PREFIX ex: <http://example.org/>
		SELECT DISTINCT ?x WHERE {
			{ ?x a ex:Person } UNION { ?x ex:email ?m }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2 (alice, bob)", len(res.Rows))
	}
}
