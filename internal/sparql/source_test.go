package sparql

import (
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
)

// TestExecOverDiskStore runs the SPARQL engine against the
// disk-based Hexastore: the disk store satisfies graph.Graph directly, so
// every query feature (joins, filters, optionals, aggregates) works on
// the persistent substrate too.
func TestExecOverDiskStore(t *testing.T) {
	st, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ex := func(l string) rdf.Term { return rdf.NewIRI("http://ex/" + l) }
	for _, tr := range []rdf.Triple{
		rdf.T(ex("alice"), ex("knows"), ex("bob")),
		rdf.T(ex("bob"), ex("knows"), ex("carol")),
		rdf.T(ex("alice"), ex("age"), rdf.NewLiteral("42")),
		rdf.T(ex("bob"), ex("age"), rdf.NewLiteral("7")),
	} {
		if _, err := st.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
	}

	res, err := Exec(st, `
		PREFIX ex: <http://ex/>
		SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("join rows = %d, want 1", len(res.Rows))
	}
	if res.Rows[0]["x"].Value != "http://ex/alice" || res.Rows[0]["z"].Value != "http://ex/carol" {
		t.Fatalf("row = %v", res.Rows[0])
	}

	res, err = Exec(st, `
		PREFIX ex: <http://ex/>
		SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?p`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d, want 2 (age, knows)", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row["n"].Value != "2" {
			t.Fatalf("group %v count = %q, want 2", row["p"], row["n"].Value)
		}
	}

	res, err = Exec(st, `
		PREFIX ex: <http://ex/>
		SELECT ?who WHERE { ?who ex:age ?a . FILTER (?a > 18) }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["who"].Value != "http://ex/alice" {
		t.Fatalf("filter rows = %v", res.Rows)
	}
}

// erroringSource wraps a graph but fails Match after a few calls,
// verifying that I/O errors surface from query evaluation.
type erroringSource struct {
	graph.Graph
	calls int
}

func (e *erroringSource) Match(s, p, o core.ID, fn func(s, p, o core.ID) bool) error {
	e.calls++
	if e.calls > 1 {
		return errBoom
	}
	return e.Graph.Match(s, p, o, fn)
}

var errBoom = &mockError{}

type mockError struct{}

func (*mockError) Error() string { return "boom" }

func TestExecPropagatesMatchErrors(t *testing.T) {
	st := familyStore(t)
	src := &erroringSource{Graph: st}
	_, err := Exec(src, `
		PREFIX ex: <http://example.org/>
		SELECT ?a ?b WHERE { ?a ex:knows ?x . ?x ex:knows ?b }`)
	if err == nil {
		t.Fatal("Match error not propagated")
	}
}
