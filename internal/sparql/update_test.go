package sparql

import (
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
)

func TestParseUpdateInsertData(t *testing.T) {
	u, err := ParseUpdate(`
		PREFIX ex: <http://ex/>
		INSERT DATA { ex:a ex:p ex:b . ex:a ex:q "lit" }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Ops) != 1 || u.Ops[0].Delete {
		t.Fatalf("ops = %+v", u.Ops)
	}
	if len(u.Ops[0].Triples) != 2 {
		t.Fatalf("triples = %d, want 2", len(u.Ops[0].Triples))
	}
	if got := u.Ops[0].Triples[0].Subject; got != rdf.NewIRI("http://ex/a") {
		t.Errorf("subject = %v", got)
	}
	if got := u.Ops[0].Triples[1].Object; got != rdf.NewLiteral("lit") {
		t.Errorf("object = %v", got)
	}
}

func TestParseUpdateMultipleOps(t *testing.T) {
	u, err := ParseUpdate(`
		PREFIX ex: <http://ex/>
		INSERT DATA { ex:a ex:p ex:b } ;
		DELETE DATA { ex:c ex:p ex:d . } ;
		insert data { ex:e a ex:Thing } ;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(u.Ops))
	}
	if u.Ops[0].Delete || !u.Ops[1].Delete || u.Ops[2].Delete {
		t.Fatalf("op kinds = %+v", u.Ops)
	}
	// 'a' expands to rdf:type inside DATA blocks too.
	if got := u.Ops[2].Triples[0].Predicate; got != rdf.NewIRI(rdfTypeIRI) {
		t.Errorf("predicate = %v", got)
	}
}

func TestParseUpdateEmptyData(t *testing.T) {
	u, err := ParseUpdate(`INSERT DATA { }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Ops) != 1 || len(u.Ops[0].Triples) != 0 {
		t.Fatalf("ops = %+v", u.Ops)
	}
}

func TestParseUpdateErrors(t *testing.T) {
	bad := []string{
		``,
		`INSERT { <a> <p> <b> }`,                 // missing DATA
		`INSERT DATA { ?v <p> <b> }`,             // variable in DATA
		`INSERT DATA { <a> <p> }`,                // short triple
		`INSERT DATA { <a> <p> <b> } trailing`,   // junk after op
		`DELETE DATA { <a> <p> <b> } INSERT`,     // missing ';'
		`SELECT ?s WHERE { ?s ?p ?o }`,           // a query, not an update
		`INSERT DATA { ex:a ex:p ex:b }`,         // undeclared prefix
		`INSERT DATA { <a> <p> <b> } ; ; DELETE`, // stray ';'
		`INSERT DATA { "lit" <p> <o> }`,          // literal subject
		`INSERT DATA { <a> "lit" <o> }`,          // literal predicate
		`INSERT DATA { <a> _:b <o> }`,            // blank-node predicate
	}
	for _, src := range bad {
		if _, err := ParseUpdate(src); err == nil {
			t.Errorf("ParseUpdate(%q) succeeded, want error", src)
		}
	}
}

func TestExecUpdateRoundTrip(t *testing.T) {
	g := liveMemory(t, graph.Memory(core.New()))
	res, err := ExecUpdate(g, `
		PREFIX ex: <http://ex/>
		INSERT DATA { ex:a ex:p ex:b . ex:a ex:p ex:c }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 2 || res.Deleted != 0 {
		t.Fatalf("res = %+v", res)
	}

	// Duplicate insert counts nothing.
	res, err = ExecUpdate(g, `PREFIX ex: <http://ex/> INSERT DATA { ex:a ex:p ex:b }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 0 {
		t.Fatalf("duplicate insert counted: %+v", res)
	}

	sel, err := Exec(g, `PREFIX ex: <http://ex/> SELECT ?o WHERE { ex:a ex:p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(sel.Rows))
	}

	// Delete one present and one absent triple.
	res, err = ExecUpdate(g, `
		PREFIX ex: <http://ex/>
		DELETE DATA { ex:a ex:p ex:b . ex:a ex:p ex:zzz }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deleted != 1 {
		t.Fatalf("deleted = %d, want 1", res.Deleted)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestEvalUpdateOrderWithinRequest(t *testing.T) {
	// Insert then delete of the same triple in one request leaves it
	// absent: operations apply in order.
	g := liveMemory(t, graph.Memory(core.New()))
	res, err := ExecUpdate(g, `
		PREFIX ex: <http://ex/>
		INSERT DATA { ex:x ex:p ex:y } ;
		DELETE DATA { ex:x ex:p ex:y }`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inserted != 1 || res.Deleted != 1 || g.Len() != 0 {
		t.Fatalf("res = %+v, len = %d", res, g.Len())
	}
}
