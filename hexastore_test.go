package hexastore_test

import (
	"bytes"
	"strings"
	"testing"

	"hexastore"
)

func TestFacadeQuickstart(t *testing.T) {
	b := hexastore.NewBuilder(nil)
	b.AddTriple(hexastore.T(
		hexastore.IRI("alice"), hexastore.IRI("knows"), hexastore.IRI("bob")))
	b.AddTriple(hexastore.T(
		hexastore.IRI("bob"), hexastore.IRI("knows"), hexastore.IRI("carol")))

	res, err := hexastore.Query(b.Build(), `SELECT ?who WHERE { <alice> <knows> ?who }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["who"] != hexastore.IRI("bob") {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestLoadAndWriteNTriples(t *testing.T) {
	src := "<a> <p> <b> .\n<b> <p> \"val\" .\n"
	st, err := hexastore.LoadNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st.Len())
	}
	var buf bytes.Buffer
	if err := hexastore.WriteNTriples(hexastore.AsGraph(st), &buf); err != nil {
		t.Fatal(err)
	}
	st2, err := hexastore.LoadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 2 {
		t.Errorf("round trip Len = %d, want 2", st2.Len())
	}
}

func TestLoadNTriplesError(t *testing.T) {
	if _, err := hexastore.LoadNTriples(strings.NewReader("garbage line\n")); err == nil {
		t.Error("LoadNTriples accepted garbage")
	}
}

func TestFacadeSnapshotRestore(t *testing.T) {
	b := hexastore.NewBuilder(nil)
	b.AddTriple(hexastore.T(hexastore.IRI("x"), hexastore.IRI("y"), hexastore.Literal("z")))
	st := b.Build()
	var buf bytes.Buffer
	if err := st.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := hexastore.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Len() != 1 {
		t.Errorf("restored Len = %d", st2.Len())
	}
}

func TestFacadeEngineAndPatterns(t *testing.T) {
	b := hexastore.NewBuilder(nil)
	b.AddTriple(hexastore.T(hexastore.IRI("s"), hexastore.IRI("p"), hexastore.IRI("o1")))
	b.AddTriple(hexastore.T(hexastore.IRI("s"), hexastore.IRI("p"), hexastore.IRI("o2")))
	st := b.Build()

	eng := hexastore.NewEngine(st)
	s, _ := st.Dictionary().Lookup(hexastore.IRI("s"))
	if got, err := eng.Count(hexastore.Pattern{S: s}); err != nil || got != 2 {
		t.Errorf("Count(s bound) = %d, %v, want 2", got, err)
	}

	stats := st.Stats()
	if stats.Triples != 2 || stats.ExpansionFactor() <= 0 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestFacadeDictionarySharing(t *testing.T) {
	dict := hexastore.NewDictionary()
	a := hexastore.NewBuilder(dict)
	b := hexastore.NewBuilder(dict)
	a.AddTriple(hexastore.T(hexastore.IRI("x"), hexastore.IRI("p"), hexastore.IRI("y")))
	b.AddTriple(hexastore.T(hexastore.IRI("x"), hexastore.IRI("q"), hexastore.IRI("z")))
	sa, sb := a.Build(), b.Build()
	x, _ := dict.Lookup(hexastore.IRI("x"))
	if sa.Dictionary() != dict || sb.Dictionary() != dict ||
		sa.Count(x, hexastore.None, hexastore.None) != 1 || sb.Count(x, hexastore.None, hexastore.None) != 1 {
		t.Error("stores built on a shared dictionary do not share the subject's id")
	}
}
