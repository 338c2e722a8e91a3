package hexastore_test

import (
	"strings"
	"sync"
	"testing"

	"hexastore"
)

func TestLoadTurtleFacade(t *testing.T) {
	src := `
		@prefix ex: <http://ex/> .
		ex:alice ex:knows ex:bob, ex:carol ;
		         a ex:Person .`
	st, err := hexastore.LoadTurtle(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != 3 {
		t.Fatalf("Len = %d, want 3", st.Len())
	}
	res, err := hexastore.Query(st, `
		PREFIX ex: <http://ex/>
		SELECT ?who WHERE { ex:alice ex:knows ?who } ORDER BY ?who`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	if res.Rows[0]["who"].Value != "http://ex/bob" {
		t.Fatalf("first row = %v", res.Rows[0])
	}
}

func TestLoadTurtleError(t *testing.T) {
	if _, err := hexastore.LoadTurtle(strings.NewReader("zzz:a zzz:b zzz:c .")); err == nil {
		t.Fatal("LoadTurtle of undeclared prefix succeeded")
	}
}

func TestParseTurtleFacade(t *testing.T) {
	ts, err := hexastore.ParseTurtle(`<a> <b> <c> .`)
	if err != nil || len(ts) != 1 {
		t.Fatalf("ParseTurtle = (%v, %v)", ts, err)
	}
}

// TestPlannerFacade runs a join through DB.Query, which orders it with
// the handle's statistics-driven planner.
func TestPlannerFacade(t *testing.T) {
	db, err := hexastore.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, tr := range []hexastore.Triple{
		hexastore.T(hexastore.IRI("a"), hexastore.IRI("p"), hexastore.IRI("b")),
		hexastore.T(hexastore.IRI("b"), hexastore.IRI("p"), hexastore.IRI("c")),
	} {
		if _, err := db.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Query(`SELECT ?x ?z WHERE { ?x <p> ?y . ?y <p> ?z }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (a-b-c chain)", len(res.Rows))
	}
	if res.Rows[0]["x"].Value != "a" || res.Rows[0]["z"].Value != "c" {
		t.Fatalf("row = %v", res.Rows[0])
	}
}

// TestConcurrentReadersAndWriters exercises the in-memory handle's
// concurrency contract: parallel readers with concurrent writers must
// not race (run with -race) and every read must observe a consistent
// snapshot size (never more than the number of triples ever added).
func TestConcurrentReadersAndWriters(t *testing.T) {
	st, err := hexastore.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const writers, readers, n = 2, 4, 500

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := st.Add(hexastore.ID(w*n+i+1), hexastore.ID(i%7+1), hexastore.ID(i%11+1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				cnt, err := st.Count(hexastore.None, hexastore.ID(i%7+1), hexastore.None)
				if err != nil || cnt < 0 || cnt > writers*n {
					t.Errorf("Count out of range: %d", cnt)
					return
				}
				st.Match(hexastore.None, 1, hexastore.None, func(_, _, _ hexastore.ID) bool {
					return true
				})
			}
		}()
	}
	wg.Wait()
	if st.Len() != writers*n {
		t.Fatalf("Len = %d, want %d", st.Len(), writers*n)
	}
}

func TestConcurrentSPARQLQueries(t *testing.T) {
	b := hexastore.NewBuilder(nil)
	for i := 1; i <= 100; i++ {
		b.Add(hexastore.ID(i), 101, hexastore.ID(i%10+200))
	}
	st := b.Build()
	// The dictionary is empty of these raw ids' terms, so query through
	// pattern matching concurrently instead.
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n := st.Count(hexastore.None, 101, hexastore.None)
				if n != 100 {
					t.Errorf("Count = %d, want 100", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestWriteTurtleFacadeRoundTrip(t *testing.T) {
	src := `
		@prefix ex: <http://ex/> .
		ex:alice ex:knows ex:bob, ex:carol ; a ex:Person .
		ex:bob ex:age 30 .`
	st, err := hexastore.LoadTurtle(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := hexastore.WriteTurtle(hexastore.AsGraph(st), &sb, map[string]string{"ex": "http://ex/"}); err != nil {
		t.Fatal(err)
	}
	st2, err := hexastore.LoadTurtle(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	if st2.Len() != st.Len() {
		t.Fatalf("round trip %d -> %d triples\n%s", st.Len(), st2.Len(), sb.String())
	}
}
