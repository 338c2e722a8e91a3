package hexastore_test

import (
	"strings"
	"sync"
	"testing"

	"hexastore"
	"hexastore/internal/core"
	"hexastore/internal/graph"
)

func TestOpenMemoryDefault(t *testing.T) {
	db, err := hexastore.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if _, err := db.AddTriple(hexastore.T(
		hexastore.IRI("alice"), hexastore.IRI("knows"), hexastore.IRI("bob"))); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(`SELECT ?who WHERE { <alice> <knows> ?who }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["who"] != hexastore.IRI("bob") {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOpenUpdateRoundTrip(t *testing.T) {
	for _, opts := range map[string][]hexastore.Option{
		"memory":   nil,
		"baseline": {hexastore.WithBaseline()},
		"disk":     {hexastore.WithDisk(t.TempDir())},
	} {
		db, err := hexastore.Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.Update(`
			PREFIX ex: <http://ex/>
			INSERT DATA { ex:a ex:p ex:b . ex:a ex:p ex:c } ;
			DELETE DATA { ex:a ex:p ex:b }`)
		if err != nil {
			t.Fatal(err)
		}
		if res.Inserted != 2 || res.Deleted != 1 {
			t.Fatalf("update result = %+v", res)
		}
		sel, err := db.Query(`PREFIX ex: <http://ex/> SELECT ?o WHERE { ex:a ex:p ?o }`)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel.Rows) != 1 || sel.Rows[0]["o"] != hexastore.IRI("http://ex/c") {
			t.Fatalf("rows = %v", sel.Rows)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestOpenDiskReopens(t *testing.T) {
	dir := t.TempDir()
	db, err := hexastore.Open(hexastore.WithDisk(dir), hexastore.WithDiskCache(64))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update(`INSERT DATA { <a> <p> <b> }`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Opening the same directory again attaches to the persisted store.
	db2, err := hexastore.Open(hexastore.WithDisk(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len() != 1 {
		t.Fatalf("reopened Len = %d, want 1", db2.Len())
	}
	ok, err := db2.HasTriple(hexastore.T(hexastore.IRI("a"), hexastore.IRI("p"), hexastore.IRI("b")))
	if err != nil || !ok {
		t.Fatalf("HasTriple = %v, %v", ok, err)
	}
}

func TestOpenSharedDictionary(t *testing.T) {
	dict := hexastore.NewDictionary()
	db1, err := hexastore.Open(hexastore.WithDictionary(dict))
	if err != nil {
		t.Fatal(err)
	}
	db2, err := hexastore.Open(hexastore.WithBaseline(), hexastore.WithDictionary(dict))
	if err != nil {
		t.Fatal(err)
	}
	if db1.Dictionary() != dict || db2.Dictionary() != dict {
		t.Fatal("dictionary not shared")
	}
}

func TestOpenOptionConflicts(t *testing.T) {
	if _, err := hexastore.Open(hexastore.WithDisk(t.TempDir()), hexastore.WithBaseline()); err == nil {
		t.Error("WithDisk+WithBaseline accepted")
	}
	if _, err := hexastore.Open(hexastore.WithDisk(t.TempDir()), hexastore.WithDictionary(hexastore.NewDictionary())); err == nil {
		t.Error("WithDisk+WithDictionary accepted")
	}
}

// TestDBUnwrapKeepsFastPaths ensures the in-memory handle's queries
// still reach the concrete store: while nothing is pending, the snapshot
// a query pins unwraps to the *core.Store, so index-aware fast paths
// (planner statistics, zero-copy sorted lists) stay active.
func TestDBUnwrapKeepsFastPaths(t *testing.T) {
	db, err := hexastore.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := graph.Unwrap(graph.Snapshot(db.Graph)); !isCore(got) {
		t.Fatalf("Unwrap(Snapshot(db)) = %T, want *core.Store", got)
	}
}

func isCore(x any) bool {
	_, ok := x.(*core.Store)
	return ok
}

// TestDBConcurrentQueryUpdate hammers one DB with parallel queries and
// updates; the DB-level guard must prevent the nested-read-lock
// deadlock (run with -race in CI).
func TestDBConcurrentQueryUpdate(t *testing.T) {
	db, err := hexastore.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:a ex:knows ex:b . ex:b ex:knows ex:c }`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := db.Update(`PREFIX ex: <http://ex/> INSERT DATA { ex:a ex:knows ex:x } ; DELETE DATA { ex:a ex:knows ex:x }`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := db.Query(`PREFIX ex: <http://ex/> SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestDBSerializers(t *testing.T) {
	db, err := hexastore.Open()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Update(`INSERT DATA { <http://ex/a> <http://ex/p> <http://ex/b> }`); err != nil {
		t.Fatal(err)
	}
	var nt strings.Builder
	if err := db.WriteNTriples(&nt); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(nt.String(), "<http://ex/a> <http://ex/p> <http://ex/b> .") {
		t.Fatalf("ntriples = %q", nt.String())
	}
	var ttl strings.Builder
	if err := db.WriteTurtle(&ttl, map[string]string{"ex": "http://ex/"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ttl.String(), "ex:a ex:p ex:b") {
		t.Fatalf("turtle = %q", ttl.String())
	}
}
