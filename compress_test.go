package hexastore_test

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hexastore"
	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/graph"
	"hexastore/internal/triplestore"
)

// canonQuery renders a SELECT result in a canonical, order-free form.
func canonQuery(t *testing.T, db *hexastore.DB, q string) string {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	var lines []string
	for _, row := range res.Rows {
		var sb strings.Builder
		vars := append([]string(nil), res.Vars...)
		sort.Strings(vars)
		for _, v := range vars {
			fmt.Fprintf(&sb, "%s=%s;", v, row[v])
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func seedTriples(t *testing.T, db *hexastore.DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := db.AddTriple(hexastore.T(
			hexastore.IRI(fmt.Sprintf("s%d", i%17)),
			hexastore.IRI(fmt.Sprintf("p%d", i%5)),
			hexastore.IRI(fmt.Sprintf("o%d", i%23)),
		)); err != nil {
			t.Fatal(err)
		}
	}
}

const compressProbeQuery = `SELECT ?s ?o WHERE { ?s <p1> ?o . ?o ?p ?x }`

// TestWithCompressionEquivalence applies the same data and updates to
// every backend with compression on and to its reference — the same
// disk backend with raw leaves, and for the memory backend (which has
// one, packed, layout) the flat triples-table baseline — and requires
// identical query results: the facade-level differential gate for the
// block-compressed index layer.
func TestWithCompressionEquivalence(t *testing.T) {
	type mk func(t *testing.T, reference bool) *hexastore.DB
	open := func(t *testing.T, opts ...hexastore.Option) *hexastore.DB {
		db, err := hexastore.Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	backends := map[string]mk{
		"memory": func(t *testing.T, reference bool) *hexastore.DB {
			if reference {
				return open(t, hexastore.WithBaseline())
			}
			return open(t)
		},
		"disk": func(t *testing.T, reference bool) *hexastore.DB {
			return open(t, hexastore.WithDisk(t.TempDir()), hexastore.WithCompression(!reference))
		},
		"overlay": func(t *testing.T, reference bool) *hexastore.DB {
			if reference {
				return open(t, hexastore.WithDeltaOverlay(), hexastore.WithBaseline())
			}
			return open(t, hexastore.WithDeltaOverlay())
		},
	}
	for name, make := range backends {
		t.Run(name, func(t *testing.T) {
			var results [2]string
			for i, reference := range []bool{false, true} {
				db := make(t, reference)
				defer db.Close()
				seedTriples(t, db, 200)
				if _, err := db.Update(`INSERT DATA { <extra> <p1> <o1> . <o1> <p2> <z> } ; DELETE DATA { <s1> <p1> <o1> }`); err != nil {
					t.Fatal(err)
				}
				if db.Compact() != nil {
					t.Fatal("compact failed")
				}
				results[i] = canonQuery(t, db, compressProbeQuery)
			}
			if results[0] != results[1] {
				t.Fatalf("compressed and reference results differ:\n%s\nvs\n%s", results[0], results[1])
			}
		})
	}
}

// TestCompressedSnapshotRestore checks the packed store's snapshot round
// trip against the triplestore oracle: the restored store holds exactly
// the oracle's triples, and snapshots to the same bytes again.
func TestCompressedSnapshotRestore(t *testing.T) {
	b := core.NewBuilder(nil)
	for id := core.ID(1); id <= 36; id++ {
		b.Dictionary().Encode(hexastore.IRI(fmt.Sprintf("t%d", id)))
	}
	oracle := triplestore.New(b.Dictionary())
	for i := 0; i < 300; i++ {
		tr := [3]core.ID{core.ID(i%13 + 1), core.ID(i%4 + 14), core.ID(i%19 + 18)}
		b.Add(tr[0], tr[1], tr[2])
		oracle.Add(tr[0], tr[1], tr[2])
	}
	var snap, again bytes.Buffer
	if err := b.BuildParallel(2).Snapshot(&snap); err != nil {
		t.Fatal(err)
	}
	st, err := core.Restore(bytes.NewReader(snap.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Len() != oracle.Len() {
		t.Fatalf("restored Len = %d, oracle holds %d", st.Len(), oracle.Len())
	}
	oracle.Match(core.None, core.None, core.None, func(s, p, o core.ID) bool {
		if !st.Has(s, p, o) {
			t.Fatalf("restored store lacks (%d, %d, %d)", s, p, o)
		}
		return true
	})
	if err := st.Snapshot(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Fatal("the restored store snapshots to different bytes")
	}
}

// TestCompressedWALRecovery crashes a WAL-backed DB (no Close) after a
// checkpoint plus further updates and reopens it: the checkpoint
// snapshot restores into a packed main, the WAL tail replays on top of
// it, and the result answers like a baseline DB that saw the same
// writes and never crashed.
func TestCompressedWALRecovery(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal.log")
	open := func(opts ...hexastore.Option) *hexastore.DB {
		db, err := hexastore.Open(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	var results [2]string
	for i, db := range []*hexastore.DB{open(hexastore.WithWAL(wal)), open(hexastore.WithBaseline())} {
		seedTriples(t, db, 150)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if _, err := db.Update(`INSERT DATA { <post> <p1> <o5> . <o5> <p0> <tail> }`); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			// Crash: no Close.
			db = open(hexastore.WithWAL(wal))
			if _, ok := coreMain(db); !ok {
				t.Fatal("recovered DB has no core main")
			}
		}
		results[i] = canonQuery(t, db, compressProbeQuery)
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if results[0] != results[1] {
		t.Fatalf("the recovered DB and the baseline differ:\n%s\nvs\n%s", results[0], results[1])
	}
}

// coreMain digs the in-memory main store out of a DB's overlay.
func coreMain(db *hexastore.DB) (*core.Store, bool) {
	ov, ok := db.Graph.(*delta.Overlay)
	if !ok {
		return nil, false
	}
	st, ok := graph.Unwrap(ov.Main()).(*core.Store)
	return st, ok
}
