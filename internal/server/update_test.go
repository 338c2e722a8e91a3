package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/triplestore"
)

// updateBackends returns an httptest server per storage engine, all
// empty, so the INSERT → SELECT → DELETE round-trip can be verified
// end-to-end over HTTP against every backend.
func updateBackends(t *testing.T) map[string]*httptest.Server {
	t.Helper()
	ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	out := make(map[string]*httptest.Server)
	for name, srv := range map[string]*Server{
		"memory":   New(core.New()),
		"disk":     NewGraph(graph.Disk(ds)),
		"baseline": NewGraph(graph.Baseline(triplestore.New(nil))),
	} {
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		out[name] = ts
	}
	return out
}

func postUpdate(t *testing.T, base, update string, viaForm bool) map[string]int {
	t.Helper()
	var (
		resp *http.Response
		err  error
	)
	if viaForm {
		resp, err = http.PostForm(base+"/sparql", url.Values{"update": {update}})
	} else {
		resp, err = http.Post(base+"/sparql", "application/sparql-update", strings.NewReader(update))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status = %d", resp.StatusCode)
	}
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func selectValues(t *testing.T, base, query, v string) []string {
	t.Helper()
	var res sparqlResults
	if code := getJSON(t, base+"/sparql?query="+url.QueryEscape(query), &res); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	var vals []string
	for _, b := range res.Results.Bindings {
		vals = append(vals, b[v].Value)
	}
	return vals
}

// TestUpdateRoundTripAllBackends drives INSERT DATA → SELECT →
// DELETE DATA → SELECT over HTTP against each backend.
func TestUpdateRoundTripAllBackends(t *testing.T) {
	insert := `PREFIX ex: <http://ex/>
		INSERT DATA { ex:alice ex:knows ex:bob . ex:alice ex:knows ex:carol }`
	sel := `SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`
	del := `PREFIX ex: <http://ex/> DELETE DATA { ex:alice ex:knows ex:bob }`

	for name, ts := range updateBackends(t) {
		t.Run(name, func(t *testing.T) {
			out := postUpdate(t, ts.URL, insert, false)
			if out["inserted"] != 2 || out["deleted"] != 0 {
				t.Fatalf("insert result = %v", out)
			}
			vals := selectValues(t, ts.URL, sel, "who")
			if len(vals) != 2 {
				t.Fatalf("post-insert rows = %v", vals)
			}
			out = postUpdate(t, ts.URL, del, true) // form-encoded this time
			if out["deleted"] != 1 {
				t.Fatalf("delete result = %v", out)
			}
			vals = selectValues(t, ts.URL, sel, "who")
			if len(vals) != 1 || vals[0] != "http://ex/carol" {
				t.Fatalf("post-delete rows = %v", vals)
			}
		})
	}
}

// TestUpdateSyntaxErrorRejected ensures malformed updates return 400
// without mutating the store.
func TestUpdateSyntaxErrorRejected(t *testing.T) {
	ts, st := newTestServer(t)
	before := st.Len()
	resp, err := http.Post(ts.URL+"/sparql", "application/sparql-update",
		strings.NewReader(`INSERT { missing data keyword }`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if st.Len() != before {
		t.Fatal("store mutated by rejected update")
	}
}

// TestConcurrentQueriesAndUpdates hammers one disk-backed server with
// parallel SELECTs and UPDATEs. Queries nest the disk store's read locks
// per join step, so without request-level writer exclusion a concurrent
// writer deadlocks the store; this test (run with -race in CI) guards
// that path.
func TestConcurrentQueriesAndUpdates(t *testing.T) {
	ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	ts := httptest.NewServer(NewGraph(graph.Disk(ds)).Handler())
	t.Cleanup(ts.Close)

	postUpdate(t, ts.URL, `PREFIX ex: <http://ex/>
		INSERT DATA { ex:a ex:knows ex:b . ex:b ex:knows ex:c }`, false)

	done := make(chan error, 2)
	go func() {
		for i := 0; i < 25; i++ {
			upd := `PREFIX ex: <http://ex/> INSERT DATA { ex:a ex:knows ex:x } ; DELETE DATA { ex:a ex:knows ex:x }`
			resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {upd}})
			if err != nil {
				done <- err
				return
			}
			resp.Body.Close()
		}
		done <- nil
	}()
	go func() {
		q := url.QueryEscape(`SELECT ?x ?z WHERE { ?x <http://ex/knows> ?y . ?y <http://ex/knows> ?z }`)
		for i := 0; i < 50; i++ {
			resp, err := http.Get(ts.URL + "/sparql?query=" + q)
			if err != nil {
				done <- err
				return
			}
			resp.Body.Close()
		}
		done <- nil
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestQueryAllBackends runs the same query through servers over all
// three backends after identical ingestion via /triples.
func TestQueryAllBackends(t *testing.T) {
	body := `<http://ex/a> <http://ex/p> <http://ex/b> .
<http://ex/b> <http://ex/p> <http://ex/c> .`
	q := `SELECT ?x ?z WHERE { ?x <http://ex/p> ?y . ?y <http://ex/p> ?z }`
	for name, ts := range updateBackends(t) {
		t.Run(name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			vals := selectValues(t, ts.URL, q, "z")
			if len(vals) != 1 || vals[0] != "http://ex/c" {
				t.Fatalf("rows = %v", vals)
			}
			// Stats must work on every backend.
			var stats map[string]any
			if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
				t.Fatalf("stats status = %d", code)
			}
			if stats["triples"].(float64) != 2 {
				t.Fatalf("stats triples = %v", stats["triples"])
			}
		})
	}
}
