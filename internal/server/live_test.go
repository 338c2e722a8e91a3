package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/graph"
)

// liveServer starts an httptest server over a WAL-backed delta overlay.
func liveServer(t *testing.T) (*httptest.Server, *delta.Overlay) {
	t.Helper()
	ov, err := delta.Open(graph.Memory(core.New()), delta.Options{
		WALPath: filepath.Join(t.TempDir(), "wal.log"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })
	ts := httptest.NewServer(NewGraph(ov).Handler())
	t.Cleanup(ts.Close)
	return ts, ov
}

// TestStatsReportsDeltaAndWAL: /stats on an overlay backend must expose
// the live-update subsystem's state — delta size and WAL footprint.
func TestStatsReportsDeltaAndWAL(t *testing.T) {
	ts, _ := liveServer(t)

	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{
		"update": {`INSERT DATA { <a> <p> <b> . <b> <p> <c> }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if got := stats["triples"]; got != float64(2) {
		t.Fatalf("triples = %v, want 2", got)
	}
	if got := stats["deltaAdds"]; got != float64(2) {
		t.Fatalf("deltaAdds = %v, want 2", got)
	}
	if got, ok := stats["walBytes"].(float64); !ok || got <= 8 {
		t.Fatalf("walBytes = %v, want > 8 (header plus two records)", stats["walBytes"])
	}
	if _, ok := stats["compactions"]; !ok {
		t.Fatalf("stats missing compactions: %v", stats)
	}
	if _, ok := stats["walPath"]; !ok {
		t.Fatalf("stats missing walPath: %v", stats)
	}
}

// TestLiveConcurrentQueryUpdate hammers the /sparql endpoint with
// concurrent SELECTs and UPDATEs over the overlay backend — the
// server-level reader/writer isolation path (no request lock), run under
// -race in CI. Each query response must be internally consistent: the
// two-pattern join can only bind members whose both edges are visible.
func TestLiveConcurrentQueryUpdate(t *testing.T) {
	ts, ov := liveServer(t)

	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				u := fmt.Sprintf(
					`INSERT DATA { <m%d-%d> <in> <club> . <m%d-%d> <badge> <club> }`, w, i, w, i)
				resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {u}})
				if err != nil {
					t.Errorf("update: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("update status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	queryErrs := make(chan error, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				q := url.QueryEscape(`SELECT ?m WHERE { ?m <in> <club> . ?m <badge> <club> }`)
				resp, err := http.Get(ts.URL + "/sparql?query=" + q)
				if err != nil {
					queryErrs <- err
					return
				}
				var body struct {
					Results struct {
						Bindings []map[string]any `json:"bindings"`
					} `json:"results"`
				}
				err = json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				if err != nil {
					queryErrs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(queryErrs)
	for err := range queryErrs {
		t.Error(err)
	}

	if got := ov.Len(); got != 160 {
		t.Fatalf("final triple count %d, want 160", got)
	}
}

// TestLiveTriplesBatchIngest: the /triples bulk endpoint goes through
// the overlay's atomic batch path.
func TestLiveTriplesBatchIngest(t *testing.T) {
	ts, ov := liveServer(t)
	var sb strings.Builder
	for i := 0; i < 20; i++ {
		fmt.Fprintf(&sb, "<http://ex/s%d> <http://ex/p> <http://ex/o> .\n", i)
	}
	resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["added"] != 20 || out["total"] != 20 {
		t.Fatalf("ingest response %v, want added=20 total=20", out)
	}
	if st := ov.Stats(); st.WALBytes <= 8 {
		t.Fatalf("WAL empty after ingest: %+v", st)
	}
}

// TestReadOnlyRejectsWrites: a replica server answers queries but turns
// away updates and ingestion with 403.
func TestReadOnlyRejectsWrites(t *testing.T) {
	ov, err := delta.Open(graph.Memory(core.New()), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })
	srv := NewGraph(ov)
	srv.SetReadOnly(true)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{"update": {`INSERT DATA { <a> <p> <b> }`}})
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("update on read-only replica: status = %d, want 403", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/triples", "application/n-triples",
		strings.NewReader("<http://ex/a> <http://ex/p> <http://ex/b> .\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("ingest on read-only replica: status = %d, want 403", resp.StatusCode)
	}
	if ov.Len() != 0 {
		t.Fatalf("read-only replica stored %d triples", ov.Len())
	}

	var res sparqlResults
	if code := getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape("SELECT ?s WHERE { ?s ?p ?o }"), &res); code != http.StatusOK {
		t.Fatalf("query on read-only replica: status = %d", code)
	}
}
