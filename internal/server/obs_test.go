package server

// Tests for the observability layer: /metrics exposition, ?explain=1
// and the EXPLAIN prefixes over HTTP, and the golden /stats key sets per
// backend mode.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/govern"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
)

func TestMetricsEndpoint(t *testing.T) {
	stb := core.NewBuilder(nil)
	stb.AddTriple(rdf.T(rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/b")))
	st := stb.Build()
	srv := New(st)
	srv.SetGovernor(govern.Config{MaxConcurrent: 4})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Drive one query so the http and govern families have data.
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, family := range []string{
		"hex_http_request_seconds",
		"hex_http_requests_total",
		"hex_govern_admitted_total",
		"hex_govern_rejected_total",
		"hex_goroutines",
		"hex_heap_bytes",
		// obs.Default families registered by the storage packages; their
		// values may be zero here, but the families must be exposed.
		"hex_wal_fsync_seconds",
		"hex_wal_appended_bytes_total",
		"hex_delta_compactions_total",
		"hex_sparql_chunks_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	if !strings.Contains(text, `endpoint="/sparql"`) {
		t.Error("/metrics missing per-endpoint label for /sparql")
	}
	if !strings.Contains(text, "# TYPE hex_http_request_seconds histogram") {
		t.Error("/metrics missing histogram TYPE line")
	}
	if !strings.Contains(text, `le="+Inf"`) {
		t.Error("/metrics missing +Inf bucket")
	}
	if strings.Contains(text, "hex_pagefile_") {
		t.Error("/metrics of a memory server exposes buffer pool families")
	}
}

// metricsText returns the server's /metrics exposition.
func metricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// metricValue returns the value of the sample name (labels included, if
// it has any) in the server's /metrics exposition, failing the test when
// it is not there.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metricsText(t, url), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics missing %s", name)
	return 0
}

// TestMetricsPagefileFamilies: a disk store's buffer pool counters are
// on /metrics — here behind the overlay, as hexserver -disk -live serves
// it — and a query moves them.
func TestMetricsPagefileFamilies(t *testing.T) {
	ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ds.AddTriple(rdf.T(rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/b"))); err != nil {
		t.Fatal(err)
	}
	ov, err := delta.Open(graph.Disk(ds), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })
	ts := httptest.NewServer(NewGraph(ov).Handler())
	t.Cleanup(ts.Close)

	for _, name := range []string{"hex_pagefile_misses_total", "hex_pagefile_evictions_total", "hex_pagefile_writes_total"} {
		metricValue(t, ts.URL, name)
	}
	const hits = "hex_pagefile_hits_total"
	before := metricValue(t, ts.URL, hits)
	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(`SELECT ?o WHERE { <http://ex/a> <http://ex/p> ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if after := metricValue(t, ts.URL, hits); after <= before {
		t.Errorf("%s = %v before a query and %v after it", hits, before, after)
	}
	if got, want := metricValue(t, ts.URL, hits), float64(ds.FileStats().Hits); got != want {
		t.Errorf("%s reported %v, the pagefile counted %v", hits, got, want)
	}
}

// TestIndexFootprintObservable: what the packed index costs is on /stats
// and /metrics of a memory server and of a live one, read from the
// store's counters — on the live server through the overlay's current
// main, so a compaction's orphaned bytes show up as dead and a rewrite
// takes them away again — and absent on a disk server.
func TestIndexFootprintObservable(t *testing.T) {
	iri := func(kind string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/%s%d", kind, i)) }
	b := core.NewBuilder(nil)
	for i := 0; i < 400; i++ {
		b.AddTriple(rdf.T(iri("s", i%40), iri("p", i%5), iri("o", i)))
	}
	st := b.Build()
	const spoHeads, deadBytes = `hex_index_heads{ordering="spo"}`, "hex_index_dead_bytes"

	t.Run("memory", func(t *testing.T) {
		ts := httptest.NewServer(New(st).Handler())
		t.Cleanup(ts.Close)
		got := statsKeys(t, ts.URL)
		wantKeys(t, "memory", got, []string{"indexArenaBytes", "indexDeadBytes", "indexSegments"})
		if got["indexArenaBytes"].(float64) <= 0 || got["indexDeadBytes"].(float64) != 0 || got["indexSegments"].(float64) != 3 {
			t.Errorf("/stats of a fresh build: arena %v, dead %v, segments %v", got["indexArenaBytes"], got["indexDeadBytes"], got["indexSegments"])
		}
		if v := metricValue(t, ts.URL, "hex_index_bytes"); v != float64(st.IndexBytes()) || v != got["indexBytes"].(float64) {
			t.Errorf("hex_index_bytes = %v, IndexBytes %d, /stats indexBytes %v", v, st.IndexBytes(), got["indexBytes"])
		}
		if v := metricValue(t, ts.URL, deadBytes); v != 0 {
			t.Errorf("%s = %v on a fresh build", deadBytes, v)
		}
		if v := metricValue(t, ts.URL, spoHeads); v != 40 {
			t.Errorf("%s = %v, want 40", spoHeads, v)
		}
		if v := metricValue(t, ts.URL, `hex_index_heads{ordering="pos"}`); v != 5 {
			t.Errorf("pos heads = %v, want 5", v)
		}
	})

	t.Run("live", func(t *testing.T) {
		ov, err := delta.Open(graph.Memory(st), delta.Options{CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ov.Close() })
		ts := httptest.NewServer(NewGraph(ov).Handler())
		t.Cleanup(ts.Close)
		if v := metricValue(t, ts.URL, deadBytes); v != 0 {
			t.Fatalf("%s = %v before any compaction", deadBytes, v)
		}
		// One new triple under one new subject per compaction: each leaves
		// a few replaced records behind, until an arena is rewritten.
		rose, fell, prev := false, false, 0.0
		for i := 0; i < 60 && !fell; i++ {
			if _, _, err := ov.ApplyTriples([]graph.TripleOp{{T: rdf.T(iri("new", 0), iri("p", 0), iri("fresh", i))}}); err != nil {
				t.Fatal(err)
			}
			if err := ov.Compact(); err != nil {
				t.Fatal(err)
			}
			dead := metricValue(t, ts.URL, deadBytes)
			rose = rose || dead > prev
			fell = rose && dead < prev
			prev = dead
		}
		if !rose || !fell {
			t.Errorf("%s over 60 compactions: rose %v, fell after a rewrite %v", deadBytes, rose, fell)
		}
		if v := metricValue(t, ts.URL, spoHeads); v != 41 {
			t.Errorf("%s = %v after compacting a new subject in, want 41", spoHeads, v)
		}
		main := graph.Unwrap(ov.Main()).(*core.Store)
		if v := metricValue(t, ts.URL, "hex_index_bytes"); v != float64(main.IndexBytes()) {
			t.Errorf("hex_index_bytes = %v, the current main holds %d", v, main.IndexBytes())
		}
		if got := statsKeys(t, ts.URL); got["indexDeadBytes"].(float64) != prev {
			t.Errorf("/stats indexDeadBytes = %v, /metrics says %v", got["indexDeadBytes"], prev)
		}
	})

	t.Run("disk", func(t *testing.T) {
		ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		if _, err := ds.AddTriple(rdf.T(iri("s", 0), iri("p", 0), iri("o", 0))); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewGraph(graph.Disk(ds)).Handler())
		t.Cleanup(ts.Close)
		rejectKeys(t, "disk", statsKeys(t, ts.URL), []string{"indexArenaBytes", "indexDeadBytes", "indexSegments"})
		if strings.Contains(metricsText(t, ts.URL), "hex_index_") {
			t.Error("/metrics of a disk server exposes index arena families")
		}
	})
}

// explainResults is sparqlResults plus the explain tree.
type explainResults struct {
	sparqlResults
	Explain *explainSpan `json:"explain"`
}

type explainSpan struct {
	Name     string         `json:"name"`
	Attrs    map[string]any `json:"attrs"`
	Children []*explainSpan `json:"children"`
}

func (sp *explainSpan) find(prefix string) []*explainSpan {
	var out []*explainSpan
	if strings.HasPrefix(sp.Name, prefix) {
		out = append(out, sp)
	}
	for _, c := range sp.Children {
		out = append(out, c.find(prefix)...)
	}
	return out
}

func TestExplainParamAndPrefix(t *testing.T) {
	ts, _ := newTestServer(t)

	// ?explain=1 attaches the executed trace to a plain query.
	q := url.QueryEscape(`SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`)
	var res explainResults
	if code := getJSON(t, ts.URL+"/sparql?explain=1&query="+q, &res); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(res.Results.Bindings) != 1 {
		t.Fatalf("bindings = %d, want 1", len(res.Results.Bindings))
	}
	if res.Explain == nil || res.Explain.Name != "query" {
		t.Fatalf("explain tree = %+v", res.Explain)
	}
	if steps := res.Explain.find("step["); len(steps) != 1 {
		t.Fatalf("step spans = %d, want 1", len(steps))
	} else if _, ok := steps[0].Attrs["rowsOut"]; !ok {
		t.Error("executed step span missing rowsOut")
	}

	// Without the param or prefix there is no explain field.
	var plain explainResults
	if code := getJSON(t, ts.URL+"/sparql?query="+q, &plain); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if plain.Explain != nil {
		t.Error("unrequested explain field present")
	}

	// The EXPLAIN prefix returns the plan tree and no bindings.
	pq := url.QueryEscape(`EXPLAIN SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`)
	var planned explainResults
	if code := getJSON(t, ts.URL+"/sparql?query="+pq, &planned); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(planned.Results.Bindings) != 0 {
		t.Fatalf("EXPLAIN returned %d bindings, want 0", len(planned.Results.Bindings))
	}
	if planned.Explain == nil {
		t.Fatal("EXPLAIN missing explain tree")
	}
	steps := planned.Explain.find("step[")
	if len(steps) != 1 {
		t.Fatalf("EXPLAIN step spans = %d, want 1", len(steps))
	}
	if _, ok := steps[0].Attrs["estRows"]; !ok {
		t.Error("plan step missing estRows")
	}
	if _, ok := steps[0].Attrs["rowsOut"]; ok {
		t.Error("plan-only step has rowsOut — it executed")
	}
}

// TestSlowQueryLogIncludesSpans: with the slow-query log live, every
// query is traced and a slow line names its most expensive spans.
func TestSlowQueryLogIncludesSpans(t *testing.T) {
	stb := core.NewBuilder(nil)
	stb.AddTriple(rdf.T(rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/b")))
	st := stb.Build()
	var mu sync.Mutex
	var lines []string
	srv := New(st)
	srv.SetGovernor(govern.Config{
		MaxConcurrent: 2,
		SlowQuery:     time.Nanosecond, // everything is slow
		Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/sparql?query=" + url.QueryEscape(`SELECT ?s WHERE { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 {
		t.Fatal("no slow-query line logged")
	}
	if !strings.Contains(lines[0], "step[") && !strings.Contains(lines[0], "branch") {
		t.Errorf("slow-query line has no span detail: %q", lines[0])
	}
}

// statsKeys fetches /stats and returns its key set.
func statsKeys(t *testing.T, tsURL string) map[string]any {
	t.Helper()
	var out map[string]any
	if code := getJSON(t, tsURL+"/stats", &out); code != 200 {
		t.Fatalf("stats status = %d", code)
	}
	return out
}

func wantKeys(t *testing.T, mode string, got map[string]any, want []string) {
	t.Helper()
	for _, k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("%s /stats missing key %q (got %v)", mode, k, keysOf(got))
		}
	}
}

func rejectKeys(t *testing.T, mode string, got map[string]any, reject []string) {
	t.Helper()
	for _, k := range reject {
		if _, ok := got[k]; ok {
			t.Errorf("%s /stats has unexpected key %q", mode, k)
		}
	}
}

func keysOf(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestStatsGoldenShape pins the /stats key set per backend mode, so a
// dashboard built against one mode keeps working after refactors.
func TestStatsGoldenShape(t *testing.T) {
	base := []string{"triples", "dictionaryTerms", "distinctSubjects", "distinctPreds", "distinctObjects"}

	t.Run("memory", func(t *testing.T) {
		ts, _ := newTestServer(t)
		got := statsKeys(t, ts.URL)
		wantKeys(t, "memory", got, append(base,
			"headers", "vectorEntries", "listEntries", "expansionFactor",
			"indexSizeBytes", "indexBytes", "indexBytesPerTriple", "indexArenaBytes",
			"deltaAdds", "deltaDels", "compactThreshold", "compactions", "mainTriples"))
		rejectKeys(t, "memory", got, []string{"diskBytes", "govern", "walBytes"})
	})

	t.Run("disk", func(t *testing.T) {
		ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		if _, err := ds.AddTriple(rdf.T(rdf.NewIRI("a"), rdf.NewIRI("p"), rdf.NewIRI("b"))); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(NewGraph(graph.Disk(ds)).Handler())
		t.Cleanup(ts.Close)
		got := statsKeys(t, ts.URL)
		wantKeys(t, "disk", got, append(base, "diskBytes", "diskBytesPerTriple"))
		rejectKeys(t, "disk", got, []string{"deltaAdds", "headers"})
	})

	t.Run("overlay", func(t *testing.T) {
		ov, err := delta.Open(graph.Memory(core.New()), delta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ov.Close() })
		ts := httptest.NewServer(NewGraph(ov).Handler())
		t.Cleanup(ts.Close)
		got := statsKeys(t, ts.URL)
		wantKeys(t, "overlay", got, append(base,
			"deltaAdds", "deltaDels", "compactThreshold", "compactions", "mainTriples"))
		rejectKeys(t, "overlay", got, []string{"diskBytes", "govern"})
	})

	t.Run("govern", func(t *testing.T) {
		st := core.New()
		srv := New(st)
		srv.SetGovernor(govern.Config{MaxConcurrent: 2, SlowQuery: time.Hour})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		got := statsKeys(t, ts.URL)
		wantKeys(t, "govern", got, append(base, "govern"))
		gov, ok := got["govern"].(map[string]any)
		if !ok {
			t.Fatalf("govern section = %T", got["govern"])
		}
		for _, k := range []string{"maxConcurrent", "active", "queued", "admitted", "rejected", "canceled", "budgetKills", "slowQueries"} {
			if _, ok := gov[k]; !ok {
				t.Errorf("govern section missing %q", k)
			}
		}
	})
}
