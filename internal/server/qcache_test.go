package server

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/dictionary"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/shard"
)

// cacheServers builds one HTTP server per serving substrate — memory,
// disk, 3-shard cluster, and a compactable delta overlay — each seeded
// with the same two triples and running the default cache configuration
// (both caches on, as hexserver deploys them).
func cacheServers(t *testing.T) map[string]*httptest.Server {
	t.Helper()
	seed := []rdf.Triple{
		rdf.T(rdf.NewIRI("http://ex/alice"), rdf.NewIRI("http://ex/knows"), rdf.NewIRI("http://ex/bob")),
		rdf.T(rdf.NewIRI("http://ex/bob"), rdf.NewIRI("http://ex/knows"), rdf.NewIRI("http://ex/carol")),
	}
	servers := make(map[string]*httptest.Server)
	serve := func(name string, g graph.Graph) {
		ts := httptest.NewServer(NewGraph(g).Handler())
		t.Cleanup(ts.Close)
		servers[name] = ts
	}

	memb := core.NewBuilder(nil)
	for _, tr := range seed {
		memb.AddTriple(tr)
	}
	serve("memory", New(memb.Build()).Graph())

	ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	for _, tr := range seed {
		if _, err := graph.AddTriple(graph.Disk(ds), tr); err != nil {
			t.Fatal(err)
		}
	}
	serve("disk", graph.Disk(ds))

	dict := dictionary.New()
	cl, err := shard.OpenCluster(shard.Config{
		Shards: 3,
		Dict:   dict,
		Load:   core.EncodeTriples(dict, seed, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	serve("shard3", cl)

	ov, err := delta.Open(graph.Memory(core.New()), delta.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })
	for _, tr := range seed {
		if _, err := graph.AddTriple(ov, tr); err != nil {
			t.Fatal(err)
		}
	}
	serve("overlay", ov)

	return servers
}

// queryKnown runs the fixed lookup and returns the bound objects.
func queryKnown(t *testing.T, base string) []string {
	t.Helper()
	q := url.QueryEscape(`SELECT ?o WHERE { ?s <http://ex/knows> ?o } ORDER BY ?o`)
	var res sparqlResults
	if code := getJSON(t, base+"/sparql?query="+q, &res); code != http.StatusOK {
		t.Fatalf("query status = %d", code)
	}
	var out []string
	for _, b := range res.Results.Bindings {
		out = append(out, b["o"].Value)
	}
	return out
}

type cacheStatsBlock struct {
	Cache struct {
		PlanCacheHits   uint64 `json:"planCacheHits"`
		PlanCacheMisses uint64 `json:"planCacheMisses"`
		ResultHits      uint64 `json:"resultCacheHits"`
		ResultMisses    uint64 `json:"resultCacheMisses"`
		ResultEnabled   bool   `json:"resultCacheEnabled"`
		EpochChurn      uint64 `json:"epochChurn"`
	} `json:"cache"`
}

// TestResultCacheInvalidationHTTP proves at the HTTP level, on every
// substrate, that a write between two identical queries yields the
// post-write answer, and that repeating a query is served from the
// result cache (visible in /stats).
func TestResultCacheInvalidationHTTP(t *testing.T) {
	for name, ts := range cacheServers(t) {
		t.Run(name, func(t *testing.T) {
			want := []string{"http://ex/bob", "http://ex/carol"}
			for i := 0; i < 2; i++ {
				if got := queryKnown(t, ts.URL); fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("run %d: rows = %v, want %v", i, got, want)
				}
			}
			var st cacheStatsBlock
			if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
				t.Fatalf("stats status = %d", code)
			}
			if !st.Cache.ResultEnabled || st.Cache.ResultHits < 1 {
				t.Fatalf("cache stats = %+v, want resultCacheHits >= 1", st.Cache)
			}

			postUpdate(t, ts.URL, `INSERT DATA { <http://ex/carol> <http://ex/knows> <http://ex/dave> }`, true)
			want = append(want, "http://ex/dave")
			if got := queryKnown(t, ts.URL); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("post-write rows = %v, want %v (stale cache served?)", got, want)
			}

			postUpdate(t, ts.URL, `DELETE DATA { <http://ex/carol> <http://ex/knows> <http://ex/dave> }`, true)
			want = want[:2]
			if got := queryKnown(t, ts.URL); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("post-delete rows = %v, want %v (stale cache served?)", got, want)
			}
		})
	}
}

// TestResultCacheSurvivesCompactionHTTP: on the overlay server, a
// compaction between two identical queries neither churns the cache nor
// changes the answer (the rebuilt state is content-identical, so the
// epoch token is preserved).
func TestResultCacheSurvivesCompactionHTTP(t *testing.T) {
	ov, err := delta.Open(graph.Memory(core.New()), delta.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ov.Close()
	srv := NewGraph(ov)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	postUpdate(t, ts.URL, `INSERT DATA { <http://ex/alice> <http://ex/knows> <http://ex/bob> .
		<http://ex/bob> <http://ex/knows> <http://ex/carol> }`, true)
	want := []string{"http://ex/bob", "http://ex/carol"}
	if got := queryKnown(t, ts.URL); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("rows = %v", got)
	}
	var before cacheStatsBlock
	getJSON(t, ts.URL+"/stats", &before)

	if err := ov.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := queryKnown(t, ts.URL); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("post-compaction rows = %v", got)
	}
	var after cacheStatsBlock
	getJSON(t, ts.URL+"/stats", &after)
	if after.Cache.ResultHits != before.Cache.ResultHits+1 {
		t.Fatalf("result hits %d -> %d, want a hit across compaction",
			before.Cache.ResultHits, after.Cache.ResultHits)
	}
	if after.Cache.EpochChurn != before.Cache.EpochChurn {
		t.Fatalf("compaction churned the result-cache epoch (%d -> %d)",
			before.Cache.EpochChurn, after.Cache.EpochChurn)
	}
}

// TestExplainBypassesResultCacheHTTP: ?explain=1 responses always carry
// a trace describing a real execution — repeated explain requests never
// count result-cache hits — while plain repeats of the same query do.
func TestExplainBypassesResultCacheHTTP(t *testing.T) {
	stb := core.NewBuilder(nil)
	stb.AddTriple(rdf.T(rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/b")))
	st := stb.Build()
	ts := httptest.NewServer(New(st).Handler())
	defer ts.Close()

	q := url.QueryEscape(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
	for i := 0; i < 2; i++ {
		var out struct {
			Explain any `json:"explain"`
			Results struct {
				Bindings []map[string]any `json:"bindings"`
			} `json:"results"`
		}
		if code := getJSON(t, ts.URL+"/sparql?explain=1&query="+q, &out); code != http.StatusOK {
			t.Fatalf("status = %d", code)
		}
		if out.Explain == nil {
			t.Fatalf("run %d: no explain tree", i)
		}
		if len(out.Results.Bindings) != 1 {
			t.Fatalf("run %d: bindings = %d", i, len(out.Results.Bindings))
		}
	}
	var st1 cacheStatsBlock
	getJSON(t, ts.URL+"/stats", &st1)
	if st1.Cache.ResultHits != 0 || st1.Cache.ResultMisses != 0 {
		t.Fatalf("explain requests touched the result cache: %+v", st1.Cache)
	}
}

// TestCacheMetricsExposed: /metrics publishes the plan- and
// result-cache families, and the hit counters move after a repeated
// query.
func TestCacheMetricsExposed(t *testing.T) {
	stb := core.NewBuilder(nil)
	stb.AddTriple(rdf.T(rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/b")))
	st := stb.Build()
	ts := httptest.NewServer(New(st).Handler())
	defer ts.Close()

	q := url.QueryEscape(`SELECT ?s WHERE { ?s <http://ex/p> ?o }`)
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/sparql?query=" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, family := range []string{
		"hex_plan_cache_hits_total", "hex_plan_cache_misses_total",
		"hex_result_cache_hits_total", "hex_result_cache_misses_total",
		"hex_result_cache_bytes", "hex_cache_epoch_churn_total",
	} {
		if !strings.Contains(text, family) {
			t.Fatalf("/metrics missing %s", family)
		}
	}
	if !strings.Contains(text, "hex_result_cache_hits_total 1") {
		t.Fatalf("expected one result-cache hit in metrics:\n%s", text)
	}
}
