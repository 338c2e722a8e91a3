package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
)

// newTestServer serves a two-triple memory store through New and
// returns the served graph: the overlay writes land in.
func newTestServer(t *testing.T) (*httptest.Server, graph.Graph) {
	t.Helper()
	stb := core.NewBuilder(nil)
	stb.AddTriple(rdf.T(rdf.NewIRI("http://ex/alice"), rdf.NewIRI("http://ex/knows"), rdf.NewIRI("http://ex/bob")))
	stb.AddTriple(rdf.T(rdf.NewIRI("http://ex/bob"), rdf.NewIRI("http://ex/knows"), rdf.NewIRI("http://ex/carol")))
	srv := New(stb.Build())
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv.Graph()
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode
}

type sparqlResults struct {
	Head struct {
		Vars []string `json:"vars"`
	} `json:"head"`
	Results struct {
		Bindings []map[string]struct {
			Type  string `json:"type"`
			Value string `json:"value"`
		} `json:"bindings"`
	} `json:"results"`
}

func TestSPARQLGet(t *testing.T) {
	ts, _ := newTestServer(t)
	q := url.QueryEscape(`SELECT ?who WHERE { <http://ex/alice> <http://ex/knows> ?who }`)
	var res sparqlResults
	if code := getJSON(t, ts.URL+"/sparql?query="+q, &res); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if len(res.Results.Bindings) != 1 {
		t.Fatalf("bindings = %d, want 1", len(res.Results.Bindings))
	}
	if got := res.Results.Bindings[0]["who"].Value; got != "http://ex/bob" {
		t.Fatalf("who = %q", got)
	}
	if res.Results.Bindings[0]["who"].Type != "uri" {
		t.Fatalf("type = %q, want uri", res.Results.Bindings[0]["who"].Type)
	}
}

// TestSPARQLLimitZero checks that LIMIT 0 answers a head and no
// bindings, before and after the same query without LIMIT has filled
// the server's caches.
func TestSPARQLLimitZero(t *testing.T) {
	ts, _ := newTestServer(t)
	all := `SELECT ?s WHERE { ?s ?p ?o }`
	for round := 0; round < 2; round++ {
		for _, c := range []struct {
			src  string
			want int
		}{{all + ` LIMIT 0`, 0}, {all, 2}} {
			var res sparqlResults
			if code := getJSON(t, ts.URL+"/sparql?query="+url.QueryEscape(c.src), &res); code != 200 {
				t.Fatalf("%q: status = %d", c.src, code)
			}
			if len(res.Results.Bindings) != c.want || len(res.Head.Vars) != 1 || res.Head.Vars[0] != "s" {
				t.Fatalf("round %d: %q: vars %v, %d bindings, want [s] and %d", round, c.src, res.Head.Vars, len(res.Results.Bindings), c.want)
			}
		}
	}
}

func TestSPARQLPostForm(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.PostForm(ts.URL+"/sparql", url.Values{
		"query": {`SELECT ?s WHERE { ?s <http://ex/knows> ?o }`},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res sparqlResults
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results.Bindings) != 2 {
		t.Fatalf("bindings = %d, want 2", len(res.Results.Bindings))
	}
}

func TestSPARQLPostRawQuery(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Post(ts.URL+"/sparql", "application/sparql-query",
		strings.NewReader(`SELECT ?s WHERE { ?s ?p ?o }`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res sparqlResults
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if len(res.Results.Bindings) != 2 {
		t.Fatalf("bindings = %d, want 2", len(res.Results.Bindings))
	}
}

func TestSPARQLMissingQuery(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/sparql")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
}

func TestSPARQLSyntaxError(t *testing.T) {
	ts, _ := newTestServer(t)
	q := url.QueryEscape(`SELECT WHERE {`)
	resp, err := http.Get(ts.URL + "/sparql?query=" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var e map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e["error"] == "" {
		t.Fatal("error body missing")
	}
}

func TestIngestNTriples(t *testing.T) {
	ts, st := newTestServer(t)
	body := `<http://ex/dave> <http://ex/knows> <http://ex/alice> .
<http://ex/dave> <http://ex/age> "33" .`
	resp, err := http.Post(ts.URL+"/triples", "application/n-triples", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["added"] != 2 {
		t.Fatalf("added = %d, want 2", out["added"])
	}
	if st.Len() != 4 {
		t.Fatalf("store Len = %d, want 4", st.Len())
	}
}

func TestIngestTurtle(t *testing.T) {
	ts, st := newTestServer(t)
	body := `@prefix ex: <http://ex/> .
ex:eve ex:knows ex:alice, ex:bob ; ex:age 28 .`
	resp, err := http.Post(ts.URL+"/triples", "text/turtle", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["added"] != 3 {
		t.Fatalf("added = %d, want 3", out["added"])
	}
	if st.Len() != 5 {
		t.Fatalf("store Len = %d, want 5", st.Len())
	}
	// Ingested data must be immediately queryable (planner refreshed).
	q := url.QueryEscape(`SELECT ?who WHERE { <http://ex/eve> <http://ex/knows> ?who }`)
	var res sparqlResults
	getJSON(t, ts.URL+"/sparql?query="+q, &res)
	if len(res.Results.Bindings) != 2 {
		t.Fatalf("post-ingest bindings = %d, want 2", len(res.Results.Bindings))
	}
}

func TestIngestParseErrorRejected(t *testing.T) {
	ts, st := newTestServer(t)
	before := st.Len()
	resp, err := http.Post(ts.URL+"/triples", "application/n-triples",
		strings.NewReader("this is not n-triples at all"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if st.Len() != before {
		t.Fatal("store mutated by rejected ingest")
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	var out map[string]any
	if code := getJSON(t, ts.URL+"/stats", &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if out["triples"].(float64) != 2 {
		t.Fatalf("triples = %v, want 2", out["triples"])
	}
	if out["expansionFactor"].(float64) <= 0 {
		t.Fatalf("expansionFactor = %v", out["expansionFactor"])
	}
	if out["indexBytes"].(float64) <= 0 {
		t.Fatalf("indexBytes = %v", out["indexBytes"])
	}
	if out["indexBytesPerTriple"].(float64) <= 0 {
		t.Fatalf("indexBytesPerTriple = %v", out["indexBytesPerTriple"])
	}
}

// TestStatsCompressionRatio checks a server over a sealed bulk-built
// store reports the compression ratio against the paper's layout.
func TestStatsCompressionRatio(t *testing.T) {
	b := core.NewBuilder(nil)
	for i := 0; i < 500; i++ {
		b.AddTriple(rdf.T(
			rdf.NewIRI(fmt.Sprintf("s%d", i%23)),
			rdf.NewIRI(fmt.Sprintf("p%d", i%5)),
			rdf.NewIRI(fmt.Sprintf("o%d", i%31)),
		))
	}
	srv := NewGraph(graph.Memory(b.BuildParallel(1)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var out map[string]any
	if code := getJSON(t, ts.URL+"/stats", &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if r, ok := out["compressionRatio"].(float64); !ok || r < 1.5 {
		t.Fatalf("compressionRatio = %v, want >= 1.5", out["compressionRatio"])
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/triples")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /triples status = %d, want 405", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sparql", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /sparql status = %d, want 405", resp2.StatusCode)
	}
}

func TestLiteralAndBlankRendering(t *testing.T) {
	stb := core.NewBuilder(nil)
	stb.AddTriple(rdf.T(rdf.NewBlank("b0"), rdf.NewIRI("http://ex/label"), rdf.NewLiteral("hello")))
	st := stb.Build()
	ts := httptest.NewServer(New(st).Handler())
	defer ts.Close()
	q := url.QueryEscape(`SELECT ?s ?o WHERE { ?s <http://ex/label> ?o }`)
	var res sparqlResults
	getJSON(t, ts.URL+"/sparql?query="+q, &res)
	if len(res.Results.Bindings) != 1 {
		t.Fatalf("bindings = %d", len(res.Results.Bindings))
	}
	b := res.Results.Bindings[0]
	if b["s"].Type != "bnode" || b["o"].Type != "literal" || b["o"].Value != "hello" {
		t.Fatalf("bindings = %+v", b)
	}
}

func TestAskQueryJSON(t *testing.T) {
	ts, _ := newTestServer(t)
	q := url.QueryEscape(`ASK { <http://ex/alice> <http://ex/knows> <http://ex/bob> }`)
	var out map[string]any
	if code := getJSON(t, ts.URL+"/sparql?query="+q, &out); code != 200 {
		t.Fatalf("status = %d", code)
	}
	if out["boolean"] != true {
		t.Fatalf("boolean = %v, want true", out["boolean"])
	}
	q = url.QueryEscape(`ASK { <http://ex/bob> <http://ex/knows> <http://ex/alice> }`)
	getJSON(t, ts.URL+"/sparql?query="+q, &out)
	if out["boolean"] != false {
		t.Fatalf("boolean = %v, want false", out["boolean"])
	}
}
