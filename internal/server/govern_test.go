package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/govern"
	"hexastore/internal/rdf"
)

// governStore builds a store whose <takes> self-join is expensive
// enough to outlive a short query timeout.
func governStore(students, courses, deg int) *core.Store {
	stb := core.NewBuilder(nil)
	takes := rdf.NewIRI("http://ex/takes")
	for s := 0; s < students; s++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://ex/student%03d", s))
		for d := 0; d < deg; d++ {
			stb.AddTriple(rdf.T(subj, takes, rdf.NewIRI(fmt.Sprintf("http://ex/course%02d", (s+d*7)%courses))))
		}
	}
	st := stb.Build()
	return st
}

const governJoin = `SELECT ?a ?b WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c }`

func governServer(t *testing.T, st *core.Store, cfg govern.Config, timeout time.Duration, budget int64) (*httptest.Server, *Server) {
	t.Helper()
	srv := New(st)
	cfg.Logf = func(string, ...any) {}
	srv.SetGovernor(cfg)
	srv.SetQueryLimits(timeout, budget)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

func queryStatus(t *testing.T, base, query string) (int, string) {
	t.Helper()
	resp, err := http.Get(base + "/sparql?query=" + url.QueryEscape(query))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// TestQueryTimeoutAnswers408 asserts a query that outlives the
// per-query deadline maps to 408, not 500, and bumps the canceled
// counter.
func TestQueryTimeoutAnswers408(t *testing.T) {
	ts, srv := governServer(t, governStore(800, 40, 20), govern.Config{}, 5*time.Millisecond, 0)
	code, body := queryStatus(t, ts.URL, governJoin)
	if code != http.StatusRequestTimeout {
		t.Fatalf("status = %d (%s), want 408", code, body)
	}
	if st := srv.GovernorStats(); st.Canceled < 1 {
		t.Fatalf("canceled counter = %d, want >= 1", st.Canceled)
	}
}

// TestBudgetKillAnswers503 asserts a budget-killed query maps to
// 503 + Retry-After and bumps the budget-kill counter: the join's result
// rows alone are far over the tiny limit.
func TestBudgetKillAnswers503(t *testing.T) {
	ts, srv := governServer(t, governStore(120, 12, 6), govern.Config{}, 0, 4096)
	code, body := queryStatus(t, ts.URL, governJoin)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", code, body)
	}
	if !strings.Contains(body, "budget") {
		t.Fatalf("body %q does not mention the budget", body)
	}
	if st := srv.GovernorStats(); st.BudgetKills < 1 {
		t.Fatalf("budgetKills counter = %d, want >= 1", st.BudgetKills)
	}
}

// TestAdmissionRejectAnswers503 fills the single execution slot with a
// slow query and asserts the next arrival sheds with 503 + Retry-After
// (no queue configured) and counts as rejected.
func TestAdmissionRejectAnswers503(t *testing.T) {
	ts, srv := governServer(t, governStore(800, 40, 20),
		govern.Config{MaxConcurrent: 1, MaxQueue: 0}, 300*time.Millisecond, 0)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		queryStatus(t, ts.URL, governJoin) // occupies the slot until its timeout
	}()
	time.Sleep(50 * time.Millisecond)
	code, body := queryStatus(t, ts.URL, governJoin)
	wg.Wait()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d (%s), want 503", code, body)
	}
	if st := srv.GovernorStats(); st.Rejected < 1 {
		t.Fatalf("rejected counter = %d, want >= 1", st.Rejected)
	}
}

// TestClientDisconnectObservedAs499 cancels the client's request
// mid-query and asserts the governor records it as canceled; the 499
// never reaches a client (the connection is gone), so the observable
// contract is the counter plus a non-nil transport error.
func TestClientDisconnectObservedAs499(t *testing.T) {
	ts, srv := governServer(t, governStore(800, 40, 20), govern.Config{}, 0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET",
		ts.URL+"/sparql?query="+url.QueryEscape(governJoin), nil)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Fatal("request succeeded; expected the cancel to kill it")
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.GovernorStats().Canceled < 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := srv.GovernorStats(); st.Canceled < 1 {
		t.Fatalf("canceled counter = %d, want >= 1 after client disconnect", st.Canceled)
	}
}

// TestWriteQueryErrorStatusMapping unit-tests the error→status table,
// including the 499 no live client can observe.
func TestWriteQueryErrorStatusMapping(t *testing.T) {
	srv := New(core.New())
	cases := []struct {
		err  error
		want int
	}{
		{context.DeadlineExceeded, http.StatusRequestTimeout},
		{context.Canceled, statusClientClosedRequest},
		{fmt.Errorf("wrap: %w", govern.ErrBudgetExceeded), http.StatusServiceUnavailable},
		{fmt.Errorf("wrap: %w", govern.ErrRejected), http.StatusServiceUnavailable},
		{fmt.Errorf("some engine failure"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		r := httptest.NewRequest("GET", "/sparql", nil)
		srv.writeQueryError(w, r, tc.err)
		if w.Code != tc.want {
			t.Errorf("writeQueryError(%v) = %d, want %d", tc.err, w.Code, tc.want)
		}
		if tc.want == http.StatusServiceUnavailable && w.Header().Get("Retry-After") == "" {
			t.Errorf("writeQueryError(%v): missing Retry-After", tc.err)
		}
	}
}

// TestStatsIncludesGovernCounters asserts /stats carries the governor
// section once one is installed.
func TestStatsIncludesGovernCounters(t *testing.T) {
	ts, _ := governServer(t, governStore(10, 4, 2), govern.Config{}, 0, 0)
	if code, _ := queryStatus(t, ts.URL, `SELECT ?a WHERE { ?a <http://ex/takes> ?c }`); code != 200 {
		t.Fatalf("warm-up query status = %d", code)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Govern *govern.Stats `json:"govern"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Govern == nil {
		t.Fatal("/stats has no govern section")
	}
	if out.Govern.Admitted < 1 {
		t.Fatalf("admitted = %d, want >= 1", out.Govern.Admitted)
	}
}

// TestRequestTimeoutAnswers408 bounds a multi-second join with a 50 ms
// request timeout and no per-query limit: the deadline middleware's
// context must stop the join within a few deadlines, the client reads a
// 408, and — the handler runs on the caller's goroutine — nothing is
// left running behind the response.
func TestRequestTimeoutAnswers408(t *testing.T) {
	const timeout = 50 * time.Millisecond
	srv := New(governStore(800, 40, 20))
	srv.SetGovernor(govern.Config{Logf: func(string, ...any) {}})
	srv.SetRequestTimeout(timeout)
	h := srv.Handler()

	before := runtime.NumGoroutine()
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(governJoin), nil))
	if took := time.Since(start); took > 10*timeout {
		t.Errorf("answered after %s, want within a few %s deadlines", took, timeout)
	}
	if rec.Code != http.StatusRequestTimeout {
		t.Fatalf("status = %d (%s), want 408", rec.Code, rec.Body)
	}
	if st := srv.GovernorStats(); st.Canceled != 1 || st.Active != 0 {
		t.Errorf("governor counts canceled=%d active=%d, want 1 and 0", st.Canceled, st.Active)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("%d goroutines after the timed-out request, %d before it", now, before)
	}
}

// TestSlowQueryLogCostsFastQueriesNothing serves the same fast query
// with the slow-query log on and off: the log's detail (cache verdicts,
// the three most expensive spans) is only rendered for a query that was
// slow, and spans hold their patterns unrendered, so a fast query pays
// for the span tree alone (35 allocations for this two-step join: seven
// spans and their attributes) — not for sorting and formatting them on
// every request (96 before).
func TestSlowQueryLogCostsFastQueriesNothing(t *testing.T) {
	st := joinStore(200, 20, 3)
	target := "/sparql?query=" + url.QueryEscape(largeJoin+" LIMIT 5")
	allocs := func(slow time.Duration) float64 {
		srv := New(st)
		srv.SetResultCacheBytes(0) // every request evaluates, and so traces
		srv.SetGovernor(govern.Config{SlowQuery: slow, Logf: func(string, ...any) {
			t.Error("a fast query reached the slow-query log")
		}})
		h := srv.Handler()
		serve := func() {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
		}
		serve()
		// The least of three averages over many requests: a count also
		// carries whatever the runtime allocates beside the request —
		// under the race detector, sync.Pool drops a random share of what
		// it is given, so pooled buffers are allocated again — which only
		// adds, and averages out slowly.
		least := testing.AllocsPerRun(200, serve)
		for i := 0; i < 2; i++ {
			least = min(least, testing.AllocsPerRun(200, serve))
		}
		return least
	}
	off, on := allocs(0), allocs(time.Minute)
	t.Logf("allocations per request: %.0f with the slow-query log off, %.0f with it on", off, on)
	if on > off+40 {
		t.Errorf("the slow-query log costs a fast query %.0f allocations (%.0f → %.0f), want at most 40", on-off, off, on)
	}
}
