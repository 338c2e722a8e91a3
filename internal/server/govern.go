package server

// Query governance for the /sparql endpoint: admission control (max
// concurrent queries with a bounded, deadline-aware wait queue),
// per-query deadlines and memory budgets, a slow-query log, and typed
// HTTP error mapping. This subsumes the generic -max-inflight semaphore
// for query traffic: the governor knows *why* a query ended (canceled,
// timed out, budget-killed, rejected) and surfaces each outcome as a
// distinct status code and /stats counter, where the load shedder could
// only answer an undifferentiated 503.

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net/http"
	"time"

	"hexastore/internal/govern"
	"hexastore/internal/obs"
	"hexastore/internal/sparql"
)

// statusClientClosedRequest is the nginx-convention status for "the
// client went away before the response was ready". It never reaches the
// client (the connection is gone); it makes access logs and tests
// distinguish client disconnects from server faults.
const statusClientClosedRequest = 499

// SetGovernor installs the query governor on /sparql. cfg.Logf defaults
// to log.Printf so slow-query lines land on the server log. Configure
// before Handler; a nil-config governor still counts active queries.
func (s *Server) SetGovernor(cfg govern.Config) {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	s.gov = govern.New(cfg)
	// Remember the threshold: serveQuery traces queries whenever the
	// slow-query log is live, so a slow line can name its most expensive
	// spans instead of just reporting a duration.
	s.slowQuery = cfg.SlowQuery
	s.registerGovernorMetrics()
}

// SetQueryLimits bounds every governed query: timeout is the per-query
// deadline (0 = none; the client's own context still applies) and
// memBudget is the per-query memory limit in bytes (0 = unlimited):
// crossing it fails the query with 503 instead of taking the process
// down. Configure before Handler.
func (s *Server) SetQueryLimits(timeout time.Duration, memBudget int64) {
	s.queryTimeout = timeout
	s.memBudget = memBudget
}

// GovernorStats returns the governor's counters (zero when no governor
// is installed).
func (s *Server) GovernorStats() govern.Stats { return s.gov.Stats() }

// serveQuery runs one governed SPARQL query: admission, limits,
// evaluation, observation, response. Tracing is enabled when the query
// asks for it (EXPLAIN / EXPLAIN ANALYZE prefix, or explainParam, the
// request's explain=1) or when the slow-query log is live — in the latter
// case the trace's most expensive spans ride along on the slow-query line.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, queryText string, explainParam bool) {
	q, err := sparql.Parse(queryText)
	if err != nil {
		httpError(w, http.StatusBadRequest, "query: %v", err)
		return
	}
	var tr *obs.Trace
	if q.Explain != sparql.ExplainNone || explainParam || s.slowQuery > 0 {
		tr = obs.NewTrace("query")
	}

	ctx := r.Context()
	start := time.Now()
	release, err := s.gov.Acquire(ctx)
	if err != nil {
		s.gov.Observe(queryText, time.Since(start), err, nil)
		s.writeQueryError(w, r, err)
		return
	}
	defer release()

	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
		defer cancel()
	}
	var m *govern.Meter
	if s.memBudget > 0 {
		m = govern.NewMeter(s.memBudget)
	}

	unlock := s.rlock()
	// ?explain=1 bypasses the result cache (EXPLAIN-prefixed queries
	// bypass it inside the evaluator): a trace must describe the
	// execution that produced these rows, never ride on cached ones.
	res, err := s.pl.EvalColumnar(ctx, q, sparql.EvalOptions{
		Meter: m, Trace: tr, NoResultCache: explainParam,
	})
	unlock()
	tr.Finish()
	if d := time.Since(start); s.slowQuery > 0 && d >= s.slowQuery {
		// Only a query the governor will log pays for the log line's
		// detail: the cache verdicts and the three most expensive spans.
		s.gov.Observe(queryText, d, err, m, cacheDetail(tr), tr.FormatTop(3))
	} else {
		s.gov.Observe(queryText, d, err, m)
	}
	if err != nil {
		s.writeQueryError(w, r, err)
		return
	}
	if q.Explain == sparql.ExplainNone && !explainParam {
		// EXPLAIN (plan-only) returns the plan tree with no bindings;
		// EXPLAIN ANALYZE and ?explain=1 return bindings plus the executed
		// trace. Either way the span tree is one JSON field on the normal
		// results document, so existing clients keep parsing. A trace kept
		// only for the slow-query log stays out of the response.
		tr = nil
	}
	w.Header().Set("Content-Type", "application/sparql-results+json")
	_ = writeResultsJSON(w, res, tr) // a failed write means the client is gone
}

// cacheDetail summarizes the trace's cache annotations for the
// slow-query log: "cache result=hit" / "cache plan=miss" /
// "cache result=miss plan=hit", or "" when neither cache was consulted.
// The result-cache verdict sits on the trace root; the plan-cache
// verdict on the (possibly nested) plan span.
func cacheDetail(tr *obs.Trace) string {
	out := ""
	if v, ok := tr.Attr("resultCache"); ok {
		out = "result=" + fmt.Sprint(v)
	}
	if v, ok := findAttr(tr, "planCache"); ok {
		if out != "" {
			out += " "
		}
		out += "plan=" + fmt.Sprint(v)
	}
	if out == "" {
		return ""
	}
	return "cache " + out
}

// findAttr depth-first-searches the span tree for key.
func findAttr(sp *obs.Span, key string) (any, bool) {
	if v, ok := sp.Attr(key); ok {
		return v, true
	}
	for _, c := range sp.Children() {
		if v, ok := findAttr(c, key); ok {
			return v, true
		}
	}
	return nil, false
}

// writeQueryError maps a query failure to its HTTP status:
//
//   - client disconnected → 499 (never a 500: the server did nothing
//     wrong, and the connection is gone anyway)
//   - deadline exceeded (per-query timeout, request timeout or client
//     deadline) → 408
//   - memory budget exhausted → 503 + Retry-After (the query may
//     succeed when the server is less loaded or with a tighter query)
//   - admission rejected / queue timeout → 503 + Retry-After
//   - syntax errors → 400; everything else → 500
func (s *Server) writeQueryError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case r.Context().Err() != nil && errors.Is(r.Context().Err(), context.Canceled):
		httpError(w, statusClientClosedRequest, "client closed request: %v", err)
	case errors.Is(err, context.DeadlineExceeded):
		httpError(w, http.StatusRequestTimeout, "query deadline exceeded: %v", err)
	case errors.Is(err, context.Canceled):
		httpError(w, statusClientClosedRequest, "query canceled: %v", err)
	case errors.Is(err, govern.ErrBudgetExceeded):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "query rejected: %v", err)
	case errors.Is(err, govern.ErrRejected):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "query rejected: %v", err)
	default:
		if _, ok := err.(*sparql.SyntaxError); ok {
			httpError(w, http.StatusBadRequest, "query: %v", err)
			return
		}
		httpError(w, http.StatusInternalServerError, "query: %v", err)
	}
}
