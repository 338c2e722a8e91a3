// Package server exposes a Graph backend over HTTP: a SPARQL-subset
// query endpoint returning results in the SPARQL 1.1 Query Results JSON
// format, a SPARQL UPDATE endpoint (INSERT DATA / DELETE DATA), a bulk
// N-Triples/Turtle ingestion endpoint, and store statistics. The server
// is backend-neutral — the same HTTP API serves the in-memory
// Hexastore, the disk-based Hexastore, or the baseline triples table.
// cmd/hexserver wires it to a listener; the package itself is
// transport-agnostic and tested with httptest.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/govern"
	"hexastore/internal/graph"
	"hexastore/internal/obs"
	"hexastore/internal/rdf"
	"hexastore/internal/replica"
	"hexastore/internal/sparql"
)

// Server serves one Graph backend. It is safe for concurrent use: the
// backend and the planner carry their own synchronization, and mutating
// requests are serialized against query evaluation (see reqMu) — unless
// the backend offers consistent snapshots (graph.Snapshotter: the delta
// overlay, a sealed memory store), in which case queries and updates run
// fully concurrently: each query pins one immutable version and updates
// never block readers.
type Server struct {
	g graph.Graph

	// snapshots records that g is a graph.Snapshotter, so request-level
	// writer exclusion is unnecessary.
	snapshots bool

	// reqMu orders whole requests on the backends that mutate in place
	// (disk, baseline): queries share it, mutations take it exclusively.
	// Query evaluation nests Match calls (a fetch inside another's
	// callback re-enters the disk store's read lock), so a store-level
	// writer arriving between two nested read locks would deadlock reader
	// and writer; excluding writers for the duration of a query removes
	// that interleaving. Snapshot-capable backends skip this lock
	// entirely.
	reqMu sync.RWMutex

	pl *sparql.Planner

	// readOnly rejects every mutating endpoint with 403; set for WAL
	// replicas, whose state must come only from the followed log.
	readOnly bool

	// draining flips /readyz to 503 ahead of listener shutdown, so a
	// load balancer stops routing here while in-flight requests finish
	// (set via SetDraining; see cmd/hexserver's SIGTERM path).
	draining atomic.Bool

	// inflight, when non-nil, is the load-shedding semaphore: a request
	// that cannot take a slot immediately is rejected with 503 and
	// Retry-After instead of queueing without bound. Probes bypass it.
	inflight chan struct{}

	// reqTimeout bounds each non-probe request; 0 means unlimited.
	reqTimeout time.Duration

	// gov, when non-nil, governs /sparql: admission control, per-query
	// outcome counters, slow-query log (see govern.go). Governed query
	// traffic bypasses the generic inflight semaphore — the governor is
	// its replacement for this endpoint, with typed errors and a bounded
	// deadline-aware queue instead of immediate shedding.
	gov *govern.Governor

	// queryTimeout and memBudget bound each governed query (see
	// SetQueryLimits); zero values mean unlimited.
	queryTimeout time.Duration
	memBudget    int64

	// degradedCheck, when non-nil, reports the backend's sticky failure
	// state (a poisoned WAL, a failed compaction). A non-nil error fails
	// /readyz and sheds mutating requests with 503 — accepting a write
	// that cannot be made durable would be silent data loss.
	degradedCheck func() error

	// followers and maxLag feed replica readiness: /readyz fails while
	// any follower is degraded or has not heard from the leader within
	// maxLag.
	followers []*replica.Follower
	maxLag    time.Duration

	// Observability (see metrics.go): reg is the per-server metric
	// registry exposed on /metrics (merged with obs.Default, where the
	// storage packages publish); slowQuery mirrors the governor's
	// threshold so serveQuery knows to trace queries for the slow-query
	// log; pprof mounts net/http/pprof on the root mux when set.
	reg          *obs.Registry
	httpSeconds  *obs.HistogramVec
	httpRequests *obs.CounterVec
	slowQuery    time.Duration
	pprof        bool
}

// New returns a Server over the in-memory store st, behind a delta
// overlay without a WAL: a sealed store takes writes only through one.
func New(st *core.Store) *Server {
	ov, err := delta.New(graph.Memory(st), delta.Options{})
	if err != nil {
		panic(err) // without a WAL, opening an overlay cannot fail
	}
	return NewGraph(ov)
}

// DefaultResultCacheBytes is the server's default result-cache budget.
// Small enough to be invisible next to the indexes, large enough that a
// hot read query's answer survives between repeats.
const DefaultResultCacheBytes = 32 << 20

// NewGraph returns a Server over any Graph backend. Both query caches
// are on by default (plan cache at sparql.DefaultPlanCacheSize, result
// cache at DefaultResultCacheBytes); SetPlanCacheSize and
// SetResultCacheBytes retune or disable them.
func NewGraph(g graph.Graph) *Server {
	_, snapshots := g.(graph.Snapshotter)
	pl := sparql.NewPlanner(g)
	pl.SetResultCacheBytes(DefaultResultCacheBytes)
	return &Server{g: g, snapshots: snapshots, pl: pl}
}

// SetPlanCacheSize resizes the planner's query-shape plan cache
// (entries; <= 0 disables it).
func (s *Server) SetPlanCacheSize(n int) { s.pl.SetPlanCacheSize(n) }

// SetResultCacheBytes resizes the planner's snapshot-epoch result cache
// (bytes; <= 0 disables it).
func (s *Server) SetResultCacheBytes(n int64) { s.pl.SetResultCacheBytes(n) }

// rlock acquires the shared request lock (no-op on snapshot backends)
// and returns the unlock.
func (s *Server) rlock() func() {
	if s.snapshots {
		return func() {}
	}
	s.reqMu.RLock()
	return s.reqMu.RUnlock
}

// wlock acquires the exclusive request lock (no-op on snapshot
// backends, which serialize writers internally without blocking
// readers) and returns the unlock.
func (s *Server) wlock() func() {
	if s.snapshots {
		return func() {}
	}
	s.reqMu.Lock()
	return s.reqMu.Unlock
}

// Graph returns the backend the server serves.
func (s *Server) Graph() graph.Graph { return s.g }

// SetReadOnly switches the mutating endpoints (/sparql update,
// /triples) between accepting writes and rejecting them with 403.
// Queries are unaffected. Replica servers (hexserver -follow) are
// read-only: their state converges from the leader's WAL, and a direct
// write would fork them from it.
func (s *Server) SetReadOnly(ro bool) { s.readOnly = ro }

// Handler returns the HTTP routing table:
//
//	GET/POST /sparql   query=<SELECT ...>       → application/sparql-results+json
//	POST     /sparql   update=<INSERT DATA ...> → {"inserted": n, "deleted": n}
//	                   (or body with Content-Type application/sparql-update)
//	POST     /triples  body: N-Triples|Turtle   → {"added": n} (Content-Type text/turtle selects Turtle)
//	GET      /stats                             → store statistics JSON
//	GET      /healthz                           → 200 ok (process liveness only)
//	GET      /readyz                            → 200 ready / 503 + reasons (see health.go)
//
// The data endpoints sit behind the resilience middleware: panic
// recovery (a crashing request answers 500 instead of killing the
// process), the per-request deadline, and the load-shedding semaphore.
// The probe endpoints bypass all three — a saturated or degraded
// server must still answer its health checks, since those are exactly
// the signals that pull it from rotation. Configure the middleware
// (SetMaxInflight, SetRequestTimeout, SetDegradedCheck, SetFollowers)
// before calling Handler.
func (s *Server) Handler() http.Handler {
	s.metricsInit()
	mux := http.NewServeMux()
	mux.HandleFunc("/sparql", s.instrument("/sparql", s.handleSPARQL))
	mux.HandleFunc("/triples", s.instrument("/triples", s.handleTriples))
	mux.HandleFunc("/stats", s.instrument("/stats", s.handleStats))

	h := s.withDeadline(mux)
	h = s.shedLoad(h)
	h = recoverPanics(h)

	root := http.NewServeMux()
	root.Handle("/", h)
	root.HandleFunc("/healthz", s.handleHealthz)
	root.HandleFunc("/readyz", s.handleReadyz)
	// /metrics sits beside the probes, outside the shedding middleware: a
	// saturated server must still be scrapable — that is when the metrics
	// matter most.
	root.Handle("/metrics", obs.Handler(s.reg, obs.Default))
	if s.pprof {
		mountPprof(root)
	}
	return root
}

// EnablePprof mounts net/http/pprof's profile endpoints under
// /debug/pprof/ on the next Handler call (the hexserver -pprof flag).
// Off by default: profiling endpoints expose internals and add
// overhead-on-demand, so they are strictly opt-in.
func (s *Server) EnablePprof() { s.pprof = true }

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSPARQL(w http.ResponseWriter, r *http.Request) {
	// The query string is parsed once: url.Values unescapes all of it
	// into a new map on every call.
	var queryText, updateText string
	var explain bool
	switch r.Method {
	case http.MethodGet:
		params := r.URL.Query()
		queryText, explain = params.Get("query"), params.Get("explain") == "1"
	case http.MethodPost:
		ct := r.Header.Get("Content-Type")
		switch {
		case strings.HasPrefix(ct, "application/sparql-query"),
			strings.HasPrefix(ct, "application/sparql-update"):
			body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
			if err != nil {
				httpError(w, http.StatusBadRequest, "read body: %v", err)
				return
			}
			if strings.HasPrefix(ct, "application/sparql-update") {
				updateText = string(body)
			} else {
				queryText, explain = string(body), r.URL.Query().Get("explain") == "1"
			}
		default:
			if err := r.ParseForm(); err != nil {
				httpError(w, http.StatusBadRequest, "parse form: %v", err)
				return
			}
			queryText, explain = r.Form.Get("query"), r.Form.Get("explain") == "1"
			updateText = r.Form.Get("update")
		}
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
		return
	}

	if strings.TrimSpace(updateText) != "" {
		s.execUpdate(w, r, updateText)
		return
	}
	if strings.TrimSpace(queryText) == "" {
		httpError(w, http.StatusBadRequest, "missing query parameter")
		return
	}

	s.serveQuery(w, r, queryText, explain)
}

// execUpdate applies a SPARQL UPDATE request and reports its effect. On
// an overlay backend the request is one atomic batch (single WAL group
// commit) and concurrent queries keep streaming from their snapshots.
// Updates share the governor's admission control with queries (one
// concurrency pool for the whole endpoint) and are checked against the
// request context at request granularity — a batch is never aborted
// half-applied.
func (s *Server) execUpdate(w http.ResponseWriter, r *http.Request, updateText string) {
	if s.readOnly {
		httpError(w, http.StatusForbidden, "read-only replica: updates must go to the leader")
		return
	}
	if s.shedDegradedWrite(w) {
		return
	}
	start := time.Now()
	release, err := s.gov.Acquire(r.Context())
	if err != nil {
		s.gov.Observe(updateText, time.Since(start), err, nil)
		s.writeQueryError(w, r, err)
		return
	}
	defer release()
	defer s.wlock()()
	res, err := sparql.ExecUpdateContext(r.Context(), s.g, updateText)
	s.gov.Observe(updateText, time.Since(start), err, nil)
	if err != nil {
		if _, ok := err.(*sparql.SyntaxError); ok {
			httpError(w, http.StatusBadRequest, "update: %v", err)
			return
		}
		s.writeQueryError(w, r, err)
		return
	}
	if res.Inserted > 0 || res.Deleted > 0 {
		if err := graph.Flush(s.g); err != nil {
			httpError(w, http.StatusInternalServerError, "flush: %v", err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

func (s *Server) handleTriples(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.readOnly {
		httpError(w, http.StatusForbidden, "read-only replica: ingestion must go to the leader")
		return
	}
	if s.shedDegradedWrite(w) {
		return
	}
	ct := r.Header.Get("Content-Type")
	body := io.LimitReader(r.Body, 256<<20)

	var (
		triples []rdf.Triple
		err     error
	)
	if strings.HasPrefix(ct, "text/turtle") {
		triples, err = rdf.NewTurtleReader(body).ReadAll()
	} else {
		triples, err = rdf.NewReader(body).ReadAll()
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "parse: %v", err)
		return
	}
	if err := r.Context().Err(); err != nil {
		// The deadline passed (or the client left) while the body was read
		// and parsed: give up before applying anything, never half-way.
		s.writeQueryError(w, r, err)
		return
	}
	defer s.wlock()()
	// One batch: on a BatchUpdater backend (the delta overlay) the whole
	// ingest is a single WAL commit and version swap.
	ops := make([]graph.TripleOp, len(triples))
	for i, t := range triples {
		ops[i] = graph.TripleOp{T: t}
	}
	added, _, err := graph.ApplyTriples(s.g, ops)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "insert: %v", err)
		return
	}
	if added > 0 {
		if err := graph.Flush(s.g); err != nil {
			httpError(w, http.StatusInternalServerError, "flush: %v", err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int{"added": added, "total": s.g.Len()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	dict := s.g.Dictionary()
	out := map[string]any{
		"triples":         s.g.Len(),
		"dictionaryTerms": dict.Len(),
		"dictionaryBytes": dict.SizeBytes(),
	}
	// The query caches report their counters under one block (emitted
	// for every backend): plan-cache occupancy and
	// hit/miss/eviction totals, result-cache bytes and totals, and how
	// often a write invalidated the resident result epoch.
	cs := s.pl.CacheStats()
	out["cache"] = map[string]any{
		"planCacheEnabled":     cs.PlanEnabled,
		"planCacheEntries":     cs.PlanEntries,
		"planCacheCapacity":    cs.PlanCapacity,
		"planCacheHits":        cs.PlanHits,
		"planCacheMisses":      cs.PlanMisses,
		"planCacheEvictions":   cs.PlanEvictions,
		"resultCacheEnabled":   cs.ResultEnabled,
		"resultCacheEntries":   cs.ResultEntries,
		"resultCacheBytes":     cs.ResultBytes,
		"resultCacheCapBytes":  cs.ResultCapBytes,
		"resultCacheHits":      cs.ResultHits,
		"resultCacheMisses":    cs.ResultMisses,
		"resultCacheEvictions": cs.ResultEvictions,
		"epochChurn":           cs.EpochChurn,
	}
	// The query governor reports its live and cumulative counters:
	// active/queued now, and admitted/rejected/canceled/budget-killed/
	// slow-query totals since start.
	if s.gov != nil {
		out["govern"] = s.gov.Stats()
	}
	// A delta overlay reports the live-update subsystem's state: delta
	// size and chunk count, WAL footprint, compaction count. The index-layout stats
	// below then describe the overlay's main store.
	if ov, ok := s.g.(*delta.Overlay); ok {
		ds := ov.Stats()
		out["deltaAdds"] = ds.DeltaAdds
		out["deltaDels"] = ds.DeltaDels
		out["deltaChunks"] = ds.DeltaChunks
		out["compactThreshold"] = ds.CompactThreshold
		out["compactions"] = ds.Compactions
		out["mainTriples"] = ds.MainTriples
		if ds.WALPath != "" {
			out["walBytes"] = ds.WALBytes
			out["walPath"] = ds.WALPath
		}
	}
	// The in-memory Hexastore additionally reports its distinct
	// subjects, predicates and objects — head counts its index headers
	// hold; on disk each would be a scan of a whole tree, so a disk
	// backend omits them — its index layout, the §4.1 space-expansion
	// factor, and the physical footprint of the packed index: heap bytes,
	// bytes per triple, the compression ratio against the paper's
	// layout's estimated cost for the same content, what the arenas hold,
	// how much of that is dead, and in how many segments.
	if st := s.memStore(); st != nil {
		out["distinctSubjects"] = st.Heads(core.SPO)
		out["distinctPreds"] = st.Heads(core.PSO)
		out["distinctObjects"] = st.Heads(core.OSP)
		stats := st.Stats()
		out["headers"] = stats.Headers
		out["vectorEntries"] = stats.VectorEntries
		out["listEntries"] = stats.ListEntries
		out["expansionFactor"] = stats.ExpansionFactor()
		out["indexSizeBytes"] = stats.SizeBytes()
		is := st.IndexStats()
		out["indexBytes"] = is.Bytes
		out["indexBytesPerTriple"] = is.BytesPerTriple()
		as := st.ArenaStats()
		out["indexArenaBytes"] = as.Bytes
		out["indexDeadBytes"] = as.DeadBytes
		out["indexSegments"] = as.Segments
		if is.Bytes > 0 {
			out["compressionRatio"] = float64(core.EstimateRawIndexBytes(stats)) / float64(is.Bytes)
		}
	}
	// The disk backend reports its on-disk footprint (pagefile plus
	// dictionary sidecar) per triple.
	if st := s.diskStore(); st != nil {
		if bytes, err := st.SizeBytes(); err == nil {
			out["diskBytes"] = bytes
			if n := st.Len(); n > 0 {
				out["diskBytesPerTriple"] = float64(bytes) / float64(n)
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}
