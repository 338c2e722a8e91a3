package server

// Prometheus-style instrumentation for the HTTP serving tier. Each
// Server owns a registry for its own families (per-endpoint HTTP
// latency and status counts, governor counters, follower lag, runtime
// gauges); /metrics merges it with obs.Default, where the storage
// packages (wal, delta, sparql) publish their process-wide
// families. A fresh Server re-registering runtime gauges on its own
// registry is always consistent; the governor funcs are re-pointed by
// SetGovernor, so the most recently configured governor is the one
// observed.

import (
	"net/http"
	"runtime"
	rtmetrics "runtime/metrics"
	"strconv"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/obs"
	"hexastore/internal/sparql"
)

// metricsInit lazily builds the per-server registry and its static
// families; called from every registration site so configuration order
// (SetGovernor/SetFollowers before or after Handler) does not matter.
func (s *Server) metricsInit() {
	if s.reg != nil {
		return
	}
	s.reg = obs.NewRegistry()
	s.httpSeconds = s.reg.HistogramVec(
		"hex_http_request_seconds",
		"HTTP request latency in seconds.",
		obs.LatencyBuckets, "endpoint")
	s.httpRequests = s.reg.CounterVec(
		"hex_http_requests_total",
		"HTTP requests served.",
		"endpoint", "code")
	s.reg.GaugeFunc("hex_goroutines",
		"Number of live goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.reg.GaugeFunc("hex_heap_bytes",
		"Bytes of allocated heap objects (runtime.MemStats.HeapAlloc).",
		runtimeMetric("/memory/classes/heap/objects:bytes"))
	s.reg.GaugeFunc("hex_heap_objects",
		"Number of allocated heap objects (runtime.MemStats.HeapObjects): what a GC cycle marks.",
		runtimeMetric("/gc/heap/objects:objects"))
	s.reg.CounterFunc("hex_gc_cycles_total",
		"Completed GC cycles.",
		runtimeMetric("/gc/cycles/total:gc-cycles"))
	s.registerCacheMetrics()
	s.registerPagefileMetrics()
	s.registerIndexMetrics()
}

// runtimeMetric returns a reader of one runtime/metrics value, which,
// unlike runtime.ReadMemStats, does not stop the world.
func runtimeMetric(name string) func() float64 {
	return func() float64 {
		sample := []rtmetrics.Sample{{Name: name}}
		rtmetrics.Read(sample)
		if sample[0].Value.Kind() != rtmetrics.KindUint64 {
			return 0
		}
		return float64(sample[0].Value.Uint64())
	}
}

// mainStore returns the store the served graph is, or is an overlay or
// adapter over. It resolves through the overlay's current main on every
// call, so what it returns follows compactions.
func (s *Server) mainStore() any {
	inner := s.g
	if ov, ok := inner.(*delta.Overlay); ok {
		inner = ov.Main()
	}
	return graph.Unwrap(inner)
}

// diskStore returns mainStore when it is a disk store; nil for every
// other backend.
func (s *Server) diskStore() *disk.Store {
	st, _ := s.mainStore().(*disk.Store)
	return st
}

// memStore returns mainStore when it is an in-memory Hexastore; nil for
// every other backend.
func (s *Server) memStore() *core.Store {
	st, _ := s.mainStore().(*core.Store)
	return st
}

// registerIndexMetrics publishes the memory store's index footprint: the
// heap bytes of the three arenas, the bytes in them that compactions have
// orphaned and the next rewrite reclaims — garbage accumulating between
// rewrites is the layout's one failure mode, and this is where it shows
// — and the head count per ordering. All are the store's running
// counters, read on scrape; other backends expose no such families.
func (s *Server) registerIndexMetrics() {
	if s.memStore() == nil {
		return
	}
	s.reg.GaugeFunc("hex_index_bytes",
		"Heap bytes of the packed index arenas.",
		func() float64 { return float64(s.memStore().ArenaStats().HeapBytes) })
	s.reg.GaugeFunc("hex_index_dead_bytes",
		"Arena bytes no head reaches anymore, awaiting a rewrite.",
		func() float64 { return float64(s.memStore().ArenaStats().DeadBytes) })
	for _, ix := range core.AllIndexes {
		s.reg.GaugeFunc("hex_index_heads",
			"Head resources per index ordering.",
			func() float64 { return float64(s.memStore().Heads(ix)) },
			"ordering", ix.String())
	}
}

// registerPagefileMetrics publishes the buffer pool counters of a
// disk-backed graph, so a cold or undersized pool shows as misses and
// evictions climbing with the request rate. The counters are the
// pagefile's own, read on scrape; other backends have no pool and
// expose no such families.
func (s *Server) registerPagefileMetrics() {
	st := s.diskStore()
	if st == nil {
		return
	}
	s.reg.CounterFunc("hex_pagefile_hits_total",
		"Page fetches served from the buffer pool.",
		func() float64 { return float64(st.FileStats().Hits) })
	s.reg.CounterFunc("hex_pagefile_misses_total",
		"Page fetches that read the page from disk.",
		func() float64 { return float64(st.FileStats().Misses) })
	s.reg.CounterFunc("hex_pagefile_evictions_total",
		"Pages evicted from the buffer pool to make room.",
		func() float64 { return float64(st.FileStats().Evictions) })
	s.reg.CounterFunc("hex_pagefile_writes_total",
		"Pages written to disk.",
		func() float64 { return float64(st.FileStats().Writes) })
}

// registerCacheMetrics publishes the planner's plan- and result-cache
// counters, read on scrape, so cache retuning is always reflected.
func (s *Server) registerCacheMetrics() {
	cs := func() sparql.CacheStats { return s.pl.CacheStats() }
	s.reg.CounterFunc("hex_plan_cache_hits_total",
		"Queries whose join order was served from the plan cache.",
		func() float64 { return float64(cs().PlanHits) })
	s.reg.CounterFunc("hex_plan_cache_misses_total",
		"Queries planned from scratch (shape absent, or priced before the store drifted by a tenth).",
		func() float64 { return float64(cs().PlanMisses) })
	s.reg.CounterFunc("hex_plan_cache_evictions_total",
		"Plan-cache entries evicted by the LRU capacity.",
		func() float64 { return float64(cs().PlanEvictions) })
	s.reg.GaugeFunc("hex_plan_cache_entries",
		"Query shapes currently memoized in the plan cache.",
		func() float64 { return float64(cs().PlanEntries) })
	s.reg.CounterFunc("hex_result_cache_hits_total",
		"Queries answered from the snapshot-epoch result cache.",
		func() float64 { return float64(cs().ResultHits) })
	s.reg.CounterFunc("hex_result_cache_misses_total",
		"Cacheable queries evaluated because no current-epoch entry existed.",
		func() float64 { return float64(cs().ResultMisses) })
	s.reg.CounterFunc("hex_result_cache_evictions_total",
		"Result-cache entries evicted by the byte cap.",
		func() float64 { return float64(cs().ResultEvictions) })
	s.reg.GaugeFunc("hex_result_cache_bytes",
		"Estimated bytes of cached query results resident now.",
		func() float64 { return float64(cs().ResultBytes) })
	s.reg.GaugeFunc("hex_result_cache_entries",
		"Query results resident in the result cache now.",
		func() float64 { return float64(cs().ResultEntries) })
	s.reg.CounterFunc("hex_cache_epoch_churn_total",
		"Times a write (epoch change) purged the resident result cache.",
		func() float64 { return float64(cs().EpochChurn) })
}

// registerGovernorMetrics points the governor families at the given
// governor's counters. Func-backed, so /metrics always reflects the
// live Stats() values without a second bookkeeping path.
func (s *Server) registerGovernorMetrics() {
	s.metricsInit()
	gov := s.gov
	s.reg.GaugeFunc("hex_govern_active",
		"Governed queries currently executing.",
		func() float64 { return float64(gov.Stats().Active) })
	s.reg.GaugeFunc("hex_govern_queued",
		"Governed queries waiting for admission.",
		func() float64 { return float64(gov.Stats().Queued) })
	s.reg.CounterFunc("hex_govern_admitted_total",
		"Queries admitted by the governor.",
		func() float64 { return float64(gov.Stats().Admitted) })
	s.reg.CounterFunc("hex_govern_rejected_total",
		"Queries rejected at admission (queue full or wait timeout).",
		func() float64 { return float64(gov.Stats().Rejected) })
	s.reg.CounterFunc("hex_govern_canceled_total",
		"Queries ended by cancellation or deadline.",
		func() float64 { return float64(gov.Stats().Canceled) })
	s.reg.CounterFunc("hex_govern_budget_kills_total",
		"Queries killed for crossing their memory limit.",
		func() float64 { return float64(gov.Stats().BudgetKills) })
	s.reg.CounterFunc("hex_govern_slow_queries_total",
		"Queries at or over the slow-query threshold.",
		func() float64 { return float64(gov.Stats().SlowQueries) })
}

// statusWriter captures the response status for the request counter.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.code == 0 {
		sw.code = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.code == 0 {
		sw.code = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// instrument wraps one endpoint with latency and status recording.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.httpSeconds.With(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		t0 := time.Now()
		h(sw, r)
		hist.Observe(time.Since(t0).Seconds())
		if sw.code == 0 {
			sw.code = http.StatusOK
		}
		s.httpRequests.With(endpoint, strconv.Itoa(sw.code)).Inc()
	}
}
