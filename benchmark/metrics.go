package main

// The benchmark's names in one place: the workloads, the end-to-end
// metrics with their bounds, and the per-layer metrics. BENCHMARK.json at
// the root of the repository carries the same lists for the driver;
// TestBenchmarkJSONMatchesTables keeps the two from drifting.

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median it may worsen by; 0 for per-layer metrics
}

// endToEnd lists what a client of hexserver sees, per workload. Every
// workload reports every one of them, and none is ever zero, so write
// latency (mixed-live only) and the error rate (normally zero) are not
// here: writes are server.write_* in the per-layer list, and failures are
// the failed/attempted counts of the result line.
//
// The bounds are three times the widest spread (interquartile range over
// median, ten runs with ten seeds) seen on any workload on the two-core
// sandbox — up to 8 % on scan-mem and mixed-live — capped at the
// contract's 25 %; README.md has the spreads. ISSUE 11 asked for 5 % and
// 10 %, which this machine's run-to-run noise does not allow.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"qps", "1/s", "higher", 0.24},
	{"read_p50_ms", "ms", "lower", 0.24},
	{"read_tail_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.24},
	{"store_bytes_per_triple", "B", "lower", 0.02},
}

// perLayer lists the traced run's metrics, named after the repository's
// packages. A workload whose requests never reach a layer reports 0 for
// that layer's metrics.
var perLayer = []metricDef{
	{Name: "http.rtt_us", Unit: "us", Better: "lower"},
	{Name: "http.resp_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.self_us", Unit: "us", Better: "lower"},
	{Name: "server.json_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "server.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "server.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "server.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "server.write_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.write_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "govern.rejected", Unit: "count", Better: "lower"},
	{Name: "govern.slow_queries", Unit: "count", Better: "lower"},
	{Name: "sparql.parse_us", Unit: "us", Better: "lower"},
	{Name: "sparql.eval_us", Unit: "us", Better: "lower"},
	{Name: "sparql.self_us", Unit: "us", Better: "lower"},
	{Name: "sparql.rows_per_op", Unit: "count", Better: "lower"},
	{Name: "sparql.ids_examined_per_row", Unit: "ratio", Better: "lower"},
	{Name: "sparql.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "sparql.alloc_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "sparql.plan_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sparql.result_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "sparql.epoch_churn", Unit: "count", Better: "lower"},
	{Name: "graph.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "graph.access_us", Unit: "us", Better: "lower"},
	{Name: "graph.ids_per_op", Unit: "count", Better: "lower"},
	{Name: "graph.view_fallbacks", Unit: "count", Better: "lower"},
	{Name: "core.build_s", Unit: "s", Better: "lower"},
	{Name: "core.index_bytes_per_triple", Unit: "B", Better: "lower"},
	{Name: "core.expansion_factor", Unit: "ratio", Better: "lower"},
	{Name: "core.compression_ratio", Unit: "ratio", Better: "higher"},
	{Name: "idlist.decode_ns_per_id", Unit: "ns", Better: "lower"},
	{Name: "idlist.seekge_ns", Unit: "ns", Better: "lower"},
	{Name: "idlist.mergefilter_ns_per_id", Unit: "ns", Better: "lower"},
	{Name: "idlist.bytes_per_id", Unit: "B", Better: "lower"},
	{Name: "dictionary.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "dictionary.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "dictionary.encode_ns_per_term", Unit: "ns", Better: "lower"},
	{Name: "dictionary.bytes_per_term", Unit: "B", Better: "lower"},
	{Name: "rdf.parse_ns_per_triple", Unit: "ns", Better: "lower"},
	{Name: "disk.bulkload_s", Unit: "s", Better: "lower"},
	{Name: "disk.bytes_per_triple", Unit: "B", Better: "lower"},
	{Name: "pagefile.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "pagefile.misses_per_op", Unit: "count", Better: "lower"},
	{Name: "pagefile.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "pagefile.writes_per_op", Unit: "count", Better: "lower"},
	{Name: "pagefile.get_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "pagefile.get_miss_us", Unit: "us", Better: "lower"},
	{Name: "btree.scan_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "btree.pages_per_lookup", Unit: "count", Better: "lower"},
	{Name: "wal.fsyncs_per_write", Unit: "ratio", Better: "lower"},
	{Name: "wal.bytes_per_triple", Unit: "B", Better: "lower"},
	{Name: "wal.fsync_mean_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.batch_records_mean", Unit: "count", Better: "higher"},
	{Name: "delta.compactions", Unit: "count", Better: "lower"},
	{Name: "delta.compact_s_total", Unit: "s", Better: "lower"},
	{Name: "delta.adds_end", Unit: "count", Better: "lower"},
	{Name: "delta.apply_us_per_batch", Unit: "us", Better: "lower"},
	{Name: "delta.read_amp", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// metric is one measured value on its way to the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name and renders exactly the names of a
// definition list, so a forgotten metric shows up as an error instead of a
// silently shorter result.
type metricSet map[string]float64

func (m metricSet) render(defs []metricDef, missingIsZero bool) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok && !missingIsZero {
			missing = append(missing, d.Name)
		}
		out[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return out, missing
}
