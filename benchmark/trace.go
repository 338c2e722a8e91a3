package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/govern"
	"hexastore/internal/graph"
	"hexastore/internal/pagefile"
	"hexastore/internal/rdf"
	"hexastore/internal/server"
	"hexastore/internal/sparql"
)

// span is one timed interval of the traced run. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root). The
// layers are replayed in separate passes, so a child's clock interval
// does not lie inside its parent's: nesting is by Parent, and a layer's
// self time is its duration minus its children's durations.
type span struct {
	ID      int                `json:"id"`
	Parent  int                `json:"parent"`
	Req     int                `json:"req"`
	Pass    string             `json:"pass"`
	Name    string             `json:"name"`
	StartUs float64            `json:"start_us"`
	DurUs   float64            `json:"dur_us"`
	Attrs   map[string]float64 `json:"attrs,omitempty"`
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func (r *recorder) add(parent, req int, pass, name string, start time.Time, dur time.Duration, attrs map[string]float64) int {
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Req: req, Pass: pass, Name: name,
		StartUs: micros(start.Sub(r.t0)), DurUs: micros(dur), Attrs: attrs,
	})
	return id
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// treq is one request of the traced replay.
type treq struct {
	write bool
	text  string
}

// traceRequests is the fixed prefix of the workload's streams the traced
// run replays; with writes, every fourth request is an update, close to
// the mix the timed window settles at.
func traceRequests(w workload, st *streams) []treq {
	reqs := make([]treq, 0, w.traceRequests)
	r, u := 0, 0
	for len(reqs) < w.traceRequests {
		if w.write && len(reqs)%4 == 3 {
			reqs = append(reqs, treq{write: true, text: st.writes[u]})
			u++
		} else {
			reqs = append(reqs, treq{text: st.reads.at(r)})
			r++
		}
	}
	return reqs
}

// backend is the workload's storage stack rebuilt in-process.
type backend struct {
	g       graph.Graph                 // bare graph the passes read
	fresh   func() (graph.Graph, error) // a new graph per pass when passes write (the overlay); nil otherwise
	mem     *core.Store                 // the memory store (memory and overlay workloads)
	dsk     *disk.Store                 // the disk store (lookup-disk)
	buildS  float64                     // core.build_s or disk.bulkload_s
	closers []func() error
}

func (b *backend) close() {
	for i := len(b.closers) - 1; i >= 0; i-- {
		b.closers[i]() //nolint:errcheck // scratch state, removed with the run directory
	}
}

// graphForPass returns the graph one pass runs over.
func (b *backend) graphForPass() (graph.Graph, error) {
	if b.fresh != nil {
		return b.fresh()
	}
	return b.g, nil
}

// openBackend builds the store the way cmd/hexserver does for the
// workload's flags, timing the build.
func openBackend(cfg runConfig, run string, ds dataset) (*backend, error) {
	workers := runtime.GOMAXPROCS(0)
	b := &backend{}
	start := time.Now()
	if cfg.workload.disk {
		f, err := os.Open(ds.Path)
		if err != nil {
			return nil, err
		}
		triples, err := rdf.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			return nil, err
		}
		st, err := disk.Create(filepath.Join(run, "trace-store"), disk.Options{CacheSize: diskCachePages})
		if err != nil {
			return nil, err
		}
		b.closers = append(b.closers, st.Close)
		ids := core.EncodeTriples(st.Dictionary(), triples, workers)
		if err := st.BulkLoadParallel(ids, workers); err != nil {
			b.close()
			return nil, err
		}
		if err := st.Flush(); err != nil {
			b.close()
			return nil, err
		}
		b.buildS = time.Since(start).Seconds()
		b.dsk, b.g = st, graph.Disk(st)
		return b, nil
	}

	f, err := os.Open(ds.Path)
	if err != nil {
		return nil, err
	}
	bld := core.NewBuilder(nil)
	_, err = bld.AddNTriples(f, workers)
	f.Close()
	if err != nil {
		return nil, err
	}
	b.mem = bld.BuildParallel(workers)
	b.buildS = time.Since(start).Seconds()
	b.g = graph.Memory(b.mem)
	if cfg.workload.write {
		// The overlay never mutates its main, so every pass gets a fresh
		// overlay and WAL over the one immutable store.
		n := 0
		b.fresh = func() (graph.Graph, error) {
			n++
			wal := filepath.Join(run, fmt.Sprintf("trace-wal%d.log", n))
			ov, err := delta.Open(graph.Memory(b.mem), delta.Options{
				WALPath: wal, SnapshotPath: wal + ".snapshot", CompactThreshold: compactThreshold,
			})
			if err != nil {
				return nil, err
			}
			b.closers = append(b.closers, ov.Close)
			return ov, nil
		}
	}
	return b, nil
}

// newServer configures an in-process server.Server as cmd/hexserver's
// main does with the workload's flags.
func newServer(g graph.Graph, w workload) http.Handler {
	srv := server.NewGraph(g)
	srv.SetPlanCacheSize(sparql.DefaultPlanCacheSize)
	srv.SetResultCacheBytes(resultCacheBytes(w))
	srv.SetMaxInflight(1024)
	srv.SetRequestTimeout(30 * time.Second)
	srv.SetGovernor(govern.Config{MaxConcurrent: 64, MaxQueue: 64, QueueTimeout: 5 * time.Second, SlowQuery: time.Second})
	return srv.Handler()
}

func resultCacheBytes(w workload) int64 {
	if w.scan {
		return 0
	}
	return server.DefaultResultCacheBytes
}

// passTimes are one pass's per-request durations.
type passTimes struct {
	dur   []time.Duration
	bytes int64 // response bytes
}

// reads sums the pass's time on read requests.
func (p passTimes) reads(reqs []treq) time.Duration {
	var sum time.Duration
	for i, d := range p.dur {
		if !reqs[i].write {
			sum += d
		}
	}
	return sum
}

func meanMicros(sum time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return micros(sum) / float64(n)
}

// handlerPass replays reqs through an in-process handler over g.
func handlerPass(g graph.Graph, w workload, reqs []treq, each func(i int, start time.Time, dur time.Duration)) (passTimes, error) {
	h := newServer(g, w)
	pt := passTimes{dur: make([]time.Duration, len(reqs))}
	for i, rq := range reqs {
		var req *http.Request
		if rq.write {
			req = httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(url.Values{"update": {rq.text}}.Encode()))
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
		} else {
			req = httptest.NewRequest(http.MethodGet, "/sparql?query="+url.QueryEscape(rq.text), nil)
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, req)
		pt.dur[i] = time.Since(start)
		if rec.Code != http.StatusOK {
			return pt, fmt.Errorf("handler pass request %d: status %d: %s", i, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		if !rq.write {
			pt.bytes += int64(rec.Body.Len())
		}
		if each != nil {
			each(i, start, pt.dur[i])
		}
	}
	return pt, nil
}

// runTraced is the per-layer run. The same fixed request prefix is
// replayed, on one goroutine, through successively deeper layers:
//
//	pass 1  loopback HTTP to a live hexserver        → http.*, and the server's own counters
//	pass 2  server.Handler in-process over the decorated graph (and once bare, for the decorator's cost)
//	pass 3  sparql.Parse
//	pass 4  Planner.EvalOpts over the decorated graph → sparql.*, graph.*
//	pass 5  leaf ladders on the lists, terms and pages the stream touched
//
// Each in-process pass starts from cold caches so hit patterns match the
// live server's. Intra-query parallelism is pinned to one worker so that
// counts repeat exactly.
func runTraced(cfg runConfig) (*report, error) {
	run, err := cfg.runDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(run)
	w := cfg.workload

	ds, err := writeDataset(filepath.Join(run, "data.nt"), w, cfg.universities)
	if err != nil {
		return nil, err
	}
	st := makeStreams(w, cfg.universities, cfg.seed)
	rep := newReport(cfg, 1, ds, st)
	rep.TraceFile = filepath.Join(cfg.dir, "trace.json")
	reqs := traceRequests(w, &st)
	nReads := 0
	for _, rq := range reqs {
		if !rq.write {
			nReads++
		}
	}
	rec := &recorder{t0: time.Now()}
	m := metricSet{}

	p1, roots, err := loopbackPass(cfg, run, ds, rep, reqs, rec, m)
	if err != nil {
		return rep, err
	}

	// The in-process stack.
	sparql.SetMaxWorkers(1)
	be, err := openBackend(cfg, run, ds)
	if err != nil {
		return nil, err
	}
	defer be.close()

	// Pass 2: the handler over the decorator, between two replays over
	// the bare graph: the first warms the process and the buffer pool and
	// is discarded, the second prices the decorator.
	barePass := func() (passTimes, error) {
		g, err := be.graphForPass()
		if err != nil {
			return passTimes{}, err
		}
		return handlerPass(g, w, reqs, nil)
	}
	if _, err := barePass(); err != nil {
		return nil, err
	}
	ctr := &graphCounters{}
	ctr.reset()
	g2, err := be.graphForPass()
	if err != nil {
		return nil, err
	}
	wrapped2, err := wrapGraph(g2, ctr)
	if err != nil {
		return nil, err
	}
	pf0 := be.fileStats()
	var ms0, ms1 runtime.MemStats
	handlers := make([]int, len(reqs))
	runtime.ReadMemStats(&ms0)
	p2, err := handlerPass(wrapped2, w, reqs, func(i int, start time.Time, dur time.Duration) {
		handlers[i] = rec.add(roots[i], i, "handler", "server.handler", start, dur, nil)
	})
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&ms1)
	pf1 := be.fileStats()
	p2bare, err := barePass()
	if err != nil {
		return nil, err
	}
	m["server.allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(reqs))
	m["server.alloc_bytes_per_op"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(len(reqs))
	if gets := float64(pf1.Hits - pf0.Hits + pf1.Misses - pf0.Misses); gets > 0 {
		m["pagefile.hit_ratio"] = float64(pf1.Hits-pf0.Hits) / gets
		m["pagefile.misses_per_op"] = float64(pf1.Misses-pf0.Misses) / float64(len(reqs))
		m["pagefile.evictions_per_op"] = float64(pf1.Evictions-pf0.Evictions) / float64(len(reqs))
		m["pagefile.writes_per_op"] = float64(pf1.Writes-pf0.Writes) / float64(len(reqs))
	}

	// Pass 3: parsing alone.
	p3 := passTimes{dur: make([]time.Duration, len(reqs))}
	for i, rq := range reqs {
		start := time.Now()
		if rq.write {
			_, err = sparql.ParseUpdate(rq.text)
		} else {
			_, err = sparql.Parse(rq.text)
		}
		p3.dur[i] = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("parse pass request %d: %w", i, err)
		}
		rec.add(handlers[i], i, "parse", "sparql.parse", start, p3.dur[i], nil)
	}

	// Pass 4: evaluation over the decorated graph.
	g4, err := be.graphForPass()
	if err != nil {
		return nil, err
	}
	p4, acc, rows, err := evalPass(g4, w, reqs, ctr, func(i int, start time.Time, dur, busy time.Duration, calls, ids int64) {
		id := rec.add(handlers[i], i, "eval", "sparql.eval", start, dur, nil)
		rec.add(id, i, "eval", "graph.access", start, busy, map[string]float64{"calls": float64(calls), "ids": float64(ids)})
	})
	if err != nil {
		return nil, err
	}

	loopSum, handlerSum, bareSum := p1.reads(reqs), p2.reads(reqs), p2bare.reads(reqs)
	parseSum, evalSum := p3.reads(reqs), p4.reads(reqs)
	m["http.rtt_us"] = meanMicros(loopSum-handlerSum, nReads)
	m["http.resp_bytes_per_op"] = float64(p1.bytes) / float64(nReads)
	m["server.handler_us"] = meanMicros(handlerSum, nReads)
	m["server.self_us"] = meanMicros(handlerSum-parseSum-evalSum, nReads)
	m["sparql.parse_us"] = meanMicros(parseSum, nReads)
	m["sparql.eval_us"] = meanMicros(evalSum, nReads)
	m["sparql.self_us"] = meanMicros(evalSum-acc.readBusy, nReads)
	m["sparql.rows_per_op"] = float64(rows) / float64(nReads)
	m["sparql.allocs_per_op"] = acc.allocs / float64(len(reqs))
	m["sparql.alloc_bytes_per_op"] = acc.allocBytes / float64(len(reqs))
	m["graph.calls_per_op"] = float64(acc.readCalls) / float64(nReads)
	m["graph.access_us"] = meanMicros(acc.readBusy, nReads)
	m["graph.ids_per_op"] = float64(acc.readIDs) / float64(nReads)
	m["graph.view_fallbacks"] = float64(ctr.viewFallbacks)
	if rows > 0 {
		m["sparql.ids_examined_per_row"] = float64(acc.readIDs) / float64(rows)
		m["server.json_bytes_per_row"] = float64(p2.bytes) / float64(rows)
	}
	if bareSum > 0 {
		m["trace.overhead_pct"] = 100 * float64(handlerSum-bareSum) / float64(bareSum)
	}
	if ctr.applyCalls > 0 {
		m["delta.apply_us_per_batch"] = meanMicros(ctr.applyBusy, int(ctr.applyCalls))
	}
	if w.write {
		// The same reads over the bare memory store: what the overlay's
		// merged streams cost on top of it.
		memCtr := &graphCounters{}
		memCtr.reset()
		var reads []treq
		for _, rq := range reqs {
			if !rq.write {
				reads = append(reads, rq)
			}
		}
		_, memAcc, _, err := evalPass(be.g, w, reads, memCtr, nil)
		if err != nil {
			return nil, err
		}
		if memAcc.readBusy > 0 {
			m["delta.read_amp"] = float64(acc.readBusy) / float64(memAcc.readBusy)
		}
	}

	// Pass 5: the leaves.
	if err := ladders(m, cfg, run, ds, be, ctr); err != nil {
		return nil, err
	}

	if err := writeJSON(rep.TraceFile, map[string]any{
		"workload": w.Name, "seed": cfg.seed, "requests": len(reqs),
		"passes": []string{"loopback", "handler", "parse", "eval"}, "spans": rec.spans,
	}); err != nil {
		return nil, err
	}
	rep.Metrics, _ = m.render(perLayer, true)
	return rep, nil
}

// loopbackPass is pass 1: reqs replayed over HTTP against a live
// hexserver — started with one worker like the in-process passes, so that
// pass 1 minus pass 2 is the transport alone — and the server's own
// counters over the replay. It returns the per-request times and each
// request's root span.
func loopbackPass(cfg runConfig, run string, ds dataset, rep *report, reqs []treq, rec *recorder, m metricSet) (passTimes, []int, error) {
	p1 := passTimes{dur: make([]time.Duration, len(reqs))}
	roots := make([]int, len(reqs))
	srv, _, _, err := cfg.serve(run, 0, ds, rep.ServerLog, "-workers", "1")
	if err != nil {
		return passTimes{}, nil, err
	}
	rep.ServerFlags = append(rep.ServerFlags, "-workers", "1")
	defer srv.kill()
	stats0, err := srv.stats()
	if err != nil {
		return p1, nil, err
	}
	prom0, err := srv.promMetrics()
	if err != nil {
		return p1, nil, err
	}
	client := newClient()
	var buf bytes.Buffer
	for i, rq := range reqs {
		start := time.Now()
		if rq.write {
			err = update(client, srv.base, rq.text)
		} else {
			err = query(client, srv.base, rq.text, &buf)
			p1.bytes += int64(buf.Len())
		}
		p1.dur[i] = time.Since(start)
		rep.Attempted++
		if err != nil {
			rep.Failed++
			rep.Failures = append(rep.Failures, fmt.Sprintf("loopback request %d: %v", i, err))
			break
		}
		roots[i] = rec.add(0, i, "loopback", "http.request", start, p1.dur[i], nil)
	}
	client.CloseIdleConnections()
	stats1, err := srv.stats()
	if err != nil {
		return p1, nil, err
	}
	prom1, err := srv.promMetrics()
	if err != nil {
		return p1, nil, err
	}
	if m["server.rss_peak_mb"], err = srv.rssPeakMB(); err != nil {
		return p1, nil, err
	}
	if rep.Failed > 0 {
		return p1, nil, fmt.Errorf("traced run: a loopback request failed: %s", rep.Failures[0])
	}
	nWrites := 0
	for _, rq := range reqs {
		if rq.write {
			nWrites++
		}
	}
	liveServerMetrics(m, cfg.workload, stats0, stats1, prom0, prom1, nWrites)
	if nWrites > 0 {
		var ws []sample
		for i, rq := range reqs {
			if rq.write {
				ws = append(ws, sample{lat: p1.dur[i]})
			}
		}
		ms := sortedMillis(ws)
		m["server.write_p50_ms"], _ = percentile(ms, 0.5)
		m["server.write_p90_ms"], _ = percentile(ms, 0.9)
	}
	return p1, roots, nil
}

func (b *backend) fileStats() pagefile.Stats {
	if b.dsk == nil {
		return pagefile.Stats{}
	}
	return b.dsk.FileStats()
}

// evalAccount is pass 4's bookkeeping, split so that read figures are not
// diluted by updates.
type evalAccount struct {
	readBusy   time.Duration
	readCalls  int64
	readIDs    int64
	allocs     float64
	allocBytes float64
}

// evalPass replays reqs through Planner.EvalOpts (reads) and
// sparql.EvalUpdate plus Flush (writes, as the server's handler does) over
// g behind the decorator.
func evalPass(g graph.Graph, w workload, reqs []treq, ctr *graphCounters,
	each func(i int, start time.Time, dur, busy time.Duration, calls, ids int64)) (passTimes, evalAccount, int, error) {
	pt := passTimes{dur: make([]time.Duration, len(reqs))}
	var acc evalAccount
	wrapped, err := wrapGraph(g, ctr)
	if err != nil {
		return pt, acc, 0, err
	}
	pl := sparql.NewPlanner(wrapped)
	pl.SetResultCacheBytes(resultCacheBytes(w))
	ctr.reset() // building the planner's statistics may scan the graph
	rows := 0
	ctx := context.Background()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, rq := range reqs {
		busy0, calls0, ids0 := ctr.busy, ctr.calls, ctr.ids
		var start time.Time
		if rq.write {
			u, err := sparql.ParseUpdate(rq.text)
			if err != nil {
				return pt, acc, 0, err
			}
			start = time.Now()
			if _, err = sparql.EvalUpdateContext(ctx, wrapped, u); err == nil {
				err = graph.Flush(wrapped)
			}
			pt.dur[i] = time.Since(start)
			if err != nil {
				return pt, acc, 0, fmt.Errorf("eval pass update %d: %w", i, err)
			}
		} else {
			q, err := sparql.Parse(rq.text)
			if err != nil {
				return pt, acc, 0, err
			}
			start = time.Now()
			res, err := pl.EvalOpts(ctx, q, sparql.EvalOptions{Workers: 1})
			pt.dur[i] = time.Since(start)
			if err != nil {
				return pt, acc, 0, fmt.Errorf("eval pass query %d: %w", i, err)
			}
			rows += len(res.Rows)
			acc.readBusy += ctr.busy - busy0
			acc.readCalls += ctr.calls - calls0
			acc.readIDs += ctr.ids - ids0
		}
		if each != nil {
			each(i, start, pt.dur[i], ctr.busy-busy0, ctr.calls-calls0, ctr.ids-ids0)
		}
	}
	runtime.ReadMemStats(&ms1)
	acc.allocs = float64(ms1.Mallocs - ms0.Mallocs)
	acc.allocBytes = float64(ms1.TotalAlloc - ms0.TotalAlloc)
	return pt, acc, rows, nil
}

// liveServerMetrics turns the live server's /stats and /metrics deltas
// over pass 1 into the govern, cache, wal and delta figures.
func liveServerMetrics(m metricSet, w workload, s0, s1 map[string]any, p0, p1 map[string]float64, writes int) {
	d := func(path ...string) float64 { return num(s1, path...) - num(s0, path...) }
	pd := func(name string) float64 { return p1[name] - p0[name] }
	m["govern.rejected"] = d("govern", "rejected")
	m["govern.slow_queries"] = d("govern", "slowQueries")
	if n := d("cache", "planCacheHits") + d("cache", "planCacheMisses"); n > 0 {
		m["sparql.plan_cache_hit_ratio"] = d("cache", "planCacheHits") / n
	}
	if n := d("cache", "resultCacheHits") + d("cache", "resultCacheMisses"); n > 0 {
		m["sparql.result_cache_hit_ratio"] = d("cache", "resultCacheHits") / n
	}
	m["sparql.epoch_churn"] = d("cache", "epochChurn")
	if !w.write || writes == 0 {
		return
	}
	fsyncs := pd("hex_wal_fsync_seconds_count")
	m["wal.fsyncs_per_write"] = fsyncs / float64(writes)
	m["wal.bytes_per_triple"] = pd("hex_wal_appended_bytes_total") / float64(writes*batchTriples)
	if fsyncs > 0 {
		m["wal.fsync_mean_ms"] = 1000 * pd("hex_wal_fsync_seconds_sum") / fsyncs
	}
	if n := pd("hex_wal_commit_batch_records_count"); n > 0 {
		m["wal.batch_records_mean"] = pd("hex_wal_commit_batch_records_sum") / n
	}
	m["delta.compactions"] = pd("hex_delta_compactions_total")
	m["delta.compact_s_total"] = pd("hex_delta_compact_seconds_sum")
	m["delta.adds_end"] = num(s1, "deltaAdds")
}
