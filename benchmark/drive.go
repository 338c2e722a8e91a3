package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one completed request: when it finished (since its window's
// driver started) and how long the client waited for it.
type sample struct {
	done time.Duration
	lat  time.Duration
}

// capture is the first response to a distinct query, kept for comparison
// with the oracle once the clock has stopped.
type capture struct {
	query string
	body  []byte
}

// captureBytes bounds the bodies held for checking (scan-mem's largest
// answers are ~4 MB each).
const captureBytes = 96 << 20

// driver is the closed-loop load generator: each connection sends its
// next request only after the previous reply arrived, the way an
// application waiting on its query does. One driver serves all of a run's
// server instances: the read stream continues from instance to instance,
// the write stream starts over with each (every instance loads the same
// data set).
type driver struct {
	reads  *stream
	writes []string

	next     atomic.Int64 // next index of the read stream, shared by the reader connections
	attempts atomic.Int64

	seen     []atomic.Bool // per pool entry: first occurrence already taken
	checkCap int

	mu       sync.Mutex
	captured []capture
	capBytes int
	failures []string // first few, for the report
	failed   int

	acked int // write requests the current instance acknowledged, in stream order
}

func newDriver(w workload, s *streams) *driver {
	return &driver{
		reads: &s.reads, writes: s.writes,
		seen: make([]atomic.Bool, len(s.reads.pool)), checkCap: w.checkCap,
	}
}

func (d *driver) fail(format string, args ...any) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failed++
	if len(d.failures) < 5 {
		d.failures = append(d.failures, fmt.Sprintf(format, args...))
	}
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// query sends one read and returns its body in buf.
func query(c *http.Client, base, q string, buf *bytes.Buffer) error {
	resp, err := c.Get(base + "/sparql?query=" + url.QueryEscape(q))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(buf.String()))
	}
	if buf.Len() == 0 {
		return fmt.Errorf("empty body")
	}
	return nil
}

// update sends one write and checks the acknowledged triple count.
func update(c *http.Client, base, text string) error {
	resp, err := c.PostForm(base+"/sparql", url.Values{"update": {text}})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	var ack struct{ Inserted, Deleted int }
	if err := json.Unmarshal(body, &ack); err != nil {
		return fmt.Errorf("decode ack: %w", err)
	}
	if ack.Inserted+ack.Deleted != batchTriples {
		return fmt.Errorf("ack %s, want %d triples changed", bytes.TrimSpace(body), batchTriples)
	}
	return nil
}

// readLoop is one reader connection; it returns its samples.
func (d *driver) readLoop(base string, start, until time.Time) []sample {
	c := newClient()
	defer c.CloseIdleConnections()
	var (
		buf     bytes.Buffer
		samples []sample
	)
	for time.Now().Before(until) {
		i := int(d.next.Add(1) - 1)
		idx := d.reads.order[i%len(d.reads.order)]
		q := d.reads.pool[idx]
		d.attempts.Add(1)
		t0 := time.Now()
		err := query(c, base, q, &buf)
		t1 := time.Now()
		if err != nil {
			d.fail("query %q: %v", q, err)
			continue
		}
		samples = append(samples, sample{done: t1.Sub(start), lat: t1.Sub(t0)})
		if !d.seen[idx].Load() && d.seen[idx].CompareAndSwap(false, true) {
			d.mu.Lock()
			if len(d.captured) < d.checkCap && d.capBytes+buf.Len() <= captureBytes {
				d.captured = append(d.captured, capture{q, append([]byte(nil), buf.Bytes()...)})
				d.capBytes += buf.Len()
			}
			d.mu.Unlock()
		}
	}
	return samples
}

// writeLoop is the writer connection: updates in stream order, each
// acknowledged (after the WAL fsync) before the next is sent.
func (d *driver) writeLoop(base string, start, until time.Time) []sample {
	c := newClient()
	defer c.CloseIdleConnections()
	var samples []sample
	for k := 0; k < len(d.writes) && time.Now().Before(until); k++ {
		d.attempts.Add(1)
		t0 := time.Now()
		err := update(c, base, d.writes[k])
		t1 := time.Now()
		if err != nil {
			d.fail("update %d: %v", k, err)
			return samples // later updates depend on this one: stop writing
		}
		d.acked = k + 1
		samples = append(samples, sample{done: t1.Sub(start), lat: t1.Sub(t0)})
	}
	return samples
}

// window is what the measured window on one server instance observed.
type window struct {
	reads, writes  []sample // completed inside the measured window
	cpuTicks       int64    // server CPU over the measured window
	rssPeakMB      float64  // server VmHWM at the end of the window
	warmup, length time.Duration
}

// connections is the closed loop's client count: the sandbox has two
// cores, and the server needs one of them.
const connections = 2

// run drives one server instance through warm-up and its measured
// window. With writes, one of the two connections is the writer.
func (d *driver) run(srv *serverProc, warmup, length time.Duration) (window, error) {
	d.acked = 0
	start := time.Now()
	warmEnd := start.Add(warmup)
	end := warmEnd.Add(length)
	readers := connections
	if len(d.writes) > 0 {
		readers--
	}
	var (
		wg          sync.WaitGroup
		readSamples = make([][]sample, readers)
		writes      []sample
	)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			readSamples[i] = d.readLoop(srv.base, start, end)
		}()
	}
	if len(d.writes) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			writes = d.writeLoop(srv.base, start, end)
		}()
	}
	time.Sleep(time.Until(warmEnd))
	ticks0, err0 := srv.cpuTicks()
	time.Sleep(time.Until(end))
	ticks1, err1 := srv.cpuTicks()
	rss, err2 := srv.rssPeakMB()
	wg.Wait()
	for _, err := range []error{err0, err1, err2} {
		if err != nil {
			return window{}, fmt.Errorf("read server /proc: %w", err)
		}
	}
	inWindow := func(in []sample) []sample {
		var out []sample
		for _, s := range in {
			if s.done >= warmup && s.done < warmup+length {
				out = append(out, s)
			}
		}
		return out
	}
	w := window{cpuTicks: ticks1 - ticks0, rssPeakMB: rss, warmup: warmup, length: length}
	for _, s := range readSamples {
		w.reads = append(w.reads, inWindow(s)...)
	}
	w.writes = inWindow(writes)
	return w, nil
}

// latencyFigures are a run's throughput and read-latency metrics with the
// sample counts behind them.
type latencyFigures struct {
	QPS            float64 `json:"qps"`
	P50ms          float64 `json:"read_p50_ms"`
	TailMs         float64 `json:"read_tail_ms"`
	TailPercentile float64 `json:"tail_percentile"`
	Samples        int     `json:"read_samples"`
	SamplesBeyond  int     `json:"read_samples_beyond_tail"`
	// Ladder is the rest of the read-latency distribution, for context:
	// every listed percentile the sample count supports.
	Ladder map[string]float64 `json:"read_ms_percentiles"`

	WriteSamples        int     `json:"write_samples"`
	WriteP50ms          float64 `json:"write_p50_ms,omitempty"`
	WriteTailMs         float64 `json:"write_tail_ms,omitempty"`
	WriteTailPercentile float64 `json:"write_tail_percentile,omitempty"`
}

func sortedMillis(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = float64(s.lat) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// figures turns a run's windows, one per server instance, into the
// latency metrics: the windows' samples are pooled, throughput is their
// count over the windows' total length, and a percentile is reported only
// with ten samples beyond it. (Medians over one-second segments were
// tried and repeated worse than the pooled percentiles.)
func figures(w workload, wins []window) (latencyFigures, error) {
	f := latencyFigures{TailPercentile: w.tail}
	var (
		reads, writes []sample
		seconds       float64
	)
	for _, win := range wins {
		reads = append(reads, win.reads...)
		writes = append(writes, win.writes...)
		seconds += win.length.Seconds()
	}
	f.Samples, f.WriteSamples = len(reads), len(writes)
	f.QPS = float64(len(reads)+len(writes)) / seconds
	ms := sortedMillis(reads)
	var err error
	if f.P50ms, err = percentile(ms, 0.5); err != nil {
		return f, fmt.Errorf("read latency: %w (window too short for this machine)", err)
	}
	// The tail is the workload's percentile; a window too short to support
	// it (the tests' toy runs) steps down, and the report says to what.
	err = fmt.Errorf("no tail percentile at or below p%g", w.tail*100)
	for _, q := range []float64{0.999, 0.995, 0.99, 0.95, 0.90} {
		if q > w.tail {
			continue
		}
		if f.TailMs, err = percentile(ms, q); err == nil {
			f.TailPercentile = q
			f.SamplesBeyond = int(float64(len(reads)) * (1 - q))
			break
		}
	}
	if err != nil {
		return f, fmt.Errorf("read latency: %w (window too short for this machine)", err)
	}
	f.Ladder = map[string]float64{}
	for _, q := range []float64{0.25, 0.75, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999} {
		if v, err := percentile(ms, q); err == nil {
			f.Ladder[fmt.Sprintf("p%g", q*100)] = v
		}
	}
	if len(writes) > 0 {
		ms := sortedMillis(writes)
		f.WriteP50ms, _ = percentile(ms, 0.5)
		for _, q := range []float64{0.99, 0.90} {
			if v, err := percentile(ms, q); err == nil {
				f.WriteTailMs, f.WriteTailPercentile = v, q
				break
			}
		}
	}
	return f, nil
}
