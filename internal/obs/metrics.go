package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// The metrics half: a small Prometheus-text registry. Families are
// registered once (idempotent by name — re-registering returns the
// existing family, so package-level metric vars and per-test servers
// coexist), children are created per label-value tuple, and
// WritePrometheus renders the standard text exposition format.

// Counter is a monotonically increasing int64 metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float64 metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket histogram. Buckets are cumulative upper
// bounds (Prometheus `le` semantics); observations above the last bound
// land only in the implicit +Inf bucket.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// ExpBuckets builds n log-scale bucket bounds: start, start*factor,
// start*factor², … — the fixed geometric ladder the latency histograms
// use.
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LatencyBuckets spans 10µs to ~2.6s in ×4 steps — wide enough for an
// fsync and a pathological join on one ladder.
var LatencyBuckets = ExpBuckets(10e-6, 4, 10)

// SizeBuckets spans 256B to ~16MB in ×4 steps, for byte-size
// distributions (group-commit batches).
var SizeBuckets = ExpBuckets(256, 4, 9)

// child is one label-value instantiation of a family: exactly one of
// the payload fields is set.
type child struct {
	labels string // rendered {k="v",…} suffix, "" when unlabeled
	c      *Counter
	g      *Gauge
	h      *Histogram
	fn     func() float64
}

type family struct {
	name, help, typ string
	bounds          []float64 // histograms only
	mu              sync.Mutex
	order           []string
	kids            map[string]*child
}

// Registry holds an ordered set of metric families.
type Registry struct {
	mu   sync.Mutex
	fams []*family
	idx  map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{idx: make(map[string]*family)}
}

// Default is the process-global registry; package-level instrumentation
// (WAL, delta overlay, SPARQL engine) registers here so subsystems deep in the
// stack need no handle threading. Servers merge it into their /metrics
// output alongside their own per-instance registry.
var Default = NewRegistry()

func (r *Registry) family(name, help, typ string, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.idx[name]; ok {
		if f.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, f.typ))
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, bounds: bounds, kids: make(map[string]*child)}
	r.fams = append(r.fams, f)
	r.idx[name] = f
	return f
}

func (f *family) get(labels string) *child {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k, ok := f.kids[labels]; ok {
		return k
	}
	k := &child{labels: labels}
	switch f.typ {
	case "counter":
		k.c = &Counter{}
	case "gauge":
		k.g = &Gauge{}
	case "histogram":
		k.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
	}
	f.kids[labels] = k
	f.order = append(f.order, labels)
	return k
}

func (f *family) setFunc(labels string, fn func() float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if k, ok := f.kids[labels]; ok {
		k.fn = fn // re-registration (fresh server instance): last wins
		return
	}
	f.kids[labels] = &child{labels: labels, fn: fn}
	f.order = append(f.order, labels)
}

// renderLabels builds the {k="v",…} sample suffix.
func renderLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	if len(names) != len(values) {
		panic(fmt.Sprintf("obs: %d label values for %d label names", len(values), len(names)))
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, "counter", nil).get("").c
}

// Gauge registers (or returns) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, "gauge", nil).get("").g
}

// Histogram registers (or returns) an unlabeled histogram with the
// given bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.family(name, help, "histogram", bounds).get("").h
}

// GaugeFunc registers a gauge whose value is read from fn at exposition
// time (optionally labeled: pass alternating name, value pairs).
// Re-registering the same name+labels replaces the function, so a test
// spinning up a second server observes the live instance.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.registerFunc(name, help, "gauge", fn, labelPairs)
}

// CounterFunc is GaugeFunc with counter exposition semantics, for
// monotonic values owned elsewhere (the governor's admission counters).
func (r *Registry) CounterFunc(name, help string, fn func() float64, labelPairs ...string) {
	r.registerFunc(name, help, "counter", fn, labelPairs)
}

func (r *Registry) registerFunc(name, help, typ string, fn func() float64, labelPairs []string) {
	if len(labelPairs)%2 != 0 {
		panic("obs: labelPairs must alternate name, value")
	}
	var names, values []string
	for i := 0; i < len(labelPairs); i += 2 {
		names = append(names, labelPairs[i])
		values = append(values, labelPairs[i+1])
	}
	r.family(name, help, typ, nil).setFunc(renderLabels(names, values), fn)
}

// CounterVec is a counter family with labels.
type CounterVec struct {
	f     *family
	names []string
}

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labelNames ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, "counter", nil), names: labelNames}
}

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(renderLabels(v.names, values)).c
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct {
	f     *family
	names []string
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, "histogram", bounds), names: labelNames}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(renderLabels(v.names, values)).h
}

func fmtFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// mergeLabels splices extra into an already-rendered label suffix, for
// histogram `le` labels.
func mergeLabels(labels, extra string) string {
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// WritePrometheus renders every family in registration order in the
// Prometheus text exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	r.mu.Lock()
	fams := append([]*family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		order := append([]string(nil), f.order...)
		kids := make([]*child, len(order))
		for i, l := range order {
			kids[i] = f.kids[l]
		}
		f.mu.Unlock()
		if len(kids) == 0 {
			continue
		}
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.typ)
		for _, k := range kids {
			switch {
			case k.fn != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, k.labels, fmtFloat(k.fn()))
			case k.c != nil:
				fmt.Fprintf(bw, "%s%s %d\n", f.name, k.labels, k.c.Value())
			case k.g != nil:
				fmt.Fprintf(bw, "%s%s %s\n", f.name, k.labels, fmtFloat(k.g.Value()))
			case k.h != nil:
				var cum int64
				for i, bound := range k.h.bounds {
					cum += k.h.counts[i].Load()
					fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
						mergeLabels(k.labels, `le="`+fmtFloat(bound)+`"`), cum)
				}
				fmt.Fprintf(bw, "%s_bucket%s %d\n", f.name,
					mergeLabels(k.labels, `le="+Inf"`), k.h.Count())
				fmt.Fprintf(bw, "%s_sum%s %s\n", f.name, k.labels, fmtFloat(k.h.Sum()))
				fmt.Fprintf(bw, "%s_count%s %d\n", f.name, k.labels, k.h.Count())
			}
		}
	}
	return bw.Flush()
}

// Handler serves the registry (and any extras, in order) as a
// Prometheus scrape target.
func Handler(regs ...*Registry) http.Handler {
	if len(regs) == 0 {
		regs = []*Registry{Default}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		for _, r := range regs {
			if err := r.WritePrometheus(w); err != nil {
				return
			}
		}
	})
}
