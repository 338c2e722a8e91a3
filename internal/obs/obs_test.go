package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsSafe(t *testing.T) {
	var s *Span
	c := s.Child("x")
	if c != nil {
		t.Fatalf("nil.Child = %v, want nil", c)
	}
	s.Set("k", 1)
	s.SetInt("k", 1)
	s.Add("k", 1)
	s.Finish()
	if d := s.Duration(); d != 0 {
		t.Fatalf("nil.Duration = %v", d)
	}
	if got := s.String(); got != "" {
		t.Fatalf("nil.String = %q", got)
	}
	if top := s.Top(3); top != nil {
		t.Fatalf("nil.Top = %v", top)
	}
	b, err := json.Marshal(s)
	if err != nil || string(b) != "null" {
		t.Fatalf("nil marshal = %s, %v", b, err)
	}
	if err := s.WriteTree(&strings.Builder{}); err != nil {
		t.Fatalf("nil WriteTree: %v", err)
	}
}

func TestSpanTreeJSON(t *testing.T) {
	tr := NewTrace("query")
	plan := tr.Child("plan")
	plan.Set("order", lazy("[1 0]"))
	plan.SetInt("est", 42)
	plan.Finish()
	step := tr.ChildOf("step", lazy("?s p ?o"))
	step.SetInt("rowsIn", 1)
	step.SetInt("rowsOut", 10)
	step.Add("bytesRead", 100)
	step.Add("bytesRead", 28)
	step.Finish()
	tr.Finish()

	b, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Name       string         `json:"name"`
		DurationUs int64          `json:"durationUs"`
		Children   []jsonSpanView `json:"children"`
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("unmarshal %s: %v", b, err)
	}
	if got.Name != "query" || len(got.Children) != 2 {
		t.Fatalf("bad tree: %s", b)
	}
	// A Stringer label or attribute renders as its string, in JSON and
	// in the tree alike.
	if got.Children[0].Attrs["order"] != "[1 0]" || got.Children[1].Name != "step[?s p ?o]" {
		t.Fatalf("lazy values not rendered: %s", b)
	}
	if tree := tr.String(); !strings.Contains(tree, "order=[1 0]") || !strings.Contains(tree, "step[?s p ?o] ") {
		t.Fatalf("lazy values not rendered:\n%s", tree)
	}
	if got.Children[1].Attrs["bytesRead"] != float64(128) {
		t.Fatalf("Add did not accumulate: %s", b)
	}
	// Attrs must serialize in insertion order.
	raw := string(b)
	if strings.Index(raw, `"rowsIn"`) > strings.Index(raw, `"rowsOut"`) {
		t.Fatalf("attr order not preserved: %s", raw)
	}
}

// lazy is a value rendered only when a span is printed.
type lazy string

func (l lazy) String() string { return string(l) }

type jsonSpanView struct {
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs"`
}

func TestWriteTreeIndentsAndTop(t *testing.T) {
	tr := NewTrace("query")
	fast := tr.Child("fast")
	time.Sleep(time.Millisecond)
	fast.Finish()
	slow := tr.Child("slow")
	inner := slow.Child("inner")
	time.Sleep(5 * time.Millisecond)
	inner.Finish()
	slow.Finish()
	tr.Finish()

	out := tr.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %q", out)
	}
	if !strings.HasPrefix(lines[0], "query ") ||
		!strings.HasPrefix(lines[1], "  fast ") ||
		!strings.HasPrefix(lines[3], "    inner ") {
		t.Fatalf("bad tree rendering:\n%s", out)
	}

	top := tr.Top(2)
	if len(top) != 2 || top[0].Name() != "slow" {
		t.Fatalf("Top(2) = %v", top)
	}
	if s := tr.FormatTop(1); !strings.HasPrefix(s, "slow ") {
		t.Fatalf("FormatTop = %q", s)
	}
}

func TestSpanConcurrency(t *testing.T) {
	tr := NewTrace("query")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := tr.Child("worker")
				c.Add("scanned", 1)
				c.Finish()
			}
		}()
	}
	wg.Wait()
	if n := len(tr.Children()); n != 800 {
		t.Fatalf("children = %d, want 800", n)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hex_test_ops_total", "ops")
	c.Inc()
	c.Add(2)
	g := r.Gauge("hex_test_depth", "depth")
	g.Set(1.5)
	h := r.Histogram("hex_test_latency_seconds", "latency", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)
	v := r.CounterVec("hex_test_http_total", "http", "endpoint", "code")
	v.With("/sparql", "200").Add(7)
	r.GaugeFunc("hex_test_live", "live", func() float64 { return 3 })
	r.GaugeFunc("hex_test_lag_seconds", "lag", func() float64 { return 0.25 }, "follower", "0")

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP hex_test_ops_total ops",
		"# TYPE hex_test_ops_total counter",
		"hex_test_ops_total 3",
		"hex_test_depth 1.5",
		"# TYPE hex_test_latency_seconds histogram",
		`hex_test_latency_seconds_bucket{le="0.001"} 1`,
		`hex_test_latency_seconds_bucket{le="0.01"} 2`,
		`hex_test_latency_seconds_bucket{le="+Inf"} 3`,
		"hex_test_latency_seconds_sum 5.0055",
		"hex_test_latency_seconds_count 3",
		`hex_test_http_total{endpoint="/sparql",code="200"} 7`,
		"hex_test_live 3",
		`hex_test_lag_seconds{follower="0"} 0.25`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hex_dup_total", "dup")
	b := r.Counter("hex_dup_total", "dup")
	if a != b {
		t.Fatal("re-registration must return the same counter")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("counters diverged")
	}
	// GaugeFunc re-registration: last wins (fresh server instances).
	r.GaugeFunc("hex_dup_gauge", "g", func() float64 { return 1 })
	r.GaugeFunc("hex_dup_gauge", "g", func() float64 { return 2 })
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "hex_dup_gauge 2") {
		t.Fatalf("last-wins func registration broken:\n%s", sb.String())
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter")
	}
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("hex_conc_seconds", "c", LatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				h.Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("count = %d", h.Count())
	}
	if got, want := h.Sum(), 8.0; got < want-0.01 || got > want+0.01 {
		t.Fatalf("sum = %v", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 10, 3)
	if len(b) != 3 || b[0] != 1 || b[1] != 10 || b[2] != 100 {
		t.Fatalf("ExpBuckets = %v", b)
	}
}
