package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
)

func TestSameSeedSameInputs(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		gen := func(name string, seed int64) (dataset, streams) {
			// Two universities, so that scan-mem's restricted queries
			// have something for the seed to choose.
			ds, err := writeDataset(filepath.Join(dir, name), w, 2)
			if err != nil {
				t.Fatal(err)
			}
			return ds, makeStreams(w, 2, seed)
		}
		d1, s1 := gen("a.nt", 7)
		d2, s2 := gen("b.nt", 7)
		_, s3 := gen("c.nt", 8)
		if d1.Hash != d2.Hash || s1.Hash != s2.Hash {
			t.Errorf("%s: same seed gave different inputs", w.Name)
		}
		a, _ := os.ReadFile(d1.Path)
		b, _ := os.ReadFile(d2.Path)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different data set bytes", w.Name)
		}
		if s1.Hash == s3.Hash {
			t.Errorf("%s: another seed gave the same request stream", w.Name)
		}
		if w.write != (len(s1.writes) > 0) {
			t.Errorf("%s: write stream presence does not match the workload", w.Name)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		q    float64
		ok   bool
		want float64
	}{
		{999, 0.99, false, 0}, {1000, 0.99, true, 990},
		{99, 0.90, false, 0}, {100, 0.90, true, 90},
		{19, 0.50, false, 0}, {20, 0.50, true, 10},
	} {
		got, err := percentile(ramp(c.n), c.q)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("percentile(%d samples, %g) = %g, %v; want %g, ok=%v", c.n, c.q, got, err, c.want, c.ok)
		}
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g", q1, q2, q3)
	}
	if s := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); s != 1 {
		t.Errorf("spread = %g, want 1", s)
	}
}

func TestOracleCatchesAWrongAnswer(t *testing.T) {
	orc := newOracle()
	if _, err := writeDataset(filepath.Join(t.TempDir(), "d.nt"), workloads[0], 1, orc.load); err != nil {
		t.Fatal(err)
	}
	q := joinQuery(3)
	res, err := sparql.Exec(orc, q)
	if err != nil || len(res.Rows) == 0 {
		t.Fatalf("oracle answer: %d rows, %v", len(res.Rows), err)
	}
	body := func(rows []sparql.Row) []byte {
		var doc sparqlJSON
		for _, r := range rows {
			b := map[string]struct {
				Type  string `json:"type"`
				Value string `json:"value"`
			}{}
			for name, term := range r {
				b[name] = struct {
					Type  string `json:"type"`
					Value string `json:"value"`
				}{"uri", term.Value}
			}
			doc.Results.Bindings = append(doc.Results.Bindings, b)
		}
		out, _ := json.Marshal(doc)
		return out
	}
	if err := orc.sameAnswer(q, body(res.Rows)); err != nil {
		t.Errorf("right answer rejected: %v", err)
	}
	if err := orc.sameAnswer(q, body(res.Rows[1:])); err == nil {
		t.Error("answer missing a row accepted")
	}
	if err := orc.sameAnswer(q, body(append(res.Rows[1:], res.Rows[1]))); err == nil {
		t.Error("answer with a duplicated row in place of another accepted")
	}
}

// backends builds the three serving stacks over one small data set.
func testBackends(t *testing.T) map[string]graph.Graph {
	t.Helper()
	dir := t.TempDir()
	ds, err := writeDataset(filepath.Join(dir, "d.nt"), workloads[3], 1)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(ds.Path)
	if err != nil {
		t.Fatal(err)
	}
	triples, err := rdf.NewReader(f).ReadAll()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), triples, 1))
	mem := b.BuildParallel(1)

	dst, err := disk.Create(filepath.Join(dir, "store"), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	if err := dst.BulkLoad(core.EncodeTriples(dst.Dictionary(), triples, 1)); err != nil {
		t.Fatal(err)
	}

	ov, err := delta.Open(graph.Memory(mem), delta.Options{WALPath: filepath.Join(dir, "wal.log"), CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })
	// A non-empty delta, so the overlay's merged streams are exercised.
	st := makeStreams(workloads[3], 1, 1)
	for _, u := range st.writes[:8] {
		if _, err := sparql.ExecUpdate(ov, u); err != nil {
			t.Fatal(err)
		}
	}
	return map[string]graph.Graph{"memory": graph.Memory(mem), "disk": graph.Disk(dst), "overlay": ov}
}

func TestDecoratorIsTransparent(t *testing.T) {
	var queries []string
	for _, w := range workloads {
		st := makeStreams(w, 1, 1)
		for i := 0; i < 40; i++ {
			queries = append(queries, st.reads.at(i))
		}
	}
	rows := func(g graph.Graph, q string) []string {
		parsed, err := sparql.Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sparql.EvalOpts(context.Background(), g, parsed, sparql.EvalOptions{Workers: 1})
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			cells := make([]string, 0, len(r))
			for name, term := range r {
				cells = append(cells, name+"="+term.Key())
			}
			out[i] = canonicalRow(cells)
		}
		sort.Strings(out)
		return out
	}
	for name, bare := range testBackends(t) {
		ctr := &graphCounters{}
		ctr.reset()
		wrapped, err := wrapGraph(bare, ctr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		// The capability set callers branch on is the bare graph's.
		_, bs := graph.AsSortedSource(bare)
		_, ws := graph.AsSortedSource(wrapped)
		_, bv := graph.AsViewSource(bare)
		_, wv := graph.AsViewSource(wrapped)
		_, bn := bare.(graph.Snapshotter)
		_, wn := wrapped.(graph.Snapshotter)
		if bs != ws || bv != wv || bn != wn {
			t.Errorf("%s: capabilities differ: sorted %v/%v views %v/%v snapshots %v/%v", name, bs, ws, bv, wv, bn, wn)
		}
		if graph.EpochOf(bare) != graph.EpochOf(wrapped) {
			t.Errorf("%s: epoch differs", name)
		}
		if graph.Unwrap(bare) != graph.Unwrap(wrapped) {
			t.Errorf("%s: Unwrap differs", name)
		}
		ctx, cancel := context.WithCancel(context.Background())
		if _, ok := graph.AsSortedSource(graph.WithContext(ctx, wrapped)); !ok {
			t.Errorf("%s: context view lost its sorted source", name)
		}
		cancel()

		for _, q := range queries {
			if got, want := rows(wrapped, q), rows(bare, q); !slices.Equal(got, want) {
				t.Errorf("%s: %s: decorated rows differ from bare rows", name, q)
			}
		}
		if ctr.calls == 0 || ctr.ids == 0 {
			t.Errorf("%s: decorator counted nothing", name)
		}

		// Every fetched pattern answers the same through the decorator:
		// same list, and a view exactly when the bare graph gives one, so
		// the decorator adds no fallbacks of its own.
		sortedBare, _ := graph.AsSortedSource(bare)
		sortedWrapped, _ := graph.AsSortedSource(wrapped)
		fallbacks := int64(0)
		before := ctr.viewFallbacks
		for p := range ctr.patterns {
			a, _ := sortedBare.AppendSortedList(nil, p[0], p[1], p[2])
			b, _ := sortedWrapped.AppendSortedList(nil, p[0], p[1], p[2])
			if !slices.Equal(a, b) {
				t.Errorf("%s: list of %v differs", name, p)
			}
			if vsBare, ok := graph.AsViewSource(bare); ok {
				vsWrapped, _ := graph.AsViewSource(wrapped)
				_, okBare, _ := vsBare.SortedListView(p[0], p[1], p[2])
				_, okWrapped, _ := vsWrapped.SortedListView(p[0], p[1], p[2])
				if okBare != okWrapped {
					t.Errorf("%s: view of %v: ok %v bare, %v decorated", name, p, okBare, okWrapped)
				}
				if !okBare {
					fallbacks++
				}
			}
		}
		if got := ctr.viewFallbacks - before; got != fallbacks {
			t.Errorf("%s: decorator counted %d view fallbacks, bare graph gives %d", name, got, fallbacks)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(qps []float64, p50 []float64) *summary {
		s := newSummary()
		for i := range qps {
			s.add(&report{Workload: "lookup-mem", Seed: int64(i), Metrics: map[string]metric{
				"qps": {qps[i], "1/s"}, "read_p50_ms": {p50[i], "ms"},
			}})
		}
		s.finish()
		return s
	}
	dir := t.TempDir()
	write := func(name string, s *summary) string {
		p := filepath.Join(dir, name)
		if err := writeJSON(p, s); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a.json", mk([]float64{1000, 1001, 1002, 1003}, []float64{1, 1, 1, 1}))
	// qps 30% lower: regressed. p50 equal but b's runs disagree by more
	// than the bound: unresolved.
	worse := write("b.json", mk([]float64{700, 701, 702, 703}, []float64{0.8, 0.9, 1.1, 1.2}))
	var out bytes.Buffer
	regressed, err := compareFiles(&out, base, worse)
	if err != nil || !regressed {
		t.Fatalf("regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	for _, want := range []string{"regressed", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if regressed, err := compareFiles(&out, base, base); err != nil || regressed || strings.Contains(out.String(), "unresolved") {
		t.Errorf("a file against itself: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
}

// benchmarkJSON mirrors BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var ws []struct{ Name, Why string }
	for _, w := range workloads {
		ws = append(ws, struct{ Name, Why string }{w.Name, w.Why})
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.Workloads, ws) {
		t.Errorf("workloads differ:\n json %v\n code %v", doc.Workloads, ws)
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("metric counts differ: end_to_end %d/%d per_layer %d/%d", len(doc.EndToEnd), len(endToEnd), len(doc.PerLayer), len(perLayer))
	}
	for i, d := range endToEnd {
		if j := doc.EndToEnd[i]; j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better || j.Bound != d.Bound {
			t.Errorf("end_to_end[%d]: json %+v, code %+v", i, j, d)
		}
	}
	for i, d := range perLayer {
		if j := doc.PerLayer[i]; j.Name != d.Name || j.Unit != d.Unit || j.Better != d.Better {
			t.Errorf("per_layer[%d]: json %+v, code %+v", i, j, d)
		}
	}
}

// TestSmokeAllWorkloads runs every workload end to end at toy scale — a
// real hexserver, one university, one-second windows — for both the timed
// and the traced run, and validates the output against the metric lists.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("starts hexserver subprocesses")
	}
	if runtime.GOOS != "linux" {
		t.Skip("reads /proc")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hexserver")
	if out, err := exec.Command("go", "build", "-o", bin, "hexastore/cmd/hexserver").CombinedOutput(); err != nil {
		t.Fatalf("build hexserver: %v\n%s", err, out)
	}
	t.Cleanup(killAllServers)
	for _, w := range workloads {
		cfg := runConfig{workload: w, seed: 3, universities: 1, seconds: 1, dir: filepath.Join(dir, "work"), serverBin: bin}
		for trace, run := range []func(runConfig) (*report, error){runTimed, runTraced} {
			rep, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.Name, trace, err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 || rep.LostWrites != 0 {
				t.Errorf("%s trace %d: attempted %d failed %d lost %d: %v", w.Name, trace, rep.Attempted, rep.Failed, rep.LostWrites, rep.Failures)
			}
			defs := endToEnd
			if trace == 1 {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s trace %d: %d metrics, want %d", w.Name, trace, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s trace %d: metric %s missing or in %q, want %q", w.Name, trace, d.Name, m.Unit, d.Unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %g", w.Name, d.Name, m.Value)
				}
			}
			if trace == 0 {
				if rep.Checked == 0 {
					t.Errorf("%s: no answers checked", w.Name)
				}
				if w.write && rep.AckedWrites == 0 {
					t.Errorf("%s: no writes acknowledged", w.Name)
				}
			} else if _, err := os.Stat(rep.TraceFile); err != nil {
				t.Errorf("%s: trace file: %v", w.Name, err)
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "work", "run-*")); len(left) > 0 {
		t.Errorf("run directories left behind: %v", left)
	}
}
