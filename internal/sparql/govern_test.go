package sparql

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/disk"
	"hexastore/internal/govern"
	"hexastore/internal/graph"
	"hexastore/internal/iofault"
	"hexastore/internal/rdf"
	"hexastore/internal/shard"
)

// governTriples builds a dataset whose self-join on <takes> is
// quadratic in students-per-course: students×deg enrollment triples
// spread over the course pool, plus a name per student and an email for
// every third (the OPTIONAL target).
func governTriples(students, courses, deg int) []rdf.Triple {
	takes := rdf.NewIRI("http://ex/takes")
	name := rdf.NewIRI("http://ex/name")
	email := rdf.NewIRI("http://ex/email")
	var ts []rdf.Triple
	for s := 0; s < students; s++ {
		subj := rdf.NewIRI(fmt.Sprintf("http://ex/student%03d", s))
		for d := 0; d < deg; d++ {
			c := (s + d*7) % courses
			ts = append(ts, rdf.T(subj, takes, rdf.NewIRI(fmt.Sprintf("http://ex/course%02d", c))))
		}
		ts = append(ts, rdf.T(subj, name, rdf.NewLiteral(fmt.Sprintf("s%d", s))))
		if s%3 == 0 {
			ts = append(ts, rdf.T(subj, email, rdf.NewLiteral(fmt.Sprintf("s%d@x", s))))
		}
	}
	return ts
}

// governBackends builds the three serving substrates over the same
// data: the in-memory store, the disk store, and a 3-shard cluster.
func governBackends(t *testing.T, data []rdf.Triple) map[string]graph.Graph {
	t.Helper()
	backends := make(map[string]graph.Graph)

	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), data, 4))
	backends["memory"] = graph.Memory(b.BuildParallel(4))

	st, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.BulkLoadParallel(core.EncodeTriples(st.Dictionary(), data, 4), 4); err != nil {
		t.Fatal(err)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	backends["disk"] = graph.Disk(st)

	dict := dictionary.New()
	cl, err := shard.OpenCluster(shard.Config{
		Shards:  3,
		Dict:    dict,
		Load:    core.EncodeTriples(dict, data, 4),
		Workers: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	backends["shard3"] = cl

	return backends
}

// renderRows flattens a result into one string per row, in emission
// order, for exact (order-preserving) comparison. It reads the columnar
// body through Len/At and fails the test if the Rows compatibility view
// says anything else.
func renderRows(t testing.TB, res *Result) []string {
	t.Helper()
	if len(res.Rows) != res.Len() {
		t.Fatalf("Rows view has %d rows, columnar body %d", len(res.Rows), res.Len())
	}
	out := make([]string, 0, res.Len())
	for i := 0; i < res.Len(); i++ {
		parts := make([]string, 0, len(res.Vars))
		for c, v := range res.Vars {
			term := res.At(i, c)
			if got, bound := res.Rows[i][v]; got != term || bound == term.IsZero() {
				t.Fatalf("row %d ?%s: Rows view has %v (bound=%v), At has %v", i, v, got, bound, term)
			}
			parts = append(parts, fmt.Sprintf("%s=%d:%q", v, term.Kind, term.Value))
		}
		out = append(out, strings.Join(parts, " "))
	}
	return out
}

// TestCancelMidJoin cancels an in-flight quadratic join on every
// backend and asserts the evaluation (a) fails with context.Canceled,
// (b) returns within a bounded latency of the cancel, and (c) leaks no
// goroutines (the parallel join workers and cluster gather goroutines
// drain).
func TestCancelMidJoin(t *testing.T) {
	data := governTriples(800, 40, 20)
	backends := governBackends(t, data)
	q, err := Parse(`SELECT ?a ?b WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range backends {
		t.Run(name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := EvalOpts(ctx, g, q, EvalOptions{Workers: 4})
				done <- err
			}()
			time.Sleep(25 * time.Millisecond)
			cancel()
			canceledAt := time.Now()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("evaluation did not return within 10s of cancel")
			}
			// Block-granularity checks mean the stop is prompt; the
			// bound is generous for -race and loaded CI hosts.
			if d := time.Since(canceledAt); d > 2*time.Second {
				t.Errorf("stop latency %v after cancel, want < 2s", d)
			}
			deadline := time.Now().Add(3 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before {
				t.Errorf("goroutines leaked: %d running, %d before the query", n, before)
			}
		})
	}
}

// TestDeadlineMidJoin is the deadline flavor: an expiring context ends
// the evaluation with context.DeadlineExceeded.
func TestDeadlineMidJoin(t *testing.T) {
	data := governTriples(800, 40, 20)
	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), data, 4))
	g := graph.Memory(b.BuildParallel(4))
	q, err := Parse(`SELECT ?a ?b WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := EvalOpts(ctx, g, q, EvalOptions{Workers: 4}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// governQueries is the differential workload: a quadratic join, a
// DISTINCT projection, an OPTIONAL extension, a grouped aggregate, an
// ORDER BY, and an early-terminating LIMIT — every emission path the
// spill machinery has to reproduce bit-identically.
var governQueries = []string{
	`SELECT ?a ?b WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c }`,
	`SELECT DISTINCT ?a WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c }`,
	`SELECT ?a ?b ?e WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c .
		OPTIONAL { ?b <http://ex/email> ?e } }`,
	`SELECT ?c (COUNT(?a) AS ?n) WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c }
		GROUP BY ?c ORDER BY ?c`,
	`SELECT ?a ?b WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c } ORDER BY ?a`,
	`SELECT ?a ?b WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c } LIMIT 500`,
}

// TestSpillDifferential runs the workload unlimited and under a budget
// small enough to force spilling, on every backend and at 1 and 4
// workers, and asserts the rows come back identical — same content,
// same order.
func TestSpillDifferential(t *testing.T) {
	data := governTriples(120, 12, 6)
	backends := governBackends(t, data)
	var totalSpilled int64
	for name, g := range backends {
		for qi, src := range governQueries {
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("query %d: %v", qi, err)
			}
			base, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s query %d unlimited: %v", name, qi, err)
			}
			want := renderRows(t, base)
			for _, workers := range []int{1, 4} {
				dir := t.TempDir()
				m := govern.NewMeter(4096, 1<<30)
				res, err := EvalOpts(context.Background(), g, q, EvalOptions{
					Workers: workers, Meter: m, SpillDir: dir,
				})
				if err != nil {
					t.Fatalf("%s query %d budgeted workers=%d: %v", name, qi, workers, err)
				}
				got := renderRows(t, res)
				if len(got) != len(want) {
					t.Fatalf("%s query %d workers=%d: %d rows budgeted vs %d unlimited",
						name, qi, workers, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s query %d workers=%d row %d:\n  budgeted:  %s\n  unlimited: %s",
							name, qi, workers, i, got[i], want[i])
					}
				}
				totalSpilled += m.Spilled()
				ents, err := os.ReadDir(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(ents) != 0 {
					t.Errorf("%s query %d workers=%d: %d spill files left behind", name, qi, workers, len(ents))
				}
			}
		}
	}
	if totalSpilled == 0 {
		t.Fatal("no query spilled: the budget never forced the spill path")
	}
}

// TestSpillFaultInjection points the spill path at a faulty filesystem:
// ENOSPC, a torn write, a failing read-back, and a failing create must
// each surface as a clean query error — never as wrong rows — and must
// not strand spill files.
func TestSpillFaultInjection(t *testing.T) {
	data := governTriples(120, 12, 6)
	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), data, 4))
	g := graph.Memory(b.BuildParallel(4))
	q, err := Parse(governQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	base, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := renderRows(t, base)

	cases := []struct {
		name  string
		fault iofault.Fault
		match error // nil = any non-nil error acceptable
	}{
		{"enospc", iofault.Fault{Op: iofault.OpWrite, Path: "hexspill", Err: iofault.ErrNoSpace}, iofault.ErrNoSpace},
		{"torn-write", iofault.Fault{Op: iofault.OpWrite, Path: "hexspill", Keep: 8}, iofault.ErrInjected},
		{"read-back", iofault.Fault{Op: iofault.OpRead, Path: "hexspill"}, iofault.ErrInjected},
		{"create", iofault.Fault{Op: iofault.OpOpen, Path: "hexspill"}, iofault.ErrInjected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			inj := iofault.NewInjector(nil).AddFault(tc.fault)
			res, err := EvalOpts(context.Background(), g, q, EvalOptions{
				Workers: 1, MemBudget: 4096, HardCap: 1 << 30, SpillDir: dir, FS: inj,
			})
			if err == nil {
				// The fault must have fired (the budget forces a spill);
				// a fault the query absorbed must not have corrupted rows.
				if inj.Count(tc.fault.Op) == 0 {
					t.Fatal("fault never fired: spill path not exercised")
				}
				got := renderRows(t, res)
				if len(got) != len(want) {
					t.Fatalf("absorbed fault corrupted results: %d rows, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("absorbed fault corrupted row %d", i)
					}
				}
				return
			}
			if tc.match != nil && !errors.Is(err, tc.match) {
				t.Fatalf("err = %v, want errors.Is %v", err, tc.match)
			}
			ents, rdErr := os.ReadDir(dir)
			if rdErr != nil {
				t.Fatal(rdErr)
			}
			if len(ents) != 0 {
				t.Errorf("%d spill files left behind after failure", len(ents))
			}
		})
	}
}

// TestBudgetKillDeterministic asserts NoSpill turns the soft budget
// into a deterministic kill: the same query fails with
// govern.ErrBudgetExceeded on every run, sequential and parallel.
func TestBudgetKillDeterministic(t *testing.T) {
	data := governTriples(120, 12, 6)
	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), data, 4))
	g := graph.Memory(b.BuildParallel(4))
	q, err := Parse(governQueries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		for run := 0; run < 5; run++ {
			_, err := EvalOpts(context.Background(), g, q, EvalOptions{
				Workers: workers, MemBudget: 32 << 10, NoSpill: true,
			})
			if !errors.Is(err, govern.ErrBudgetExceeded) {
				t.Fatalf("workers=%d run %d: err = %v, want govern.ErrBudgetExceeded", workers, run, err)
			}
		}
	}
}

// TestPeakStaysUnderHardCap runs a join whose intermediate state is an
// order of magnitude over the hard cap but whose result is one row: the
// spill machinery must keep the accounted peak under the cap instead of
// materializing the join in memory.
func TestPeakStaysUnderHardCap(t *testing.T) {
	data := governTriples(200, 20, 10)
	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), data, 4))
	g := graph.Memory(b.BuildParallel(4))
	q, err := Parse(`SELECT (COUNT(?a) AS ?n) WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	const budget, hard = 64 << 10, 256 << 10
	m := govern.NewMeter(budget, hard)
	res, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: 1, Meter: m, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["n"].Value != "200000" {
		t.Fatalf("rows = %v, want one count of 200000", res.Rows)
	}
	if m.Spilled() == 0 {
		t.Fatal("join state never spilled: peak assertion is vacuous")
	}
	if p := m.Peak(); p > hard {
		t.Fatalf("accounted peak %d bytes exceeds the %d-byte hard cap", p, hard)
	}
}

// TestDefaultLimits exercises the package-wide knobs the CLI flags land
// on: a default timeout fails a long query with DeadlineExceeded even
// through the no-context entry points.
func TestDefaultLimits(t *testing.T) {
	data := governTriples(800, 40, 20)
	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), data, 4))
	g := graph.Memory(b.BuildParallel(4))
	SetDefaultLimits(0, 15*time.Millisecond)
	defer SetDefaultLimits(0, 0)
	_, err := Exec(g, `SELECT ?a ?b WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c }`)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}
