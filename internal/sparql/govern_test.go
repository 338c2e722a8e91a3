package sparql

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/govern"
	"hexastore/internal/graph"
	"hexastore/internal/obs"
	"hexastore/internal/rdf"
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
// data: the in-memory store, the disk store, and a delta overlay whose
// main store holds half the triples and whose delta holds the rest.
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

	half := len(data) / 2
	mb := core.NewBuilder(nil)
	mb.AddAll(core.EncodeTriples(mb.Dictionary(), data[:half], 4))
	ov, err := delta.New(graph.Memory(mb.BuildParallel(4)), delta.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })
	ops := make([]graph.TripleOp, 0, len(data)-half)
	for _, tr := range data[half:] {
		ops = append(ops, graph.TripleOp{T: tr})
	}
	if _, _, err := graph.ApplyTriples(ov, ops); err != nil {
		t.Fatal(err)
	}
	backends["overlay"] = ov

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
// goroutines (the parallel join workers drain).
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
// ORDER BY, and an early-terminating LIMIT — every emission path a
// memory limit must leave bit-identical.
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

// skewTriples builds a dataset whose <link> fan-out is one for every
// node but a head with 10⁴ targets, and two of the 502 <to> edges point
// at that head: most of a join through it comes from one row.
func skewTriples() []rdf.Triple {
	to, link := rdf.NewIRI("http://ex/to"), rdf.NewIRI("http://ex/link")
	head := rdf.NewIRI("http://ex/head")
	var ts []rdf.Triple
	for i := 0; i < 500; i++ {
		n := rdf.NewIRI(fmt.Sprintf("http://ex/n%04d", i))
		ts = append(ts,
			rdf.T(rdf.NewIRI(fmt.Sprintf("http://ex/a%04d", i)), to, n),
			rdf.T(n, link, rdf.NewIRI(fmt.Sprintf("http://ex/m%04d", i))))
	}
	for j := 0; j < 2; j++ {
		ts = append(ts, rdf.T(rdf.NewIRI(fmt.Sprintf("http://ex/src%d", j)), to, head))
	}
	for k := 0; k < 10000; k++ {
		ts = append(ts, rdf.T(head, link, rdf.NewIRI(fmt.Sprintf("http://ex/t%05d", k))))
	}
	return ts
}

var skewQueries = []string{
	`SELECT (COUNT(?t) AS ?n) WHERE { ?a <http://ex/to> ?b . ?b <http://ex/link> ?t }`,
	`SELECT DISTINCT ?t WHERE { ?a <http://ex/to> ?b . ?b <http://ex/link> ?t }`,
	`SELECT ?b (COUNT(?t) AS ?n) WHERE { ?a <http://ex/to> ?b . ?b <http://ex/link> ?t } GROUP BY ?b`,
	`SELECT ?a ?t WHERE { ?a <http://ex/to> ?b . ?b <http://ex/link> ?t } LIMIT 300`,
}

// engineSlack is what TestBudgetDifferential lets a query hold beside
// its result rows: the shared lists its steps fetched, one piece per step
// depth and lane, and the lanes' queues.
const engineSlack = 1 << 20

// TestBudgetDifferential runs each workload unlimited and under a limit
// of its result rows plus engineSlack — far below what its joins would
// hold materialised — on every backend, at 1 and 4 workers and in pieces
// of 4 and 1,024 rows, and asserts the rows come back identical (same
// content, same order) with the accounted peak under the limit.
func TestBudgetDifferential(t *testing.T) {
	for _, ds := range []struct {
		name    string
		data    []rdf.Triple
		queries []string
	}{
		{"uniform", governTriples(48, 8, 4), governQueries},
		{"skewed", skewTriples(), skewQueries},
	} {
		backends := governBackends(t, ds.data)
		for name, g := range backends {
			for qi, src := range ds.queries {
				q, err := Parse(src)
				if err != nil {
					t.Fatalf("query %d: %v", qi, err)
				}
				for _, chunk := range []int{4, 1024} {
					setChunkRows(t, chunk)
					rows := govern.NewMeter(0)
					base, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: 1, Meter: rows})
					if err != nil {
						t.Fatalf("%s/%s query %d unlimited: %v", ds.name, name, qi, err)
					}
					want := renderRows(t, base)
					limit := rows.Used() + engineSlack
					if p := rows.Peak(); p > limit {
						t.Fatalf("%s/%s query %d chunk=%d: unlimited run peaked at %d bytes, %d over its result rows",
							ds.name, name, qi, chunk, p, p-rows.Used())
					}
					for _, workers := range []int{1, 4} {
						m := govern.NewMeter(limit)
						res, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: workers, Meter: m})
						if err != nil {
							t.Fatalf("%s/%s query %d chunk=%d workers=%d under %d bytes: %v",
								ds.name, name, qi, chunk, workers, limit, err)
						}
						if got := renderRows(t, res); !slices.Equal(got, want) {
							t.Fatalf("%s/%s query %d chunk=%d workers=%d: rows differ from the unlimited run",
								ds.name, name, qi, chunk, workers)
						}
						if m.Used() != rows.Used() {
							t.Errorf("%s/%s query %d chunk=%d workers=%d: %d bytes accounted after the query, %d of them result rows",
								ds.name, name, qi, chunk, workers, m.Used(), rows.Used())
						}
					}
				}
			}
		}
	}
}

// TestBudgetKillDeterministic asserts the limit is a deterministic kill:
// a join whose shared lists and pieces fit but whose result rows do not
// fails with govern.ErrBudgetExceeded on every run, sequential and
// parallel.
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
				Workers: workers, MemBudget: 256 << 10,
			})
			if !errors.Is(err, govern.ErrBudgetExceeded) {
				t.Fatalf("workers=%d run %d: err = %v, want govern.ErrBudgetExceeded", workers, run, err)
			}
		}
	}
}

// TestPeakStaysUnderBudget runs a join whose intermediate result is more
// than 30 times the limit but whose answer is one row: pieces keep the
// accounted peak — the seed's lists included — under the limit instead of
// materializing the join.
func TestPeakStaysUnderBudget(t *testing.T) {
	data := governTriples(200, 20, 10)
	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), data, 4))
	g := graph.Memory(b.BuildParallel(4))
	q, err := Parse(`SELECT (COUNT(?a) AS ?n) WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	const limit, joined = 64 << 10, 200000
	if intermediate := int64(joined * 3 * 8); intermediate < 30*limit {
		t.Fatalf("the join's %d-byte intermediate is not 30 times the limit", intermediate)
	}
	m := govern.NewMeter(0)
	if _, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: 1, Meter: m}); err != nil {
		t.Fatal(err)
	}
	p := m.Peak()
	if seed := int64(200*10) * 2 * 8; p < seed {
		t.Fatalf("accounted peak %d bytes is under the seed's %d-byte lists", p, seed)
	}
	if p > limit {
		t.Fatalf("accounted peak %d bytes exceeds the %d-byte limit", p, limit)
	}
	t.Logf("accounted peak %d bytes, %d under the limit", p, limit-p)
	res, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: 1, MemBudget: limit})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["n"].Value != fmt.Sprint(joined) {
		t.Fatalf("rows = %v, want one count of %d", res.Rows, joined)
	}
}

// TestBudgetOptionalFanOut runs an OPTIONAL group that matches every
// student for each enrollment row: one piece of the seed makes 86,400
// result rows. The limit must stop it after about a piece's worth of
// rows, not once the whole piece has been materialised.
func TestBudgetOptionalFanOut(t *testing.T) {
	data := governTriples(120, 12, 6)
	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), data, 4))
	g := graph.Memory(b.BuildParallel(4))
	q, err := Parse(`SELECT ?a ?x WHERE { ?a <http://ex/takes> ?c OPTIONAL { ?x <http://ex/name> ?n } }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: workers, MemBudget: 64 << 10})
		runtime.ReadMemStats(&after)
		if !errors.Is(err, govern.ErrBudgetExceeded) {
			t.Fatalf("workers=%d: err = %v, want govern.ErrBudgetExceeded", workers, err)
		}
		// The whole answer is 86,400 × 2 ids ≈ 1.4 MB, a piece's worth of
		// rows (1,024) 16 KiB: a meter that heard of the rows only once
		// per piece would let the whole answer through before it stopped.
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 512<<10 {
			t.Errorf("workers=%d: the query allocated %d bytes before it was stopped", workers, alloc)
		}
	}
}

// TestBudgetOptionalGivesBack runs a chained OPTIONAL whose second
// group fetches one shared list for the pieces the first leaves unbound:
// the list is held while the branch runs, so after the query the meter
// carries the result rows alone — two ids and a sequence number each —
// on every backend and across lanes.
func TestBudgetOptionalGivesBack(t *testing.T) {
	backends, _ := chunkBackends(t, chunkTriples(40))
	q, err := Parse(`SELECT ?s ?v WHERE { ?s <http://c/p> <http://c/K> .
		OPTIONAL { ?s <http://c/opt> ?v } OPTIONAL { <http://c/other> <http://c/flag> ?v } }`)
	if err != nil {
		t.Fatal(err)
	}
	setChunkRows(t, 4)
	for name, g := range backends {
		for _, workers := range []int{1, 4} {
			m := govern.NewMeter(0)
			res, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: workers, Meter: m})
			if err != nil {
				t.Fatal(err)
			}
			if want := int64(res.Len()) * (2*8 + 8); res.Len() != 40 || m.Used() != want {
				t.Errorf("%s workers=%d: %d rows, %d bytes accounted after the query, want 40 rows and %d", name, workers, res.Len(), m.Used(), want)
			}
		}
	}
}

// TestBudgetCountDistinctFewValues counts the distinct values of a
// join whose 200,000 rows carry only 200, interleaved: what
// COUNT(DISTINCT) holds must grow with the distinct (group, value)
// pairs, not with the rows. One 16-byte entry per row would need 3.2 MB;
// the limit leaves room for the lanes' pieces and little more.
func TestBudgetCountDistinctFewValues(t *testing.T) {
	data := governTriples(200, 20, 10)
	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), data, 4))
	g := graph.Memory(b.BuildParallel(4))
	const limit = 512 << 10
	for _, src := range []string{
		`SELECT (COUNT(DISTINCT ?b) AS ?n) WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c FILTER(?a != ?b) }`,
		`SELECT ?c (COUNT(DISTINCT ?b) AS ?n) WHERE { ?a <http://ex/takes> ?c . ?b <http://ex/takes> ?c FILTER(?a != ?b) } GROUP BY ?c`,
	} {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		want, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			res, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: workers, MemBudget: limit})
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, src, err)
			}
			if got, exp := renderRows(t, res), renderRows(t, want); !slices.Equal(got, exp) {
				t.Fatalf("workers=%d %s: rows %v, want %v", workers, src, got, exp)
			}
		}
	}
}

// TestBudgetGroupWalkBitset: the group walk charges the meter for its
// semijoin's bitset — one bit per dictionary id — before it walks, so a
// budget below the bitset's bytes stops the query with the budget error
// and one above them answers it.
func TestBudgetGroupWalkBitset(t *testing.T) {
	g, q := groupWalkFixture(t)
	bits := int64((g.Dictionary().Len() + 64) / 64 * 8)
	if _, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: 1, MemBudget: bits - 1}); !errors.Is(err, govern.ErrBudgetExceeded) {
		t.Fatalf("budget %d below the bitset's %d bytes: err = %v, want govern.ErrBudgetExceeded", bits-1, bits, err)
	}
	tr := obs.NewTrace("query")
	res, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: 1, MemBudget: bits + 4<<10, Trace: tr})
	if err != nil {
		t.Fatalf("budget %d: %v", bits+4<<10, err)
	}
	tr.Finish()
	if res.Len() != 40 || len(findSpans(tr, "step[")) != 2 {
		t.Fatalf("%d rows, want 40 from a group walk with one semijoin\n%s", res.Len(), tr)
	}
}

// TestCancelGroupWalkBitset cancels the group walk at each of its
// cancellation checks in turn — the context reports itself canceled from
// its n-th Err call on — and holds every run that stops to ctx.Err(),
// and the one that does not to the answer. The bitset build checks once
// per chunkRows keys, so there are more checks than keys per piece.
func TestCancelGroupWalkBitset(t *testing.T) {
	setChunkRows(t, 4)
	g, q := groupWalkFixture(t)
	want, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	email, _ := g.Dictionary().Lookup(rdf.NewIRI("http://ex/email"))
	emails, err := g.Count(core.None, email, core.None)
	if err != nil {
		t.Fatal(err)
	}
	for n := int64(0); ; n++ {
		ctx := &countdownCtx{Context: context.Background(), done: make(chan struct{}), left: n}
		res, err := EvalOpts(ctx, g, q, EvalOptions{Workers: 1})
		if err == nil {
			if got, exp := renderRows(t, res), renderRows(t, want); !slices.Equal(got, exp) {
				t.Fatalf("after %d checks: rows %v, want %v", n, got, exp)
			}
			if n <= int64(emails/chunkRows) {
				t.Fatalf("the walk checked cancellation %d times, want more than one per %d of %d keys", n, chunkRows, emails)
			}
			return
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled at check %d: err = %v, want context.Canceled", n, err)
		}
	}
}

// groupWalkFixture is a memory store of 2,000 students taking 3 of 40
// courses, a third of them with an email, and a DISTINCT over the
// courses of students with an email: a group walk with one semijoin.
func groupWalkFixture(t *testing.T) (graph.Graph, *Query) {
	t.Helper()
	data := governTriples(2000, 40, 3)
	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), data, 4))
	q, err := Parse(`SELECT DISTINCT ?c WHERE { ?s <http://ex/takes> ?c . ?s <http://ex/email> ?e }`)
	if err != nil {
		t.Fatal(err)
	}
	return graph.Memory(b.BuildParallel(4)), q
}

// countdownCtx is a context that is never done but reports itself
// canceled from Err call left+1 on.
type countdownCtx struct {
	context.Context
	done chan struct{}
	left int64
}

func (c *countdownCtx) Done() <-chan struct{} { return c.done }

func (c *countdownCtx) Err() error {
	if c.left--; c.left < 0 {
		return context.Canceled
	}
	return nil
}
