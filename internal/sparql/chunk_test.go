package sparql

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"unsafe"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/govern"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/triplestore"
)

func cx(local string) rdf.Term { return rdf.NewIRI("http://c/" + local) }

// chunkTriples builds a data set whose pattern ⟨?s p K⟩ has exactly n
// solutions — two constants, so every planner seeds the join with it and
// its one column is sorted — and around it: two r and two r2 edges per
// subject (row-dependent expansions, with values to tell apart in a
// FILTER), a flag on every third subject (the merge filter's candidate
// list), one of five groups, a skewed group (seven subjects in eight
// share one, every eighth has its own), and an optional value on every
// fourth. p and K exist whatever n is, so an empty seed is a seed, not an
// unresolvable constant.
func chunkTriples(n int) []rdf.Triple {
	ts := []rdf.Triple{
		rdf.T(cx("other"), cx("p"), cx("K2")),
		rdf.T(cx("other"), cx("p2"), cx("K")),
		rdf.T(cx("other"), cx("flag"), cx("Yes")),
	}
	for i := 0; i < n; i++ {
		s := cx(fmt.Sprintf("s%03d", i))
		ts = append(ts,
			rdf.T(s, cx("p"), cx("K")),
			rdf.T(s, cx("r"), cx(fmt.Sprintf("x%03d", (i*5+1)%(n+3)))),
			rdf.T(s, cx("r"), cx(fmt.Sprintf("x%03d", (i*11+2)%(n+3)))),
			rdf.T(s, cx("r2"), cx(fmt.Sprintf("x%03d", (i*5+1)%(n+3)))),
			rdf.T(s, cx("r2"), cx(fmt.Sprintf("y%03d", i%13))),
			rdf.T(s, cx("grp"), cx(fmt.Sprintf("g%d", i%5))))
		if i%8 == 7 {
			ts = append(ts, rdf.T(s, cx("skew"), cx(fmt.Sprintf("t%03d", i))))
		} else {
			ts = append(ts, rdf.T(s, cx("skew"), cx("head")))
		}
		if i%3 == 0 {
			ts = append(ts, rdf.T(s, cx("flag"), cx("Yes")))
		}
		if i%4 == 0 {
			ts = append(ts, rdf.T(s, cx("opt"), rdf.NewLiteral(fmt.Sprintf("v%d", i))))
		}
	}
	return ts
}

// chunkBackends loads ts into the three substrates the pipeline runs
// over — the overlay with the second half of the data in its delta —
// and into the flat triples table that serves as the oracle.
func chunkBackends(t *testing.T, ts []rdf.Triple) (backends map[string]graph.Graph, oracle graph.Graph) {
	t.Helper()
	ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	load := func(g graph.Graph, ts []rdf.Triple) graph.Graph {
		for _, tr := range ts {
			if _, err := graph.AddTriple(g, tr); err != nil {
				t.Fatal(err)
			}
		}
		return g
	}
	ov, err := delta.Open(buildMemory(ts[:len(ts)/2]), delta.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ov.Close() })
	backends = map[string]graph.Graph{
		"memory":  buildMemory(ts),
		"disk":    load(graph.Disk(ds), ts),
		"overlay": load(ov, ts[len(ts)/2:]),
	}
	return backends, load(graph.Baseline(triplestore.New(nil)), ts)
}

// chunkShapes are the emission paths a chunk boundary can cut through;
// the chained OPTIONAL fetches the second group's list for the rows the
// first leaves unbound.
// ordered results are compared with the oracle row by row; LIMIT alone
// keeps whichever rows come first, so it is checked as a subset of the
// first shape's answer — the same query without the LIMIT.
var chunkShapes = []struct {
	name, src       string
	ordered, subset bool
}{
	{name: "plain", src: `SELECT ?s ?x WHERE { ?s <http://c/p> <http://c/K> . ?s <http://c/r> ?x }`},
	{name: "merge-filter", src: `SELECT ?s ?x WHERE { ?s <http://c/p> <http://c/K> . ?s <http://c/flag> <http://c/Yes> . ?s <http://c/r> ?x }`},
	{name: "distinct", src: `SELECT DISTINCT ?x WHERE { ?s <http://c/p> <http://c/K> . ?s <http://c/r> ?x }`},
	{name: "group-count-distinct", src: `SELECT ?g (COUNT(DISTINCT ?x) AS ?c) WHERE { ?s <http://c/p> <http://c/K> . ?s <http://c/grp> ?g . ?s <http://c/r> ?x } GROUP BY ?g`},
	{name: "group-skewed", ordered: true, src: `SELECT ?k (COUNT(?x) AS ?c) (COUNT(DISTINCT ?x) AS ?d) WHERE { ?s <http://c/p> <http://c/K> . ?s <http://c/skew> ?k . ?s <http://c/r> ?x } GROUP BY ?k ORDER BY DESC(?c) ?k`},
	{name: "distinct-skewed", src: `SELECT DISTINCT ?k ?x WHERE { ?s <http://c/p> <http://c/K> . ?s <http://c/skew> ?k . ?s <http://c/r> ?x }`},
	{name: "order-limit", ordered: true, src: `SELECT ?s ?x WHERE { ?s <http://c/p> <http://c/K> . ?s <http://c/r> ?x } ORDER BY ?x DESC(?s) LIMIT 10`},
	{name: "limit", subset: true, src: `SELECT ?s ?x WHERE { ?s <http://c/p> <http://c/K> . ?s <http://c/r> ?x } LIMIT 21`},
	{name: "ask", src: `ASK { ?s <http://c/p> <http://c/K> . ?s <http://c/flag> <http://c/Yes> . ?s <http://c/r> ?x }`},
	{name: "filter-vars", src: `SELECT ?s ?x ?y WHERE { ?s <http://c/p> <http://c/K> . ?s <http://c/r> ?x . ?s <http://c/r2> ?y . FILTER (?x != ?y) }`},
	{name: "optional", src: `SELECT ?s ?v WHERE { ?s <http://c/p> <http://c/K> . OPTIONAL { ?s <http://c/opt> ?v } }`},
	{name: "optional-chained", src: `SELECT ?s ?v WHERE { ?s <http://c/p> <http://c/K> . OPTIONAL { ?s <http://c/opt> ?v } OPTIONAL { <http://c/other> <http://c/flag> ?v } }`},
	{name: "union", src: `SELECT ?s ?x WHERE { ?s <http://c/p> <http://c/K> . { ?s <http://c/r> ?x } UNION { ?s <http://c/r2> ?x } }`},
}

func sortedCopy(rows []string) []string {
	out := slices.Clone(rows)
	sort.Strings(out)
	return out
}

// TestChunkBoundaries runs every emission path over seeds of 0, 1,
// chunk−1, chunk, chunk+1 and 3·chunk+7 rows, on every substrate and at
// 1, 2 and 4 workers. The oracle — the flat triples table, evaluated
// before the chunk is shrunk, so as one chunk — decides the answers; the
// one-worker run decides the row order.
func TestChunkBoundaries(t *testing.T) {
	const chunk = 16
	for _, n := range []int{0, 1, chunk - 1, chunk, chunk + 1, 3*chunk + 7} {
		t.Run(fmt.Sprintf("seed=%d", n), func(t *testing.T) {
			backends, oracle := chunkBackends(t, chunkTriples(n))
			want := make([][]string, len(chunkShapes))
			for i, sh := range chunkShapes {
				q, err := Parse(sh.src)
				if err != nil {
					t.Fatalf("%s: %v", sh.name, err)
				}
				res, err := evalWorkers(oracle, q, 1)
				if err != nil {
					t.Fatalf("%s oracle: %v", sh.name, err)
				}
				want[i] = renderResult(t, res)
			}
			universe := want[0]

			setChunkRows(t, chunk)
			for name, g := range backends {
				for i, sh := range chunkShapes {
					q, err := Parse(sh.src)
					if err != nil {
						t.Fatal(err)
					}
					var first []string
					for _, workers := range []int{1, 2, 4} {
						res, err := evalWorkers(g, q, workers)
						if err != nil {
							t.Fatalf("%s %s workers=%d: %v", name, sh.name, workers, err)
						}
						got := renderResult(t, res)
						if workers == 1 {
							first = got
							switch {
							case sh.ordered:
								if !slices.Equal(got, want[i]) {
									t.Errorf("%s %s: rows differ from the oracle's\n got %v\nwant %v", name, sh.name, got, want[i])
								}
							case sh.subset:
								if len(got) != len(want[i]) {
									t.Errorf("%s %s: %d rows, oracle %d", name, sh.name, len(got), len(want[i]))
								}
								for _, row := range got {
									if !slices.Contains(universe, row) {
										t.Errorf("%s %s: row %s is not a solution", name, sh.name, row)
									}
								}
							default:
								if !slices.Equal(sortedCopy(got), sortedCopy(want[i])) {
									t.Errorf("%s %s: answer differs from the oracle's (%d rows vs %d)", name, sh.name, len(got), len(want[i]))
								}
							}
						} else if !slices.Equal(got, first) {
							t.Errorf("%s %s workers=%d: rows or their order differ from workers=1", name, sh.name, workers)
						}
					}
				}
			}
		})
	}
}

// TestChunkSkewedFanOut joins a seed of 40 chunks of which only the
// first fans out — 50 matches a row there, none anywhere else — so the
// answer is one chunk's worth of rows. The cells kept for it must be
// sized by the rows emitted, not by what the first chunk's fan-out would
// predict for the chunks behind it.
func TestChunkSkewedFanOut(t *testing.T) {
	const chunk, chunks, fan = 16, 40, 50
	var ts []rdf.Triple
	for i := 0; i < chunk*chunks; i++ {
		a, b := cx(fmt.Sprintf("a%04d", i)), cx(fmt.Sprintf("b%04d", i))
		ts = append(ts, rdf.T(a, cx("p"), b))
		if i < chunk {
			for k := 0; k < fan; k++ {
				ts = append(ts, rdf.T(b, cx("q"), cx(fmt.Sprintf("c%02d", k))))
			}
		}
	}
	g := buildMemory(ts)
	q, err := Parse(`SELECT ?a ?c WHERE { ?a <http://c/p> ?b . ?b <http://c/q> ?c }`)
	if err != nil {
		t.Fatal(err)
	}
	setChunkRows(t, chunk)
	for _, workers := range []int{1, 4} {
		res, err := evalWorkers(g, q, workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != chunk*fan {
			t.Fatalf("workers=%d: %d rows, want %d", workers, res.Len(), chunk*fan)
		}
		if c, l := cap(res.ids), len(res.ids); c > 2*l {
			t.Errorf("workers=%d: result keeps %d cells for %d used", workers, c, l)
		}
	}
}

// renderResult is renderRows for results that may be an ASK answer.
func renderResult(t testing.TB, res *Result) []string {
	if res.IsAsk {
		return []string{fmt.Sprintf("ask:%v", res.Answer)}
	}
	return renderRows(t, res)
}

// TestChunkBudgetForced runs the shapes at the limit of what they
// account, sequentially: accounting is per piece and per fetch, in one
// order, so the limit at the accounted peak returns the unlimited rows
// bit for bit and gives back everything but the result rows, and one
// byte less fails typed. Across lanes the rows and the give-back hold
// too.
func TestChunkBudgetForced(t *testing.T) {
	const chunk = 512
	backends, _ := chunkBackends(t, chunkTriples(3*chunk+7))
	setChunkRows(t, chunk)
	for name, g := range backends {
		for _, sh := range chunkShapes {
			q, err := Parse(sh.src)
			if err != nil {
				t.Fatal(err)
			}
			// What the unlimited run leaves accounted is its result rows;
			// anything a limited run leaves beyond that is engine state
			// that was never given back.
			rows := govern.NewMeter(0)
			free, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: 1, Meter: rows})
			if err != nil {
				t.Fatal(err)
			}
			want := renderResult(t, free)
			if charge := rowCharge(q, free); rows.Used() != charge {
				t.Errorf("%s %s: %d bytes accounted after the unlimited run, want its %d rows' %d",
					name, sh.name, rows.Used(), free.Len(), charge)
			}
			peak := rows.Peak()
			if _, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: 1, MemBudget: peak - 1}); !errors.Is(err, govern.ErrBudgetExceeded) {
				t.Errorf("%s %s: one byte under the %d-byte peak: err = %v, want govern.ErrBudgetExceeded", name, sh.name, peak, err)
			}
			for _, workers := range []int{1, 4} {
				m := govern.NewMeter(0)
				if workers == 1 {
					m = govern.NewMeter(peak)
				}
				res, err := EvalOpts(context.Background(), g, q, EvalOptions{Workers: workers, Meter: m})
				if err != nil {
					t.Fatalf("%s %s workers=%d limited: %v", name, sh.name, workers, err)
				}
				if got := renderResult(t, res); !slices.Equal(got, want) {
					t.Errorf("%s %s workers=%d: limited rows differ from unlimited", name, sh.name, workers)
				}
				if m.Used() != rows.Used() {
					t.Errorf("%s %s workers=%d: %d bytes accounted after the query, %d of them result rows",
						name, sh.name, workers, m.Used(), rows.Used())
				}
			}
		}
	}
}

// rowCharge is what the answer res to q stays charged once q is
// answered, priced as the evaluator's retain calls price it: per
// collected row (rowBytes) an id per variable, a sort key per ORDER BY
// key and a sequence number; the DISTINCT table that let the rows
// through; per GROUP BY bucket its table entry, its counts and its row,
// and each COUNT(DISTINCT)'s table of (group, value) pairs. Tables are
// priced by building one of as many tuples (idTable.size depends on the
// count and the width only).
func rowCharge(q *Query, res *Result) int64 {
	rowBytes := int64(len(res.Vars))*int64(unsafe.Sizeof(core.None)) +
		int64(len(q.OrderBy))*int64(unsafe.Sizeof(sortKey{})) + 8
	table := func(w, n int) int64 {
		t := newIDTable(w)
		key := make([]core.ID, w)
		for i := 0; i < n; i++ {
			for j := range key {
				key[j] = core.ID(i + 1)
			}
			t.insert(key)
		}
		return t.size()
	}
	switch {
	case res.IsAsk:
		if res.Answer {
			return rowBytes
		}
		return 0
	case len(q.Aggregates) > 0:
		charge := table(len(q.GroupBy), res.Len()) + int64(res.Len())*(int64(len(q.Aggregates))*8+rowBytes)
		for _, a := range q.Aggregates {
			if !a.Distinct {
				continue
			}
			pairs := 0
			col := slices.Index(res.Vars, a.As)
			for r := 0; r < res.Len(); r++ {
				n, _ := strconv.Atoi(res.At(r, col).Value)
				pairs += n
			}
			charge += table(2, pairs)
		}
		return charge
	case q.Distinct:
		return table(len(res.Vars), res.Len()) + int64(res.Len())*rowBytes
	}
	return int64(res.Len()) * rowBytes
}

// countGraph counts the ids a query examines: every id a sorted list, a
// pair stream or a match hands the evaluator, one per existence probe.
type countGraph struct {
	graph.Graph
	sorted graph.SortedSource
	ids    atomic.Int64
}

func (c *countGraph) Has(s, p, o graph.ID) (bool, error) {
	c.ids.Add(1)
	return c.Graph.Has(s, p, o)
}

func (c *countGraph) Match(s, p, o graph.ID, fn func(s, p, o graph.ID) bool) error {
	return c.Graph.Match(s, p, o, func(ms, mp, mo graph.ID) bool {
		c.ids.Add(3)
		return fn(ms, mp, mo)
	})
}

func (c *countGraph) AppendSortedList(dst []graph.ID, s, p, o graph.ID) ([]graph.ID, error) {
	n := len(dst)
	dst, err := c.sorted.AppendSortedList(dst, s, p, o)
	c.ids.Add(int64(len(dst) - n))
	return dst, err
}

func (c *countGraph) SortedPairs(s, p, o graph.ID, fn func(a, b graph.ID) bool) error {
	return c.sorted.SortedPairs(s, p, o, func(a, b graph.ID) bool {
		c.ids.Add(2)
		return fn(a, b)
	})
}
