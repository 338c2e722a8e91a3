package sparql

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hexastore/internal/rdf"
)

// groupingHead and groupingTails size groupingTriples: one group of
// groupingHead subjects and groupingTails groups of one, so the head is
// 10⁴ times the median group.
const groupingHead, groupingTails = 10_000, 101

// groupingTriples gives every subject a group (grp) and a value out of
// 37 (val); every fifth subject has an optional value out of 4 (opt).
func groupingTriples() []rdf.Triple {
	var ts []rdf.Triple
	for i := 0; i < groupingHead+groupingTails; i++ {
		s := cx(fmt.Sprintf("s%05d", i))
		g := cx("gH")
		if i >= groupingHead {
			g = cx(fmt.Sprintf("g%03d", i-groupingHead))
		}
		ts = append(ts, rdf.T(s, cx("grp"), g), rdf.T(s, cx("val"), rdf.NewLiteral(strconv.Itoa(i%37))))
		if i%5 == 0 {
			ts = append(ts, rdf.T(s, cx("opt"), cx(fmt.Sprintf("o%d", i%4))))
		}
	}
	return ts
}

// groupingCases are the DISTINCT and GROUP BY shapes the id tables serve.
// ordered cases have a total ORDER BY, so their rows are compared in
// order; a LIMIT without ORDER BY keeps whichever rows come first, so
// such a case (window) is checked as distinct rows of the full answer.
var groupingCases = []struct {
	name, src string
	ordered   bool
	window    bool
}{
	{name: "key1", src: `SELECT ?g (COUNT(?s) AS ?n) (COUNT(DISTINCT ?v) AS ?d) WHERE { ?s <http://c/grp> ?g . ?s <http://c/val> ?v } GROUP BY ?g`},
	{name: "key2", src: `SELECT ?v ?g (COUNT(*) AS ?n) WHERE { ?s <http://c/grp> ?g . ?s <http://c/val> ?v } GROUP BY ?g ?v`},
	{name: "key3-unbound", src: `SELECT ?o ?g ?v (COUNT(DISTINCT ?s) AS ?n) (COUNT(?o) AS ?m) WHERE { ?s <http://c/grp> ?g . ?s <http://c/val> ?v OPTIONAL { ?s <http://c/opt> ?o } } GROUP BY ?g ?v ?o`},
	{name: "key1-unbound", src: `SELECT ?o (COUNT(?s) AS ?n) (COUNT(DISTINCT ?g) AS ?m) WHERE { ?s <http://c/grp> ?g OPTIONAL { ?s <http://c/opt> ?o } } GROUP BY ?o`},
	{name: "count-distinct-unbound", src: `SELECT ?g (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s <http://c/grp> ?g OPTIONAL { ?s <http://c/opt> ?o } } GROUP BY ?g`},
	{name: "no-group", src: `SELECT (COUNT(DISTINCT ?v) AS ?n) (COUNT(*) AS ?m) WHERE { ?s <http://c/grp> ?g . ?s <http://c/val> ?v }`},
	{name: "distinct1", src: `SELECT DISTINCT ?g WHERE { ?s <http://c/grp> ?g . ?s <http://c/val> ?v }`},
	{name: "distinct2", src: `SELECT DISTINCT ?v ?g WHERE { ?s <http://c/grp> ?g . ?s <http://c/val> ?v }`},
	{name: "distinct3-unbound", src: `SELECT DISTINCT ?g ?o ?v WHERE { ?s <http://c/grp> ?g . ?s <http://c/val> ?v OPTIONAL { ?s <http://c/opt> ?o } }`},
	{name: "distinct-many", src: `SELECT DISTINCT ?s ?g WHERE { ?s <http://c/grp> ?g }`},
	{name: "order-alias", ordered: true, src: `SELECT ?g (COUNT(?s) AS ?n) WHERE { ?s <http://c/grp> ?g . ?s <http://c/val> ?v } GROUP BY ?g ORDER BY DESC(?n) ?g`},
	{name: "order-alias-window", ordered: true, src: `SELECT ?v ?o (COUNT(?s) AS ?n) WHERE { ?s <http://c/val> ?v . ?s <http://c/opt> ?o } GROUP BY ?v ?o ORDER BY ?n DESC(?v) ?o LIMIT 5 OFFSET 3`},
	{name: "distinct-order-window", ordered: true, src: `SELECT DISTINCT ?v WHERE { ?s <http://c/grp> ?g . ?s <http://c/val> ?v } ORDER BY DESC(?v) LIMIT 4 OFFSET 2`},
	{name: "distinct-window", window: true, src: `SELECT DISTINCT ?v ?g WHERE { ?s <http://c/grp> ?g . ?s <http://c/val> ?v } LIMIT 9 OFFSET 20`},
	{name: "distinct-window-short", window: true, src: `SELECT DISTINCT ?g WHERE { ?s <http://c/grp> ?g } LIMIT 500 OFFSET 40`},
}

// TestGroupingDifferential runs DISTINCT and GROUP BY over skewed groups
// — one head 10⁴ times the median — with keys of one, two and three
// variables, unbound OPTIONAL keys, ORDER BY on an aggregate alias and
// DISTINCT under LIMIT/OFFSET, on the memory store, the disk store and an
// overlay with half the data pending, at 1 and 4 workers and pieces of 4
// and 1024 rows. Every answer must be the naive nested-loop oracle's.
func TestGroupingDifferential(t *testing.T) {
	ts := groupingTriples()
	backends, _ := chunkBackends(t, ts)
	oracle := newNaiveStore(ts)
	for _, gc := range groupingCases {
		q, err := Parse(gc.src)
		if err != nil {
			t.Fatalf("%s: %v", gc.name, err)
		}
		var want []string
		switch {
		case gc.ordered:
			want = oracle.ordered(q)
		default:
			want = oracle.answer(q)
		}
		for name, g := range backends {
			for _, chunk := range []int{4, 1024} {
				setChunkRows(t, chunk)
				for _, workers := range []int{1, 4} {
					res, err := EvalWorkers(g, q, workers)
					if err != nil {
						t.Fatalf("%s on %s: %v", gc.name, name, err)
					}
					got := renderResult(t, res)
					at := fmt.Sprintf("%s on %s (chunk %d, %d workers)", gc.name, name, chunk, workers)
					switch {
					case gc.ordered:
						if !slices.Equal(got, want) {
							t.Fatalf("%s: rows differ from the oracle's\n got %v\nwant %v", at, got, want)
						}
					case gc.window:
						lo, hi := window(len(want), q.Offset, q.Limit)
						if len(got) != hi-lo || len(slices.Compact(sortedCopy(got))) != len(got) {
							t.Fatalf("%s: %d rows (distinct: %d), want %d distinct", at, len(got), len(slices.Compact(sortedCopy(got))), hi-lo)
						}
						for _, row := range got {
							if _, found := slices.BinarySearch(want, row); !found {
								t.Fatalf("%s: row %s is not in the answer", at, row)
							}
						}
					default:
						if got = sortedCopy(got); !slices.Equal(got, want) {
							t.Fatalf("%s: answer differs from the oracle's (%d rows vs %d)", at, len(got), len(want))
						}
					}
				}
			}
		}
	}
}

// ordered evaluates q with its ORDER BY, OFFSET and LIMIT: unbound
// sorts first, two numbers compare as numbers and anything else by its
// N-Triples rendering, DESC reverses a key. The order must be total for
// the rows to be comparable with an engine's.
func (ns *naiveStore) ordered(q *Query) []string {
	vars, rows := ns.rows(q)
	slices.SortFunc(rows, func(a, b map[string]rdf.Term) int {
		for _, k := range q.OrderBy {
			x, xok := a[k.Var]
			y, yok := b[k.Var]
			c := cmp.Compare(boolInt(xok), boolInt(yok))
			if c == 0 && xok {
				fx, ex := strconv.ParseFloat(x.Value, 64)
				fy, ey := strconv.ParseFloat(y.Value, 64)
				if ex == nil && ey == nil {
					c = cmp.Compare(fx, fy)
				} else {
					c = strings.Compare(x.String(), y.String())
				}
			}
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	})
	lo, hi := window(len(rows), q.Offset, q.Limit)
	out := make([]string, 0, hi-lo)
	for _, row := range rows[lo:hi] {
		out = append(out, renderNaive(vars, row))
	}
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
