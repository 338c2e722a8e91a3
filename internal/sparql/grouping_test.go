package sparql

import (
	"cmp"
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hexastore/internal/barton"
	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/graph"
	"hexastore/internal/obs"
	"hexastore/internal/queries"
	"hexastore/internal/rdf"
)

// groupingHead and groupingTails size groupingTriples: one group of
// groupingHead subjects and groupingTails groups of one, so the head is
// 10⁴ times the median group.
const groupingHead, groupingTails = 10_000, 101

// groupingTriples gives every subject a group (grp) and a value out of
// 37 (val); every fifth subject has an optional value out of 4 (opt), and
// every seventh one to three tags (tag), so a join on tags repeats a
// subject. The group walk's cases read a smaller population: every
// twentieth subject is in one of six clubs (club), every seventh of
// those but club c5's pays a fee (fee), the even clubs and gH have a kind
// (kind) and three predicates a label (label) — so a semijoin on a
// club's members drops some of them and club c5 whole, and one on the
// club drops the odd ones. Three subjects seed bnd, for the cases at the
// walk's size bound.
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
		for j := 0; i%7 == 0 && j <= i%3; j++ {
			ts = append(ts, rdf.T(s, cx("tag"), cx(fmt.Sprintf("t%d", j))))
		}
		if c := i / 20 % 6; i%20 == 0 {
			ts = append(ts, rdf.T(s, cx("club"), cx(fmt.Sprintf("c%d", c))))
			if i/20%7 == 0 && c != 5 {
				ts = append(ts, rdf.T(s, cx("fee"), rdf.NewLiteral("f")))
			}
		}
	}
	// Three seeds of bnd, two of them in each of the sets below, at and
	// above, whose vectors hold one key fewer than, as many as and one
	// more than semiKeysPerRow per seed.
	for i, g := range []string{"b0", "b1", "b1"} {
		ts = append(ts, rdf.T(cx(fmt.Sprintf("s%05d", 101+i)), cx("bnd"), cx(g)))
	}
	for i, set := range []string{"below", "at", "above"} {
		for j := 0; j < (semiKeysPerRow-1+i)*3; j++ {
			ts = append(ts, rdf.T(cx(fmt.Sprintf("s%05d", 102+j)), cx(set), cx("z")))
		}
	}
	for _, c := range []string{"c0", "c2", "c4", "gH"} {
		ts = append(ts, rdf.T(cx(c), cx("kind"), rdf.NewLiteral("k")))
	}
	for _, p := range []string{"grp", "club", "fee"} {
		ts = append(ts, rdf.T(cx(p), cx("label"), rdf.NewLiteral(p)))
	}
	return ts
}

// groupingCases are the DISTINCT and GROUP BY shapes the id tables serve,
// and the counts that skip them. ordered cases have a total ORDER BY, so
// their rows are compared in order; a LIMIT without ORDER BY keeps
// whichever rows come first, so such a case (window) is checked as
// distinct rows of the full answer. path is what EXPLAIN ANALYZE must
// show (checkGroupingPath): groupKeys (kind=group-keys where the store
// has key cursors, with a semi-bitset span per pattern besides the
// seed), keyed or table (each COUNT(DISTINCT)'s distinct=), or none of
// them for "none"; "" is not checked.
var groupingCases = []struct {
	name, src string
	ordered   bool
	window    bool
	path      string
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

	// Counts from list lengths: the group variable at each free position
	// under a constant at each position, every COUNT form, a window over
	// the counts, a constant with no triples there and one the dictionary
	// lacks.
	{name: "keys-pos", path: groupKeys, src: `SELECT ?g (COUNT(*) AS ?n) WHERE { ?s <http://c/grp> ?g } GROUP BY ?g`},
	{name: "keys-pso", path: groupKeys, src: `SELECT ?s (COUNT(?t) AS ?n) (COUNT(DISTINCT ?t) AS ?d) (COUNT(?s) AS ?m) WHERE { ?s <http://c/tag> ?t } GROUP BY ?s`},
	{name: "keys-spo", path: groupKeys, src: `SELECT ?p (COUNT(?o) AS ?n) WHERE { <http://c/s00000> ?p ?o } GROUP BY ?p`},
	{name: "keys-sop", path: groupKeys, src: `SELECT ?o (COUNT(DISTINCT ?p) AS ?n) (COUNT(*) AS ?m) WHERE { <http://c/s00000> ?p ?o } GROUP BY ?o`},
	{name: "keys-osp", path: groupKeys, src: `SELECT ?s (COUNT(*) AS ?n) WHERE { ?s ?p <http://c/gH> } GROUP BY ?s`},
	{name: "keys-ops", path: groupKeys, src: `SELECT ?p (COUNT(?s) AS ?n) (COUNT(?p) AS ?m) WHERE { ?s ?p <http://c/t0> } GROUP BY ?p`},
	{name: "keys-unprojected", path: groupKeys, src: `SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://c/val> ?v } GROUP BY ?v`},
	{name: "keys-order-limit", ordered: true, path: groupKeys, src: `SELECT ?g (COUNT(?s) AS ?n) WHERE { ?s <http://c/grp> ?g } GROUP BY ?g ORDER BY DESC(?n) ?g LIMIT 5`},
	{name: "keys-order-window", ordered: true, path: groupKeys, src: `SELECT ?s (COUNT(?t) AS ?n) WHERE { ?s <http://c/tag> ?t } GROUP BY ?s ORDER BY ?n DESC(?s) LIMIT 7 OFFSET 2`},
	{name: "keys-empty", path: groupKeys, src: `SELECT ?p (COUNT(*) AS ?n) WHERE { <http://c/gH> ?p ?o } GROUP BY ?p`},
	{name: "keys-unknown", path: "none", src: `SELECT ?g (COUNT(*) AS ?n) WHERE { ?s <http://c/none> ?g } GROUP BY ?g`},
	{name: "keys-not-filter", path: "none", src: `SELECT ?g (COUNT(?s) AS ?n) WHERE { ?s <http://c/grp> ?g . FILTER (?g != <http://c/gH>) } GROUP BY ?g`},
	{name: "keys-not-distinct-key", path: "table", src: `SELECT ?g (COUNT(DISTINCT ?g) AS ?n) WHERE { ?s <http://c/grp> ?g } GROUP BY ?g`},

	// COUNT(DISTINCT) pairs the join already makes unique, and the
	// queries that must keep the pair table: a variable the seed binds
	// that occurs once, UNION, OPTIONAL, a column outside the group keys
	// and the counted variable, and a count that is not DISTINCT. All but
	// one seed from the subjects with opt o1, so the flat table's scans
	// stay short.
	{name: "keyed-semijoin", path: "keyed", src: `SELECT ?g (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://c/opt> <http://c/o1> . ?s <http://c/grp> ?g . ?s <http://c/tag> ?t } GROUP BY ?g`},
	{name: "keyed-two-keys", path: "keyed", src: `SELECT ?v ?g (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://c/opt> <http://c/o1> . ?s <http://c/grp> ?g . ?s <http://c/val> ?v } GROUP BY ?g ?v`},
	{name: "table-seed-bound", path: "table", src: `SELECT (COUNT(DISTINCT ?g) AS ?n) WHERE { ?s <http://c/grp> ?g }`},
	{name: "table-union", path: "table", src: `SELECT ?g (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://c/opt> <http://c/o1> . ?s <http://c/grp> ?g . { ?s <http://c/tag> <http://c/t0> } UNION { ?s <http://c/tag> <http://c/t1> } } GROUP BY ?g`},
	{name: "table-optional", path: "table", src: `SELECT ?g (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://c/opt> <http://c/o1> . ?s <http://c/grp> ?g OPTIONAL { ?s <http://c/tag> ?t } } GROUP BY ?g`},
	{name: "table-column", path: "table", src: `SELECT ?g (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://c/opt> <http://c/o1> . ?s <http://c/grp> ?g . ?s <http://c/tag> ?t . FILTER (?t != <http://c/t2>) } GROUP BY ?g`},
	{name: "table-mixed", path: "table", src: `SELECT ?g (COUNT(?s) AS ?n) (COUNT(DISTINCT ?s) AS ?d) WHERE { ?s <http://c/opt> <http://c/o1> . ?s <http://c/grp> ?g . ?s <http://c/tag> ?t } GROUP BY ?g`},

	// The group walk: DISTINCT ?g with no, one and two semijoins, on ?x
	// and on ?g, dropping some values and whole groups; COUNT(DISTINCT ?x)
	// under semijoins; the group variable at each free position under a
	// constant at each position; LIMIT, OFFSET and ORDER BY on DISTINCT.
	{name: "walk-distinct", path: groupKeys, src: `SELECT DISTINCT ?c WHERE { ?s <http://c/club> ?c }`},
	{name: "walk-distinct-semi-x", path: groupKeys, src: `SELECT DISTINCT ?c WHERE { ?s <http://c/club> ?c . ?s <http://c/fee> ?f }`},
	{name: "walk-distinct-semi-g", path: groupKeys, src: `SELECT DISTINCT ?c WHERE { ?s <http://c/club> ?c . ?c <http://c/kind> ?k }`},
	{name: "walk-distinct-semi-xg", path: groupKeys, src: `SELECT DISTINCT ?c WHERE { ?c <http://c/kind> ?k . ?s <http://c/club> ?c . ?s <http://c/fee> ?f }`},
	{name: "walk-distinct-semi-xx", path: groupKeys, src: `SELECT DISTINCT ?c WHERE { ?s <http://c/club> ?c . ?s <http://c/fee> ?f . ?s <http://c/tag> ?t }`},
	{name: "walk-count-semi-x", path: groupKeys, src: `SELECT ?c (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://c/club> ?c . ?s <http://c/tag> ?t } GROUP BY ?c`},
	{name: "walk-count-semi-xg", path: groupKeys, src: `SELECT ?c (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://c/club> ?c . ?s <http://c/fee> ?f . ?c <http://c/kind> ?k } GROUP BY ?c`},
	{name: "walk-pso", path: groupKeys, src: `SELECT DISTINCT ?s WHERE { ?s <http://c/club> ?c . ?c <http://c/kind> ?k . ?s <http://c/tag> ?t }`},
	{name: "walk-spo", path: groupKeys, src: `SELECT DISTINCT ?p WHERE { <http://c/s00000> ?p ?o . ?o <http://c/kind> ?k }`},
	{name: "walk-sop", path: groupKeys, src: `SELECT ?o (COUNT(DISTINCT ?p) AS ?n) WHERE { <http://c/s00000> ?p ?o . ?p <http://c/label> ?z } GROUP BY ?o`},
	{name: "walk-ops", path: groupKeys, src: `SELECT ?p (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s ?p <http://c/c0> . ?s <http://c/fee> ?f } GROUP BY ?p`},
	{name: "walk-osp", path: groupKeys, src: `SELECT DISTINCT ?s WHERE { ?s ?p <http://c/c1> . ?s <http://c/fee> ?f }`},
	{name: "walk-order", ordered: true, path: groupKeys, src: `SELECT DISTINCT ?c WHERE { ?s <http://c/club> ?c . ?s <http://c/tag> ?t } ORDER BY DESC(?c)`},
	{name: "walk-order-window", ordered: true, path: groupKeys, src: `SELECT DISTINCT ?s WHERE { ?s <http://c/club> ?c . ?s <http://c/fee> ?f } ORDER BY DESC(?s) LIMIT 5 OFFSET 2`},
	{name: "walk-window", window: true, path: groupKeys, src: `SELECT DISTINCT ?s WHERE { ?s <http://c/club> ?c . ?s <http://c/tag> ?t } LIMIT 7 OFFSET 3`},

	// Semijoin vectors of 20 keys a seed (val), and of one key fewer
	// than semiKeysPerRow and exactly as many.
	{name: "walk-semi-20", path: groupKeys, src: `SELECT DISTINCT ?c WHERE { ?s <http://c/club> ?c . ?s <http://c/val> ?v }`},
	{name: "walk-semi-20-count", path: groupKeys, src: `SELECT ?c (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://c/club> ?c . ?s <http://c/val> ?v } GROUP BY ?c`},
	{name: "walk-bound-below", path: groupKeys, src: `SELECT DISTINCT ?g WHERE { ?s <http://c/bnd> ?g . ?s <http://c/below> ?z }`},
	{name: "walk-bound-below-count", path: groupKeys, src: `SELECT ?g (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://c/bnd> ?g . ?s <http://c/below> ?z } GROUP BY ?g`},
	{name: "walk-bound-at", path: groupKeys, src: `SELECT DISTINCT ?g WHERE { ?s <http://c/bnd> ?g . ?s <http://c/at> ?z }`},
	{name: "walk-bound-at-count", path: groupKeys, src: `SELECT ?g (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://c/bnd> ?g . ?s <http://c/at> ?z } GROUP BY ?g`},

	// What the group walk must leave to the row pipeline: a count of
	// rows over two patterns (a bag), a semijoin vector one key a seed
	// past semiKeysPerRow, FILTER, OPTIONAL, UNION and a DISTINCT of two
	// variables.
	{name: "walk-not-bag", path: "none", src: `SELECT ?c (COUNT(*) AS ?n) WHERE { ?s <http://c/club> ?c . ?s <http://c/tag> ?t } GROUP BY ?c`},
	{name: "walk-not-bound-above", path: "none", src: `SELECT DISTINCT ?g WHERE { ?s <http://c/bnd> ?g . ?s <http://c/above> ?z }`},
	{name: "walk-not-bound-above-count", path: "keyed", src: `SELECT ?g (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://c/bnd> ?g . ?s <http://c/above> ?z } GROUP BY ?g`},
	{name: "walk-not-filter", path: "none", src: `SELECT DISTINCT ?c WHERE { ?s <http://c/club> ?c . ?s <http://c/fee> ?f . FILTER (?c != <http://c/c0>) }`},
	{name: "walk-not-optional", path: "none", src: `SELECT DISTINCT ?c WHERE { ?s <http://c/club> ?c OPTIONAL { ?s <http://c/fee> ?f } }`},
	{name: "walk-not-union", path: "none", src: `SELECT DISTINCT ?c WHERE { ?s <http://c/club> ?c . { ?s <http://c/fee> ?f } UNION { ?s <http://c/tag> ?t } }`},
	{name: "walk-not-two-vars", path: "none", src: `SELECT DISTINCT ?s ?c WHERE { ?s <http://c/club> ?c . ?s <http://c/fee> ?f }`},
}

// groupKeys is the path of a case a store with key cursors answers by
// the group walk.
const groupKeys = "group-keys"

// TestGroupingDifferential runs DISTINCT and GROUP BY over skewed groups
// — one head 10⁴ times the median — with keys of one, two and three
// variables, unbound OPTIONAL keys, ORDER BY on an aggregate alias,
// DISTINCT under LIMIT/OFFSET, counts and DISTINCT answered a group at a
// time with and without semijoins, the shapes that must not be, and
// COUNT(DISTINCT) with and without its pair table, on the memory store,
// an overlay with nothing pending, one with half the data pending, the
// disk store and the flat baseline table, at 1 and 4 workers and pieces
// of 4 and 1024 rows. Every answer must be the naive nested-loop
// oracle's, and EXPLAIN ANALYZE must show the case's path. The paper's
// BQ1, written as SPARQL, must count what its hand plan counts.
func TestGroupingDifferential(t *testing.T) {
	ts := groupingTriples()
	backends, baseline := chunkBackends(t, ts)
	backends["triplestore"] = baseline
	clean, err := delta.Open(buildMemory(ts), delta.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { clean.Close() })
	backends["overlay-clean"] = clean
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
			chunks, lanes := []int{4, 1024}, []int{1, 4}
			if name == "triplestore" {
				// A linear scan per lookup: the cases with a path, once.
				if gc.path == "" {
					continue
				}
				chunks, lanes = []int{1024}, []int{1}
			}
			for _, chunk := range chunks {
				setChunkRows(t, chunk)
				for _, workers := range lanes {
					res, err := evalWorkers(g, q, workers)
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
			if gc.path != "" {
				checkGroupingPath(t, g, gc.src, gc.path, name)
			}
		}
	}
	t.Run("BQ1", testBQ1)
}

// checkGroupingPath runs src under EXPLAIN ANALYZE on g and checks it
// took path (see groupingCases): the group walk only on the stores with
// key cursors — the sealed memory store and an overlay with nothing
// pending — with one semi-bitset span per pattern besides its seed.
func checkGroupingPath(t *testing.T, g graph.Graph, src, path, backend string) {
	t.Helper()
	q, err := Parse("EXPLAIN ANALYZE " + src)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("query")
	if _, err := EvalOpts(context.Background(), g, q, EvalOptions{Trace: tr, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	counted, bitsets := false, 0
	for _, sp := range findSpans(tr, "step[") {
		switch k, _ := sp.Attr("kind"); k {
		case groupKeys:
			counted = true
		case "semi-bitset":
			bitsets++
		}
	}
	if counted && bitsets != len(q.Patterns)-1 {
		t.Errorf("%s on %s: %d semi-bitset spans for %d patterns\n%s", src, backend, bitsets, len(q.Patterns), tr)
	}
	var distinct []string
	for _, sp := range findSpans(tr, "aggregate[") {
		d, _ := sp.Attr("distinct")
		distinct = append(distinct, d.(string))
	}
	var ok bool
	switch path {
	case groupKeys:
		ok = counted == (backend == "memory" || backend == "overlay-clean")
	case "keyed", "table":
		ok = !counted && len(distinct) > 0 && !slices.ContainsFunc(distinct, func(d string) bool { return d != path })
	default:
		ok = !counted && !slices.Contains(distinct, "keyed")
	}
	if !ok {
		t.Errorf("%s on %s: group-keys %v, distinct %v; want path %q\n%s", src, backend, counted, distinct, path, tr)
	}
}

// testBQ1 runs the paper's BQ1 — the number of resources of each type —
// as SPARQL through a Planner on a small Barton set, and holds it to the
// hand plan's walk of the pos vector of Type.
func testBQ1(t *testing.T) {
	s := queries.Load(barton.Config{Records: 3000, Seed: 7}.GenerateAll())
	want := queries.BQ1Hexa(s.Hexa, queries.ResolveBarton(s.Dict))
	res, err := plannerExec(NewPlanner(graph.Memory(s.Hexa)), bq1)
	if err != nil {
		t.Fatal(err)
	}
	got := map[core.ID]int{}
	for i := 0; i < res.Len(); i++ {
		id, ok := s.Dict.Lookup(res.At(i, 0))
		n, err := strconv.Atoi(res.At(i, 1).Value)
		if !ok || err != nil {
			t.Fatalf("row %d: %v %v", i, res.At(i, 0), res.At(i, 1))
		}
		got[id] = n
	}
	if len(want) == 0 || !maps.Equal(got, want) {
		t.Fatalf("BQ1 counts %v, the hand plan's %v", got, want)
	}
	checkGroupingPath(t, graph.Memory(s.Hexa), bq1, groupKeys, "memory")
}

// bq1 is the paper's BQ1 as SPARQL.
var bq1 = fmt.Sprintf(`SELECT ?type (COUNT(?s) AS ?n) WHERE { ?s <%s> ?type } GROUP BY ?type`, barton.PropType.Value)

// BenchmarkBQ1 times BQ1 on the Barton set the paper's figures use
// (120,000 records): through a Planner, result cache bypassed, on one
// worker, and as the hand plan's walk.
func BenchmarkBQ1(b *testing.B) {
	s := queries.Load(barton.DefaultConfig().GenerateAll())
	ids := queries.ResolveBarton(s.Dict)
	pl := NewPlanner(graph.Memory(s.Hexa))
	q, err := Parse(bq1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pl.EvalOpts(context.Background(), q, EvalOptions{Workers: 1, NoResultCache: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hand", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			queries.BQ1Hexa(s.Hexa, ids)
		}
	})
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

// BenchmarkSemijoinCrossover times the group walk against the join
// pipeline on DISTINCT and COUNT(DISTINCT) under one semijoin whose
// vector has keys=k keys per seed row: 2,048 seed rows ⟨?s p ?g⟩ in
// groups of four, on subjects picked at random from k·2,048 with one q
// value each, so every seed passes the semijoin. walk lifts
// semiKeysPerRow past k, join sets it to zero; where join gets faster
// than walk is where semiKeysPerRow belongs.
func BenchmarkSemijoinCrossover(b *testing.B) {
	const seeds = 2048
	old := semiKeysPerRow
	b.Cleanup(func() { semiKeysPerRow = old })
	for _, k := range []int{8, 12, 16, 20, 24, 32, 48, 64} {
		// The seeds are k·2,048 subjects' picks of 2,048, so no seek
		// lands on a packed group's head more often than by chance.
		rng := rand.New(rand.NewSource(int64(k)))
		var ts []rdf.Triple
		for i, j := range rng.Perm(k * seeds) {
			s := cx(fmt.Sprintf("s%07d", i))
			ts = append(ts, rdf.T(s, cx("q"), cx(fmt.Sprintf("v%d", i%97))))
			if j < seeds {
				ts = append(ts, rdf.T(s, cx("p"), cx(fmt.Sprintf("g%05d", j/4))))
			}
		}
		pl := NewPlanner(buildMemory(ts))
		for _, shape := range []struct{ name, src string }{
			{"distinct", `SELECT DISTINCT ?g WHERE { ?s <http://c/p> ?g . ?s <http://c/q> ?x }`},
			{"count-distinct", `SELECT ?g (COUNT(DISTINCT ?s) AS ?n) WHERE { ?s <http://c/p> ?g . ?s <http://c/q> ?x } GROUP BY ?g`},
		} {
			q, err := Parse(shape.src)
			if err != nil {
				b.Fatal(err)
			}
			for _, path := range []struct {
				name  string
				bound int
			}{{"walk", 1 << 30}, {"join", 0}} {
				b.Run(fmt.Sprintf("%s/keys=%d/%s", shape.name, k, path.name), func(b *testing.B) {
					semiKeysPerRow = path.bound
					for n := 0; n < b.N; n++ {
						res, err := pl.EvalColumnar(context.Background(), q, EvalOptions{Workers: 1, NoResultCache: true})
						if err != nil || res.Len() != seeds/4 {
							b.Fatalf("%d rows, %v", res.Len(), err)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/seeds, "ns/seed")
				})
			}
		}
	}
}
