package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/triplestore"
)

// loadPair loads the same triples into a Hexastore and the flat
// baseline table over one shared dictionary, so the merge-join engine
// over the store's own sorted lists (memory implements SortedSource) can
// be checked against the same engine over lists graph.SortedOf sorts
// from Match output (baseline does not).
func loadPair(triples [][3]string) (mem, base graph.Graph) {
	stb := core.NewBuilder(nil)
	ts := triplestore.New(stb.Dictionary())
	for _, t := range triples {
		s := stb.Dictionary().Encode(rdf.NewIRI(t[0]))
		p := stb.Dictionary().Encode(rdf.NewIRI(t[1]))
		o := stb.Dictionary().Encode(rdf.NewIRI(t[2]))
		stb.Add(s, p, o)
		ts.Add(s, p, o)
	}
	st := stb.Build()
	return graph.Memory(st), graph.Baseline(ts)
}

func canonRows(t *testing.T, res *Result) []string {
	t.Helper()
	if res.IsAsk {
		return []string{fmt.Sprintf("ask:%v", res.Answer)}
	}
	vars := append([]string(nil), res.Vars...)
	sort.Strings(vars)
	out := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var sb strings.Builder
		for _, v := range vars {
			if term, ok := row[v]; ok {
				fmt.Fprintf(&sb, "%s=%s;", v, term)
			} else {
				fmt.Fprintf(&sb, "%s=-;", v)
			}
		}
		out = append(out, sb.String())
	}
	sort.Strings(out)
	return out
}

func assertSameResults(t *testing.T, src string, gs ...graph.Graph) {
	t.Helper()
	var want []string
	for i, g := range gs {
		res, err := Exec(g, src)
		if err != nil {
			t.Fatalf("backend %d: Exec(%q): %v", i, src, err)
		}
		got := canonRows(t, res)
		if i == 0 {
			want = got
			continue
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("backend %d differs on %q:\n got: %v\nwant: %v", i, src, got, want)
		}
	}
}

// TestBatchMergeFilterStep drives the engine through its merge-join
// filter step: the second pattern binds no new variable and its two
// constants select a sorted candidate list that is merge-intersected
// against the sorted seed column.
func TestBatchMergeFilterStep(t *testing.T) {
	var triples [][3]string
	for i := 0; i < 50; i++ {
		triples = append(triples, [3]string{fmt.Sprintf("s%02d", i), "type", "Person"})
		if i%3 == 0 {
			triples = append(triples, [3]string{fmt.Sprintf("s%02d", i), "likes", "Go"})
		}
		if i%7 == 0 {
			triples = append(triples, [3]string{fmt.Sprintf("s%02d", i), "likes", "SQL"})
		}
	}
	mem, base := loadPair(triples)
	for _, src := range []string{
		`SELECT ?x WHERE { ?x <type> <Person> . ?x <likes> <Go> }`,
		`SELECT ?x WHERE { ?x <likes> <Go> . ?x <likes> <SQL> }`,
		`SELECT ?x WHERE { ?x <type> <Person> . ?x <likes> <Go> . ?x <likes> <SQL> }`,
		`ASK { ?x <likes> <Go> . ?x <likes> <SQL> }`,
	} {
		assertSameResults(t, src, base, mem)
	}
	// Spot-check one cardinality: multiples of 21 in [0,50) have both.
	res, err := Exec(mem, `SELECT ?x WHERE { ?x <likes> <Go> . ?x <likes> <SQL> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // s00, s21, s42
		t.Fatalf("merge filter returned %d rows, want 3", len(res.Rows))
	}
}

// TestBatchCrossProduct checks disconnected patterns (no shared
// variable): the batch engine must produce the full cross product, like
// the tuple-at-a-time engine did.
func TestBatchCrossProduct(t *testing.T) {
	mem, base := loadPair([][3]string{
		{"a1", "p", "b1"},
		{"a2", "p", "b2"},
		{"c1", "q", "d1"},
		{"c2", "q", "d2"},
		{"c3", "q", "d3"},
	})
	src := `SELECT ?x ?y WHERE { ?x <p> ?o1 . ?y <q> ?o2 }`
	assertSameResults(t, src, base, mem)
	res, err := Exec(mem, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("cross product returned %d rows, want 6", len(res.Rows))
	}
}

// TestBatchEarlyTermination checks LIMIT and ASK short-circuit the
// join: the row cap truncates the final step's expansion (the
// cardinalities below witness it) and the pipeline stops between chunks
// (the ids-examined count does).
func TestBatchEarlyTermination(t *testing.T) {
	t.Run("ids-examined", testLimitIDsExamined)
	var triples [][3]string
	for i := 0; i < 500; i++ {
		triples = append(triples, [3]string{fmt.Sprintf("s%03d", i), "p", fmt.Sprintf("o%03d", i)})
	}
	mem, base := loadPair(triples)
	for _, g := range []graph.Graph{mem, base} {
		res, err := Exec(g, `SELECT ?s WHERE { ?s <p> ?o } LIMIT 4`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 4 {
			t.Fatalf("LIMIT 4 returned %d rows", len(res.Rows))
		}
		res, err = Exec(g, `SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 7`)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 7 {
			t.Fatalf("LIMIT 7 returned %d rows", len(res.Rows))
		}
		ask, err := Exec(g, `ASK { ?s <p> ?o }`)
		if err != nil {
			t.Fatal(err)
		}
		if !ask.Answer {
			t.Fatal("ASK should be true")
		}
	}
}

// TestBatchRandomDifferential runs structurally diverse queries over
// random graphs through both the merge-join engine and the fallback,
// and through the cost-based planner, requiring identical solutions.
func TestBatchRandomDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	queries := []string{
		`SELECT ?a ?b ?c WHERE { ?a <p0> ?b . ?b <p1> ?c }`,
		`SELECT ?a ?c WHERE { ?a <p0> ?b . ?b <p1> ?c . ?a <p2> ?c }`,
		`SELECT DISTINCT ?b WHERE { ?a <p0> ?b . ?a <p1> ?d }`,
		`SELECT ?a WHERE { ?a <p0> ?a }`,
		`SELECT ?a ?p WHERE { ?a ?p <n3> }`,
		`SELECT ?a ?b WHERE { ?a ?p ?b . ?b <p0> <n5> }`,
		`SELECT ?a (COUNT(?b) AS ?n) WHERE { ?a <p0> ?b } GROUP BY ?a ORDER BY ?a`,
		`SELECT ?a ?b WHERE { { ?a <p0> ?b } UNION { ?a <p1> ?b } } ORDER BY ?a ?b LIMIT 10`,
		`SELECT ?a ?c WHERE { ?a <p0> ?b . OPTIONAL { ?b <p1> ?c } }`,
		`SELECT ?a ?b WHERE { ?a <p0> ?b . FILTER (?a != ?b) }`,
		`ASK { ?a <p0> ?b . ?b <p1> ?a }`,
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o . ?s <p2> ?x }`,
	}
	for trial := 0; trial < 8; trial++ {
		var triples [][3]string
		nNodes := 12 + rng.Intn(20)
		nTriples := 30 + rng.Intn(120)
		for i := 0; i < nTriples; i++ {
			triples = append(triples, [3]string{
				fmt.Sprintf("n%d", rng.Intn(nNodes)),
				fmt.Sprintf("p%d", rng.Intn(4)),
				fmt.Sprintf("n%d", rng.Intn(nNodes)),
			})
		}
		mem, base := loadPair(triples)
		for _, src := range queries {
			assertSameResults(t, src, base, mem)
			// The planner's ordering must not change solutions either.
			q, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			pres, err := NewPlanner(mem).EvalOpts(context.Background(), q, EvalOptions{})
			if err != nil {
				t.Fatalf("planner: %v", err)
			}
			bres, err := Exec(base, src)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(canonRows(t, pres), "\n") != strings.Join(canonRows(t, bres), "\n") {
				t.Errorf("trial %d: planner differs on %q", trial, src)
			}
		}
	}
}

// testLimitIDsExamined: a LIMIT over a three-step join stops the
// pipeline between chunks, so the middle step examines ids for one chunk
// of the seed, not for all of it — a count, not a timing. (Whole-table
// execution ran the middle step over every seed row: 3·seed + limit ids
// where this asserts 2·seed + chunk + limit.)
func testLimitIDsExamined(t *testing.T) {
	const seed, limit = 5000, 4
	stb := core.NewBuilder(nil)
	enc := func(l string) core.ID { return stb.Dictionary().Encode(cx(l)) }
	for i := 0; i < seed; i++ {
		stb.Add(enc(fmt.Sprintf("a%04d", i)), enc("p"), enc(fmt.Sprintf("b%04d", i)))
		stb.Add(enc(fmt.Sprintf("b%04d", i)), enc("q"), enc(fmt.Sprintf("c%04d", i)))
		stb.Add(enc(fmt.Sprintf("c%04d", i)), enc("r"), enc(fmt.Sprintf("d%04d", i)))
	}
	st := stb.Build()
	mem := graph.Memory(st)
	ss, _ := graph.AsSortedSource(mem)
	q, err := Parse(fmt.Sprintf(`SELECT ?a ?d WHERE { ?a <http://c/p> ?b . ?b <http://c/q> ?c . ?c <http://c/r> ?d } LIMIT %d`, limit))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cg := &countGraph{Graph: mem, sorted: ss}
		res, err := evalWorkers(cg, q, workers)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != limit {
			t.Fatalf("workers=%d: %d rows, want %d", workers, res.Len(), limit)
		}
		// Whatever the budget, a capped branch runs one chunk at a time
		// and stops after the first.
		bound := int64(2*seed + chunkRows + limit)
		if got := cg.ids.Load(); got > bound {
			t.Errorf("workers=%d: examined %d ids, want at most %d (whole-table execution: %d)",
				workers, got, bound, 3*seed+limit)
		}
	}
}
