package sparql

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hexastore/internal/graph"
	"hexastore/internal/obs"
	"hexastore/internal/rdf"
)

// formCase is a query template of TestJoinFormsDifferential and the step
// form EXPLAIN ANALYZE must show for it on the sealed memory store:
// "semi-merge", "semi-probe", "semi" (any semijoin form, the group
// walk's semi-bitset among them), "folded" (an expansion
// intersects and a later step is folded into it) or "" (none of these
// applies). Backends without key cursors run a semi-merge as a
// semi-probe.
type formCase struct {
	name, src, form string
}

// formCases are written with P1..P3 for predicates and K, K2, K3 for
// node constants, filled in at random per data set. A semijoin case that
// names one form has a first pattern with two constants, so the
// most-bound-first order seeds with it and the form it shows is fixed;
// the negative cases are semijoin cases with one thing changed that
// makes a match count matter.
var formCases = []formCase{
	{"pso", `SELECT DISTINCT ?a WHERE { ?a <P1> <K> . ?a <P2> ?e }`, "semi-merge"},
	{"pos", `SELECT DISTINCT ?b WHERE { <K> <P1> ?b . ?e <P2> ?b }`, "semi-merge"},
	{"osp", `SELECT DISTINCT ?a WHERE { ?a <P1> <K> . ?a ?e <K2> }`, "semi-merge"},
	{"sop", `SELECT DISTINCT ?b WHERE { <K> <P1> ?b . <K2> ?e ?b }`, "semi-merge"},
	{"spo", `SELECT DISTINCT ?p WHERE { <K> ?p <K3> . <K2> ?p ?e }`, "semi-merge"},
	{"ops", `SELECT DISTINCT ?p WHERE { <K> ?p <K3> . ?e ?p <K2> }`, "semi-merge"},
	{"unsorted-column", `SELECT DISTINCT ?b WHERE { ?a <P1> <K> . ?a <P2> ?b . ?b <P3> ?e }`, "semi-probe"},
	{"either-side", `SELECT DISTINCT ?b WHERE { ?a <P1> ?b . ?b <P2> ?e }`, "semi"},
	{"ask", `ASK { ?a <P1> <K> . ?a <P2> ?e }`, "semi-merge"},
	{"count-distinct", `SELECT ?b (COUNT(DISTINCT ?a) AS ?n) WHERE { ?a <P1> <K> . ?a <P2> ?b . ?a <P3> ?e } GROUP BY ?b`, "semi-merge"},
	{"chain-tail", `SELECT DISTINCT ?a WHERE { ?a <P1> <K> . ?a <P2> ?e . ?e <P3> ?f . ?f <P1> ?g }`, "semi-probe"},
	{"triangle", `SELECT ?a ?b ?c WHERE { ?a <P1> ?b . ?b <P2> ?c . ?a <P3> ?c }`, "folded"},
	{"triangle-distinct", `SELECT DISTINCT ?a ?c WHERE { ?a <P1> ?b . ?b <P2> ?c . ?a <P3> ?c }`, "folded"},
	{"triangle-ask", `ASK { ?a <P1> ?b . ?b <P2> ?c . ?a <P3> ?c }`, "folded"},
	{"triangle-count-distinct", `SELECT ?a (COUNT(DISTINCT ?c) AS ?n) WHERE { ?a <P1> ?b . ?b <P2> ?c . ?a <P3> ?c } GROUP BY ?a`, "folded"},
	{"triangle-filter", `SELECT ?a ?b ?c WHERE { ?a <P1> ?b . ?b <P2> ?c . ?a <P3> ?c . FILTER (?c != <K>) }`, "folded"},
	{"closing-constant", `SELECT ?a ?b WHERE { ?a <P1> <K> . ?a <P2> ?b . ?b <P3> ?a }`, "folded"},
	{"square", `SELECT ?a ?d WHERE { ?a <P1> ?b . ?b <P2> ?c . ?c <P3> ?d . ?d <P1> ?a }`, "folded"},
	{"plain-select", `SELECT ?a WHERE { ?a <P1> <K> . ?a <P2> ?e }`, ""},
	{"count", `SELECT ?b (COUNT(?a) AS ?n) WHERE { ?a <P1> <K> . ?a <P2> ?b . ?a <P3> ?e } GROUP BY ?b`, ""},
	{"count-star", `SELECT ?b (COUNT(*) AS ?n) WHERE { ?a <P1> <K> . ?a <P2> ?b . ?a <P3> ?e } GROUP BY ?b`, ""},
	{"mixed-counts", `SELECT ?b (COUNT(DISTINCT ?a) AS ?n) (COUNT(?a) AS ?m) WHERE { ?a <P1> <K> . ?a <P2> ?b . ?a <P3> ?e } GROUP BY ?b`, ""},
	{"filter-reads", `SELECT DISTINCT ?a WHERE { ?a <P1> <K> . ?a <P2> ?e . FILTER (?e != <K2>) }`, ""},
	{"order-reads", `SELECT DISTINCT ?a WHERE { ?a <P1> <K> . ?a <P2> ?e } ORDER BY ?e`, ""},
	{"optional-reads", `SELECT DISTINCT ?a WHERE { ?a <P1> <K> . ?a <P2> ?e . OPTIONAL { ?e <P3> ?z } }`, ""},
	{"projected", `SELECT DISTINCT ?a ?e WHERE { ?a <P1> <K> . ?a <P2> ?e }`, ""},
}

// formsData is a dense random graph over a few nodes and four
// predicates, so triangles, repeated keys and shared predicates between
// two nodes all occur.
func formsData(rng *rand.Rand) []rdf.Triple {
	nodes, n := 10+rng.Intn(12), 150+rng.Intn(250)
	seen := map[rdf.Triple]bool{}
	var ts []rdf.Triple
	for len(ts) < n {
		// A skewed subject: low-numbered nodes carry most edges.
		s := min(rng.Intn(nodes), rng.Intn(nodes))
		t := rdf.T(cx(fmt.Sprintf("n%02d", s)), cx(fmt.Sprintf("p%d", rng.Intn(4))), cx(fmt.Sprintf("n%02d", rng.Intn(nodes))))
		if !seen[t] {
			seen[t] = true
			ts = append(ts, t)
		}
	}
	return ts
}

// instantiate fills a template's placeholders.
func instantiate(src string, rng *rand.Rand, ts []rdf.Triple) string {
	node := func() string { return ts[rng.Intn(len(ts))].Subject.Value }
	pred := func() string { return fmt.Sprintf("http://c/p%d", rng.Intn(4)) }
	return strings.NewReplacer(
		"<P1>", "<"+pred()+">", "<P2>", "<"+pred()+">", "<P3>", "<"+pred()+">",
		"<K>", "<"+node()+">", "<K2>", "<"+node()+">", "<K3>", "<"+node()+">",
	).Replace(src)
}

// TestJoinFormsDifferential generates BGPs with existential tails and
// cycles under DISTINCT, ASK and COUNT(DISTINCT) — and the negative
// cases that must still expand — and runs them on the memory store, the
// disk store, an overlay with half the data pending and the flat baseline
// table, at 1 and 4 workers and pieces of 4 and 1024 rows. Every answer
// must be the one a naive nested-loop evaluation over the triples gives,
// and EXPLAIN ANALYZE must show the form that ran.
func TestJoinFormsDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts := formsData(rng)
		backends, baseline := chunkBackends(t, ts)
		backends["baseline"] = baseline
		oracle := newNaiveStore(ts)
		for _, fc := range formCases {
			// Constants whose answer is not empty, where a few tries find
			// them: only then do the steps see rows and show their form.
			var src string
			var q *Query
			var want []string
			for try := 0; try < 50 && !answered(want); try++ {
				src = instantiate(fc.src, rng, ts)
				var err error
				if q, err = Parse(src); err != nil {
					t.Fatalf("%s: %v", fc.name, err)
				}
				want = oracle.answer(q)
			}
			for name, g := range backends {
				for _, chunk := range []int{4, 1024} {
					setChunkRows(t, chunk)
					for _, workers := range []int{1, 4} {
						res, err := evalWorkers(g, q, workers)
						if err != nil {
							t.Fatalf("seed %d %s on %s: %v", seed, fc.name, name, err)
						}
						if got := sortedCopy(renderResult(t, res)); !slices.Equal(got, want) {
							t.Fatalf("seed %d %s on %s (chunk %d, %d workers): %s\n got %v\nwant %v",
								seed, fc.name, name, chunk, workers, src, got, want)
						}
					}
				}
				if answered(want) {
					checkForm(t, g, src, fc, name)
				}
			}
		}
	}
}

// answered reports whether a rendered answer has a row (or says yes).
func answered(rows []string) bool {
	return len(rows) > 0 && rows[0] != "ask:false"
}

// checkForm runs src under EXPLAIN ANALYZE on g and checks the step kinds
// show the case's form.
func checkForm(t *testing.T, g graph.Graph, src string, fc formCase, backend string) {
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
	want := fc.form
	if want == "semi-merge" && backend != "memory" {
		want = "semi-probe"
	}
	var kinds []string
	intersects := false
	for _, sp := range findSpans(tr, "step[") {
		if k, ok := sp.Attr("kind"); ok {
			kinds = append(kinds, k.(string))
		}
		if _, ok := sp.Attr("intersect"); ok {
			intersects = true
		}
	}
	has := func(k string) bool { return slices.Contains(kinds, k) }
	var ok bool
	switch want {
	case "semi":
		ok = has("semi-merge") || has("semi-probe") || has("semi-bitset")
	case "folded":
		ok = has("folded") && intersects
	case "":
		ok = !has("semi-merge") && !has("semi-probe") && !has("semi-bitset") && !has("folded") && !intersects
	default:
		ok = has(want)
	}
	if !ok {
		t.Errorf("%s on %s: step kinds %v (intersect %v), want form %q\n%s", fc.name, backend, kinds, intersects, fc.form, tr)
	}
}

// naiveStore is the oracle of TestJoinFormsDifferential: the triples,
// and per position the triples with each value there, so the nested
// loops need not scan everything for each pattern.
type naiveStore struct {
	all   []rdf.Triple
	byPos [3]map[rdf.Term][]rdf.Triple
}

func newNaiveStore(ts []rdf.Triple) *naiveStore {
	ns := &naiveStore{all: ts}
	for j := range ns.byPos {
		ns.byPos[j] = map[rdf.Term][]rdf.Triple{}
	}
	for _, tr := range ts {
		for j, v := range [3]rdf.Term{tr.Subject, tr.Predicate, tr.Object} {
			ns.byPos[j][v] = append(ns.byPos[j][v], tr)
		}
	}
	return ns
}

// match calls emit with every extension of sol that matches pats, trying
// for each pattern every triple with the value of one of its bound
// positions.
func (ns *naiveStore) match(pats []Pattern, sol map[string]rdf.Term, emit func(map[string]rdf.Term)) {
	if len(pats) == 0 {
		emit(sol)
		return
	}
	terms := [3]Term{pats[0].S, pats[0].P, pats[0].O}
	cands := ns.all
	for j, term := range terms {
		val, bound := term.RDF, term.Kind == Const
		if !bound {
			val, bound = sol[term.Name]
		}
		if bound && len(ns.byPos[j][val]) < len(cands) {
			cands = ns.byPos[j][val]
		}
	}
	for _, tr := range cands {
		next := maps.Clone(sol)
		ok := true
		for j, val := range [3]rdf.Term{tr.Subject, tr.Predicate, tr.Object} {
			term := terms[j]
			if term.Kind == Const {
				ok = ok && term.RDF == val
			} else if cur, bound := next[term.Name]; bound {
				ok = ok && cur == val
			} else {
				next[term.Name] = val
			}
		}
		if ok {
			ns.match(pats[1:], next, emit)
		}
	}
}

// answer evaluates q — required patterns, UNION, OPTIONAL groups, FILTER
// (= and !=), projection, DISTINCT, ASK and COUNT aggregates with GROUP
// BY — by nested loops, and renders it as renderResult does, sorted.
// ORDER BY, OFFSET and LIMIT are ignored (see ordered).
func (ns *naiveStore) answer(q *Query) []string {
	if q.Ask {
		return []string{fmt.Sprintf("ask:%v", len(ns.solutions(q)) > 0)}
	}
	vars, rows := ns.rows(q)
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = renderNaive(vars, row)
	}
	return sortedCopy(out)
}

// solutions returns q's solutions, branch by union branch.
func (ns *naiveStore) solutions(q *Query) []map[string]rdf.Term {
	var sols []map[string]rdf.Term
	for _, branch := range expandUnions(q) {
		sols = append(sols, ns.branchSolutions(q, branch)...)
	}
	return sols
}

// branchSolutions returns the solutions of one union branch: the
// required patterns matched, each OPTIONAL group left-joined in turn —
// a variable a solution leaves unbound is compatible with any value, so
// a group matches it as if free — and then the FILTERs, which an unbound
// operand fails.
func (ns *naiveStore) branchSolutions(q *Query, branch []Pattern) []map[string]rdf.Term {
	var sols []map[string]rdf.Term
	ns.match(branch, map[string]rdf.Term{}, func(sol map[string]rdf.Term) { sols = append(sols, sol) })
	for _, group := range q.Optionals {
		var next []map[string]rdf.Term
		for _, sol := range sols {
			n := len(next)
			ns.match(group, sol, func(ext map[string]rdf.Term) { next = append(next, ext) })
			if len(next) == n {
				next = append(next, sol)
			}
		}
		sols = next
	}
	return slices.DeleteFunc(sols, func(sol map[string]rdf.Term) bool {
		for _, f := range q.Filters {
			l, lok := f.Left.RDF, true
			if f.Left.Kind == Var {
				l, lok = sol[f.Left.Name]
			}
			r, rok := f.Right.RDF, true
			if f.Right.Kind == Var {
				r, rok = sol[f.Right.Name]
			}
			if !lok || !rok || (l == r) != (f.Op == "=") {
				return true
			}
		}
		return false
	})
}

// renderNaive renders one row as renderResult does.
func renderNaive(vars []string, sol map[string]rdf.Term) string {
	parts := make([]string, len(vars))
	for i, v := range vars {
		parts[i] = fmt.Sprintf("%s=%d:%q", v, sol[v].Kind, sol[v].Value)
	}
	return strings.Join(parts, " ")
}

// rows returns the output variables of a SELECT query and its rows, in
// no particular order: one per group for aggregates, one per distinct
// projection under DISTINCT, one per solution otherwise.
func (ns *naiveStore) rows(q *Query) (vars []string, rows []map[string]rdf.Term) {
	sols := ns.solutions(q)
	if len(q.Aggregates) > 0 {
		groups := map[string][]map[string]rdf.Term{}
		for _, sol := range sols {
			key := renderNaive(q.GroupBy, sol)
			groups[key] = append(groups[key], sol)
		}
		vars = slices.Clone(q.Vars)
		for _, a := range q.Aggregates {
			vars = append(vars, a.As)
		}
		for _, members := range groups {
			row := maps.Clone(members[0])
			for _, a := range q.Aggregates {
				n := len(members)
				if a.Var != "" {
					seen := map[rdf.Term]bool{}
					n = 0
					for _, m := range members {
						if v, ok := m[a.Var]; ok && (!a.Distinct || !seen[v]) {
							seen[v] = true
							n++
						}
					}
				}
				row[a.As] = rdf.NewLiteral(strconv.Itoa(n))
			}
			rows = append(rows, row)
		}
		return vars, rows
	}
	seen := map[string]bool{}
	for _, sol := range sols {
		key := renderNaive(q.Vars, sol)
		if q.Distinct && seen[key] {
			continue
		}
		seen[key] = true
		rows = append(rows, sol)
	}
	return q.Vars, rows
}

// unboundUnionCases are UNIONs whose branches bind different variables,
// so a solution of one branch leaves the other's variable unbound; the
// query projects, orders by or DISTINCTs that variable.
var unboundUnionCases = []string{
	`SELECT ?a ?b ?c WHERE { { ?a <P1> ?b } UNION { ?a <P2> ?c } }`,
	`SELECT ?a ?c WHERE { { ?a <P1> ?b } UNION { ?a <P2> ?c } } ORDER BY ?c`,
	`SELECT DISTINCT ?c WHERE { { ?a <P1> ?b } UNION { ?a <P2> ?c } }`,
	`SELECT DISTINCT ?b ?c WHERE { ?a <P3> <K> . { ?a <P1> ?b } UNION { ?a <P2> ?c } } ORDER BY ?b ?c`,
	`SELECT ?a ?c ?z WHERE { { ?a <P1> ?b } UNION { ?a <P2> ?c } . OPTIONAL { ?a <P3> ?z } }`,
}

// TestUnionUnboundDifferential holds the engine to the naive oracle on
// UNIONs that leave a projected variable unbound, on every backend at 1
// and 4 workers.
func TestUnionUnboundDifferential(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts := formsData(rng)
		backends, baseline := chunkBackends(t, ts)
		backends["baseline"] = baseline
		oracle := newNaiveStore(ts)
		for _, tmpl := range unboundUnionCases {
			src := instantiate(tmpl, rng, ts)
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			want := oracle.answer(q)
			for name, g := range backends {
				for _, workers := range []int{1, 4} {
					res, err := evalWorkers(g, q, workers)
					if err != nil {
						t.Fatalf("seed %d on %s: %s: %v", seed, name, src, err)
					}
					if got := sortedCopy(renderResult(t, res)); !slices.Equal(got, want) {
						t.Fatalf("seed %d on %s (%d workers): %s\n got %v\nwant %v", seed, name, workers, src, got, want)
					}
				}
			}
		}
	}
}

// optionalCases are left joins the oracle decides: independent, chained
// and cross-chained groups (a group that reads variables only earlier
// groups bind), a group of two patterns that can match half-way, one
// with an IRI the dictionary lacks, one that shares no variable, FILTERs
// on a variable a group may leave unbound, and DISTINCT, GROUP BY and
// ORDER BY … LIMIT over such a variable. ordered cases have a total
// ORDER BY, so their rows are compared in order.
var optionalCases = []struct {
	name, src string
	ordered   bool
}{
	{name: "independent", src: `SELECT ?a ?b ?x ?y WHERE { ?a <P1> ?b . OPTIONAL { ?a <P2> ?x } OPTIONAL { ?b <P3> ?y } }`},
	{name: "chained", src: `SELECT ?a ?x ?y WHERE { ?a <P1> <K> . OPTIONAL { ?a <P2> ?x } OPTIONAL { ?x <P3> ?y } }`},
	{name: "cross-chained", src: `SELECT ?a ?b ?x ?y ?z WHERE { ?a <P1> ?b . OPTIONAL { ?a <P2> ?x } OPTIONAL { ?b <P3> ?y } OPTIONAL { ?x ?z ?y } }`},
	{name: "two-patterns", src: `SELECT ?a ?x ?y WHERE { ?a <P1> ?b . OPTIONAL { ?a <P2> ?x . ?x <P3> ?y } }`},
	{name: "unknown-iri", src: `SELECT ?a ?x ?y WHERE { ?a <P1> <K> . OPTIONAL { ?a <http://c/none> ?x } OPTIONAL { ?a <P2> ?y } }`},
	{name: "unknown-chained", src: `SELECT ?a ?x ?y WHERE { ?a <P1> <K> . OPTIONAL { ?a <http://c/none> ?x } OPTIONAL { ?x <P2> ?y } }`},
	{name: "disjoint", src: `SELECT ?a ?x WHERE { ?a <P1> <K> . OPTIONAL { ?x <P2> <K2> } }`},
	{name: "filter-ne", src: `SELECT ?a ?x WHERE { ?a <P1> ?b . OPTIONAL { ?a <P2> ?x } FILTER (?x != <K>) }`},
	{name: "filter-eq", src: `SELECT ?a ?b ?x WHERE { ?a <P1> ?b . OPTIONAL { ?b <P2> ?x } FILTER (?x = ?a) }`},
	{name: "distinct", src: `SELECT DISTINCT ?b ?x WHERE { ?a <P1> ?b . OPTIONAL { ?a <P2> ?x } }`},
	{name: "group-count", src: `SELECT ?x (COUNT(?a) AS ?n) (COUNT(?y) AS ?m) WHERE { ?a <P1> ?b . OPTIONAL { ?b <P2> ?x . ?x <P3> ?y } } GROUP BY ?x`},
	{name: "order-limit", ordered: true, src: `SELECT ?a ?b ?x WHERE { ?a <P1> ?b . OPTIONAL { ?b <P2> ?x } } ORDER BY ?x DESC(?a) ?b LIMIT 7`},
	{name: "ask", src: `ASK { ?a <P1> <K> . OPTIONAL { ?a <P2> ?x } FILTER (?x = <K2>) }`},
}

// TestOptionalDifferential holds OPTIONAL to the left join of Pérez,
// Arenas & Gutierrez, as the naive oracle computes it, on every backend
// at 1 and 4 workers and pieces of 4 and 1024 rows.
func TestOptionalDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ts := formsData(rng)
		backends, baseline := chunkBackends(t, ts)
		backends["baseline"] = baseline
		oracle := newNaiveStore(ts)
		for _, oc := range optionalCases {
			src := instantiate(oc.src, rng, ts)
			q, err := Parse(src)
			if err != nil {
				t.Fatalf("%s: %v", oc.name, err)
			}
			want := oracle.answer(q)
			if oc.ordered {
				want = oracle.ordered(q)
			}
			for name, g := range backends {
				for _, chunk := range []int{4, 1024} {
					setChunkRows(t, chunk)
					for _, workers := range []int{1, 4} {
						res, err := evalWorkers(g, q, workers)
						if err != nil {
							t.Fatalf("seed %d %s on %s: %v", seed, oc.name, name, err)
						}
						got := renderResult(t, res)
						if !oc.ordered {
							got = sortedCopy(got)
						}
						if !slices.Equal(got, want) {
							t.Fatalf("seed %d %s on %s (chunk %d, %d workers): %s\n got %v\nwant %v",
								seed, oc.name, name, chunk, workers, src, got, want)
						}
					}
				}
			}
		}
	}
}
