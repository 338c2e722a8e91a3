package sparql

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/lubm"
	"hexastore/internal/obs"
	"hexastore/internal/rdf"
)

func TestParseExplainPrefix(t *testing.T) {
	cases := []struct {
		src  string
		want ExplainMode
	}{
		{`SELECT ?x WHERE { ?x <p> ?y }`, ExplainNone},
		{`EXPLAIN SELECT ?x WHERE { ?x <p> ?y }`, ExplainPlan},
		{`EXPLAIN ANALYZE SELECT ?x WHERE { ?x <p> ?y }`, ExplainExec},
		{`explain analyze select ?x where { ?x <p> ?y }`, ExplainExec},
		{`EXPLAIN ASK { <a> <p> <b> }`, ExplainPlan},
		{`EXPLAIN ANALYZE PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?y }`, ExplainExec},
	}
	for _, c := range cases {
		q, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		if q.Explain != c.want {
			t.Errorf("Parse(%q).Explain = %d, want %d", c.src, q.Explain, c.want)
		}
	}
}

// findSpans walks the tree depth-first collecting spans whose name has
// the given prefix.
func findSpans(sp *obs.Span, prefix string) []*obs.Span {
	var out []*obs.Span
	if strings.HasPrefix(sp.Name(), prefix) {
		out = append(out, sp)
	}
	for _, c := range sp.Children() {
		out = append(out, findSpans(c, prefix)...)
	}
	return out
}

func attrInt(t *testing.T, sp *obs.Span, key string) int64 {
	t.Helper()
	v, ok := sp.Attr(key)
	if !ok {
		t.Fatalf("span %q: missing attr %q", sp.Name(), key)
	}
	n, ok := v.(int64)
	if !ok {
		t.Fatalf("span %q: attr %q = %T, want int64", sp.Name(), key, v)
	}
	return n
}

// checkAnalyzeTrace asserts the executed-trace shape the EXPLAIN
// ANALYZE contract promises: a plan span naming the pattern order, one
// step span per pattern carrying estimated and actual cardinalities and
// the chunks that reached it, and an emit span with the rows, chunks and
// dictionary decodes of emission.
func checkAnalyzeTrace(t *testing.T, tr *obs.Trace, patterns, rows int) {
	t.Helper()
	if plans := findSpans(tr, "plan"); len(plans) != 1 {
		t.Fatalf("plan spans = %d, want 1", len(plans))
	} else {
		if _, ok := plans[0].Attr("order"); !ok {
			t.Error("plan span missing order attr")
		}
	}
	steps := findSpans(tr, "step[")
	if len(steps) != patterns {
		t.Fatalf("step spans = %d, want %d", len(steps), patterns)
	}
	for _, sp := range steps {
		attrInt(t, sp, "estRows") // -1 on an OPTIONAL group's steps, which are not priced
		attrInt(t, sp, "rowsIn")
		attrInt(t, sp, "rowsOut")
		if got := attrInt(t, sp, "chunks"); got < 1 {
			t.Errorf("%s: chunks = %d, want at least 1", sp.Name(), got)
		}
	}
	emits := findSpans(tr, "emit")
	if len(emits) != 1 {
		t.Fatalf("emit spans = %d, want 1", len(emits))
	}
	if got := attrInt(t, emits[0], "emitted"); got != int64(rows) {
		t.Errorf("emit emitted = %d, want %d", got, rows)
	}
	if got := attrInt(t, emits[0], "chunks"); got < 1 {
		t.Errorf("emit chunks = %d, want at least 1", got)
	}
	attrInt(t, emits[0], "termsDecoded") // 0 for a query that emits no cell
	if snaps := findSpans(tr, "snapshot"); len(snaps) != 1 {
		t.Errorf("snapshot spans = %d, want 1", len(snaps))
	}
}

const explainJoin = `EXPLAIN ANALYZE SELECT ?prof ?course WHERE {
	?prof <type> <FullProfessor> .
	?prof <teacherOf> ?course }`

func TestExplainAnalyzeMemory(t *testing.T) {
	g := academicStore(t)
	q, err := Parse(explainJoin)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("query")
	res, err := EvalOpts(context.Background(), g, q, EvalOptions{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (ID1 teaches AI)", len(res.Rows))
	}
	checkAnalyzeTrace(t, tr, 2, 1)

	// The first step must have seen actual rows flow through.
	steps := findSpans(tr, "step[")
	if got := attrInt(t, steps[len(steps)-1], "rowsOut"); got != 1 {
		t.Errorf("final step rowsOut = %d, want 1", got)
	}
}

// TestExplainAnalyzeOptional: each OPTIONAL group is a step of its own
// in EXPLAIN ANALYZE, of kind left-outer, with the rows that entered it,
// the rows it passed on and how many of those no match reached (padded),
// beside the spans of its patterns' steps. Three students have a
// bachelor's degree; one has a master's, two have an advisor who
// teaches. EXPLAIN alone shows the group without running it.
func TestExplainAnalyzeOptional(t *testing.T) {
	g := academicStore(t)
	const src = `SELECT ?s ?m ?c WHERE { ?s <bachelorsFrom> ?b .
		OPTIONAL { ?s <mastersFrom> ?m }
		OPTIONAL { ?s <advisor> ?a . ?a <teacherOf> ?c } }`
	q, err := Parse("EXPLAIN ANALYZE " + src)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("query")
	res, err := EvalOpts(context.Background(), g, q, EvalOptions{Trace: tr, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	checkAnalyzeTrace(t, tr, 6, 3)
	groups := findSpans(tr, "step[OPTIONAL {")
	if len(groups) != 2 {
		t.Fatalf("group step spans = %d, want 2\n%s", len(groups), tr)
	}
	for i, padded := range []int64{2, 1} {
		sp := groups[i]
		if k, _ := sp.Attr("kind"); k != "left-outer" {
			t.Errorf("%s: kind = %v, want left-outer", sp.Name(), k)
		}
		if in, out := attrInt(t, sp, "rowsIn"), attrInt(t, sp, "rowsOut"); in != 3 || out != 3 {
			t.Errorf("%s: rowsIn/rowsOut = %d/%d, want 3/3", sp.Name(), in, out)
		}
		if got := attrInt(t, sp, "padded"); got != padded {
			t.Errorf("%s: padded = %d, want %d", sp.Name(), got, padded)
		}
	}
	if got := attrInt(t, findSpans(tr, "step[?a <teacherOf> ?c .]")[0], "rowsOut"); got != 2 {
		t.Errorf("the second group's last step: rowsOut = %d, want 2", got)
	}

	if q, err = Parse("EXPLAIN " + src); err != nil {
		t.Fatal(err)
	}
	tr = obs.NewTrace("query")
	if _, err := EvalOpts(context.Background(), g, q, EvalOptions{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	groups = findSpans(tr, "step[OPTIONAL {")
	if len(groups) != 2 || len(findSpans(tr, "step[")) != 6 {
		t.Fatalf("plan-only: %d group and %d step spans, want 2 and 6\n%s", len(groups), len(findSpans(tr, "step[")), tr)
	}
	if k, _ := groups[0].Attr("kind"); k != "left-outer" {
		t.Errorf("plan-only %s: kind = %v, want left-outer", groups[0].Name(), k)
	}
}

func TestExplainPlanOnlySkipsExecution(t *testing.T) {
	g := academicStore(t)
	q, err := Parse(`EXPLAIN SELECT ?prof ?course WHERE {
		?prof <type> <FullProfessor> .
		?prof <teacherOf> ?course }`)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("query")
	res, err := EvalOpts(context.Background(), g, q, EvalOptions{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if len(res.Rows) != 0 {
		t.Fatalf("plan-only returned %d rows, want 0", len(res.Rows))
	}
	steps := findSpans(tr, "step[")
	if len(steps) != 2 {
		t.Fatalf("plan step spans = %d, want 2", len(steps))
	}
	for _, sp := range steps {
		attrInt(t, sp, "estRows")
		if _, ok := sp.Attr("rowsOut"); ok {
			t.Errorf("plan-only step %q has rowsOut — it executed", sp.Name())
		}
	}
}

func TestExplainAnalyzeDisk(t *testing.T) {
	st, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://ex/" + l) }
	for _, tr := range []rdf.Triple{
		rdf.T(ex("alice"), ex("knows"), ex("bob")),
		rdf.T(ex("bob"), ex("knows"), ex("carol")),
		rdf.T(ex("carol"), ex("knows"), ex("dave")),
	} {
		if _, err := st.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
	}
	q, err := Parse(`EXPLAIN ANALYZE PREFIX ex: <http://ex/>
		SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }`)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("query")
	res, err := EvalOpts(context.Background(), graph.Disk(st), q, EvalOptions{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	checkAnalyzeTrace(t, tr, 2, 2)
}

// TestTraceDifferential asserts tracing changes no results: the same
// query over the same store, traced and untraced, row for row.
func TestTraceDifferential(t *testing.T) {
	g := academicStore(t)
	queries := []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
		`SELECT ?prof ?course WHERE { ?prof <type> <FullProfessor> . ?prof <teacherOf> ?course }`,
		`SELECT ?s WHERE { ?s <advisor> ?a . ?a <teacherOf> ?c }`,
		`ASK { <ID1> <teacherOf> <AI> }`,
	}
	for _, src := range queries {
		q1, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := EvalOpts(context.Background(), g, q1, EvalOptions{})
		if err != nil {
			t.Fatalf("%s: untraced: %v", src, err)
		}
		q2, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := EvalOpts(context.Background(), g, q2, EvalOptions{Trace: obs.NewTrace("query")})
		if err != nil {
			t.Fatalf("%s: traced: %v", src, err)
		}
		plain.SortRows()
		traced.SortRows()
		if plain.IsAsk != traced.IsAsk || plain.Answer != traced.Answer || len(plain.Rows) != len(traced.Rows) {
			t.Fatalf("%s: traced result differs (%d vs %d rows)", src, len(plain.Rows), len(traced.Rows))
		}
		for i := range plain.Rows {
			for v, term := range plain.Rows[i] {
				if traced.Rows[i][v] != term {
					t.Fatalf("%s: row %d var %s: %v vs %v", src, i, v, term, traced.Rows[i][v])
				}
			}
		}
	}
}

// TestExplainAnalyzeChunks pins what the trace and /metrics say about
// the pipeline: a seed of five rows in chunks of two is three chunks, the
// step after the seed sees each of them, emission decodes nothing — the
// result keeps ids — and reading the result decodes one term per cell,
// through a serializer's gather or At, and the process-wide counters
// move by the same amounts — tracing on or off.
func TestExplainAnalyzeChunks(t *testing.T) {
	setChunkRows(t, 2)
	stb := core.NewBuilder(nil)
	for i := 0; i < 5; i++ {
		s := iri(fmt.Sprintf("s%d", i))
		stb.AddTriple(rdf.T(s, iri("type"), iri("T")))
		stb.AddTriple(rdf.T(s, iri("val"), iri(fmt.Sprintf("v%d", i))))
	}
	st := stb.Build()
	g := graph.Memory(st)
	q, err := Parse(`SELECT ?s ?v WHERE { ?s <type> <T> . ?s <val> ?v }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{true, false} {
		chunks0, decoded0 := chunksTotal.Value(), termsDecodedTotal.Value()
		opt := EvalOptions{Workers: 1}
		if traced {
			opt.Trace = obs.NewTrace("query")
		}
		res, err := evalWith(context.Background(), g, q, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 5 {
			t.Fatalf("rows = %d, want 5", res.Len())
		}
		if got := chunksTotal.Value() - chunks0; got != 3 {
			t.Errorf("traced=%v: hex_sparql_chunks_total moved by %d, want 3", traced, got)
		}
		if got := termsDecodedTotal.Value() - decoded0; got != 0 {
			t.Errorf("traced=%v: evaluation moved hex_sparql_terms_decoded_total by %d, want 0", traced, got)
		}
		if cells := res.AppendCells(nil, 0, res.Len()); len(cells) != 10 || slices.ContainsFunc(cells, func(c Cell) bool { return !c.Bound }) {
			t.Errorf("traced=%v: AppendCells gathered %v, want 10 bound cells", traced, cells)
		}
		if got := termsDecodedTotal.Value() - decoded0; got != 10 {
			t.Errorf("traced=%v: the gather moved hex_sparql_terms_decoded_total by %d, want 10", traced, got)
		}
		for row := 0; row < res.Len(); row++ {
			for c := range res.Vars {
				res.At(row, c)
			}
		}
		if got := termsDecodedTotal.Value() - decoded0; got != 10 {
			t.Errorf("traced=%v: At moved hex_sparql_terms_decoded_total by %d, want 0 (At is not counted)", traced, got-10)
		}
		if !traced {
			continue
		}
		opt.Trace.Finish()
		checkAnalyzeTrace(t, opt.Trace, 2, 5)
		steps := findSpans(opt.Trace, "step[")
		if got := attrInt(t, steps[0], "chunks"); got != 1 {
			t.Errorf("seed step chunks = %d, want 1", got)
		}
		if got := attrInt(t, steps[1], "chunks"); got != 3 {
			t.Errorf("second step chunks = %d, want 3", got)
		}
		if in, out := attrInt(t, steps[1], "rowsIn"), attrInt(t, steps[1], "rowsOut"); in != 5 || out != 5 {
			t.Errorf("second step rowsIn/rowsOut = %d/%d, want 5/5 summed over chunks", in, out)
		}
		emit := findSpans(opt.Trace, "emit")[0]
		if got := attrInt(t, emit, "chunks"); got != 3 {
			t.Errorf("emit chunks = %d, want 3", got)
		}
		if got := attrInt(t, emit, "termsDecoded"); got != 0 {
			t.Errorf("emit termsDecoded = %d, want 0", got)
		}
	}
}

// scanShapes are the analytic shapes of the end-to-end scan workload:
// two joins, a triangle, a semijoin under DISTINCT, a one-pattern GROUP
// BY count, a COUNT(DISTINCT) over a semijoin, a sorted window and a
// three-way join with a FILTER.
var scanShapes = []string{
	`SELECT ?student ?course WHERE { ?student <lubm:advisor> ?prof . ?prof <lubm:teacherOf> ?course }`,
	`SELECT ?student ?course WHERE { ?student <lubm:advisor> ?prof . ?prof <lubm:teacherOf> ?course . ?student <lubm:takesCourse> ?course }`,
	`SELECT DISTINCT ?prof WHERE { ?student <lubm:advisor> ?prof . ?student <lubm:takesCourse> ?course }`,
	`SELECT ?prof (COUNT(?student) AS ?n) WHERE { ?student <lubm:advisor> ?prof } GROUP BY ?prof`,
	`SELECT ?prof (COUNT(DISTINCT ?student) AS ?n) WHERE { ?student <lubm:advisor> ?prof . ?student <lubm:takesCourse> ?course } GROUP BY ?prof`,
	`SELECT ?student ?prof WHERE { ?student <lubm:advisor> ?prof } ORDER BY ?student LIMIT 100`,
	`SELECT ?student ?course WHERE { ?student <lubm:teachingAssistantOf> ?course . ?student <lubm:advisor> ?prof . ?prof <lubm:teacherOf> ?course2 . FILTER (?course != ?course2) }`,
}

// TestExplainShowsIndexPaths runs the scan shapes under EXPLAIN ANALYZE
// and checks each names the index path it took: the joins' per-row lists
// come from key cursors (access=cursor); the GROUP BY count, the DISTINCT
// and the COUNT(DISTINCT) walk the advisor vector a group at a time
// (kind=group-keys, with the keys it walked and, for the count, the rows
// they stand for), the last two testing takesCourse's semijoin against a
// bitset of its keys (kind=semi-bitset). The disk store has no key
// cursors: it runs the COUNT(DISTINCT) as a join that skips its pair
// table (distinct=keyed).
func TestExplainShowsIndexPaths(t *testing.T) {
	ts := lubm.Config{Universities: 1, Seed: 3, DeptsPerUniv: 2, UndergradPerDept: 60, GradPerDept: 20, CoursesPerDept: 12}.GenerateAll()
	ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	advisees := map[rdf.Term]int{}
	students := map[rdf.Term]bool{}
	for _, tr := range ts {
		if _, err := ds.AddTriple(tr); err != nil {
			t.Fatal(err)
		}
		switch tr.Predicate {
		case lubm.PropAdvisor:
			advisees[tr.Object]++
		case lubm.PropTakesCourse:
			students[tr.Subject] = true
		}
	}
	for _, backend := range []struct {
		name string
		g    graph.Graph
		keys bool
	}{{"memory", buildMemory(ts), true}, {"disk", graph.Disk(ds), false}} {
		explain := func(shape int) *obs.Trace {
			t.Helper()
			q, err := Parse("EXPLAIN ANALYZE " + scanShapes[shape])
			if err != nil {
				t.Fatal(err)
			}
			tr := obs.NewTrace("query")
			if _, err := EvalOpts(context.Background(), backend.g, q, EvalOptions{Trace: tr, Workers: 1}); err != nil {
				t.Fatal(err)
			}
			tr.Finish()
			return tr
		}
		kinds := func(tr *obs.Trace, kind string) []*obs.Span {
			var out []*obs.Span
			for _, sp := range findSpans(tr, "step[") {
				if k, _ := sp.Attr("kind"); k == kind {
					out = append(out, sp)
				}
			}
			return out
		}
		for _, shape := range []int{0, 1, 6} {
			tr := explain(shape)
			walked := 0
			for _, sp := range findSpans(tr, "step[") {
				if a, _ := sp.Attr("access"); a == "cursor" {
					walked++
				}
			}
			if (walked > 0) != backend.keys || len(kinds(tr, "group-keys")) > 0 {
				t.Errorf("shape %d on %s: %d steps walk a key cursor\n%s", shape, backend.name, walked, tr)
			}
		}

		for _, shape := range []int{2, 3, 4, 5} {
			tr := explain(shape)
			groups, bitsets := kinds(tr, "group-keys"), kinds(tr, "semi-bitset")
			wantGroups, wantBitsets := 0, 0
			if backend.keys && shape != 5 {
				wantGroups = 1
				if shape != 3 {
					wantBitsets = 1
				}
			}
			if len(groups) != wantGroups || len(bitsets) != wantBitsets {
				t.Errorf("shape %d on %s: %d group-keys and %d semi-bitset steps, want %d and %d\n%s", shape, backend.name, len(groups), len(bitsets), wantGroups, wantBitsets, tr)
				continue
			}
			if wantGroups == 0 {
				continue
			}
			if got := attrInt(t, groups[0], "keys"); got != int64(len(advisees)) {
				t.Errorf("shape %d: group-keys keys = %d, want %d advisors", shape, got, len(advisees))
			}
			if shape == 3 {
				if got, want := attrInt(t, groups[0], "rowsOut"), countAll(advisees); got != want {
					t.Errorf("group-keys rowsOut = %d, want %d advisor triples", got, want)
				}
			} else if got := attrInt(t, bitsets[0], "keys"); got != int64(len(students)) {
				t.Errorf("shape %d: semi-bitset keys = %d, want %d students", shape, got, len(students))
			}
		}

		if backend.keys {
			continue
		}
		tr := explain(4)
		aggs := findSpans(tr, "aggregate[")
		if len(aggs) != 1 {
			t.Fatalf("COUNT(DISTINCT) on %s: %d aggregate spans, want 1\n%s", backend.name, len(aggs), tr)
		}
		if d, _ := aggs[0].Attr("distinct"); d != "keyed" {
			t.Errorf("COUNT(DISTINCT) on %s: distinct=%v, want keyed\n%s", backend.name, d, tr)
		}
	}
}

func countAll(m map[rdf.Term]int) int64 {
	n := 0
	for _, c := range m {
		n += c
	}
	return int64(n)
}
