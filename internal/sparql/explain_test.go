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
		if _, ok := plans[0].Attr("planner"); !ok {
			t.Error("plan span missing planner attr")
		}
	}
	steps := findSpans(tr, "step[")
	if len(steps) != patterns {
		t.Fatalf("step spans = %d, want %d", len(steps), patterns)
	}
	for _, sp := range steps {
		attrInt(t, sp, "estRows") // may be -1 (unknown), must be present
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
		if keys := res.AppendKeys(nil, 0, res.Len()); len(keys) != 10 || slices.Contains(keys, "") {
			t.Errorf("traced=%v: AppendKeys gathered %q, want 10 keys", traced, keys)
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
