package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/obs"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
)

// oracleResultsJSON is the encoder serveQuery used before the direct
// writer: one map[string]any per row and per cell, rendered by
// encoding/json. It reads the Rows compatibility view and is kept here
// as the reference the writer is compared with.
func oracleResultsJSON(res *sparql.Result) map[string]any {
	if res.IsAsk {
		return map[string]any{
			"head":    map[string]any{},
			"boolean": res.Answer,
		}
	}
	bindings := make([]map[string]any, 0, len(res.Rows))
	for _, row := range res.Rows {
		b := make(map[string]any, len(row))
		for name, term := range row {
			var entry map[string]any
			switch term.Kind {
			case rdf.IRI:
				entry = map[string]any{"type": "uri", "value": term.Value}
			case rdf.Literal:
				entry = map[string]any{"type": "literal", "value": term.Value}
			case rdf.Blank:
				entry = map[string]any{"type": "bnode", "value": term.Value}
			}
			b[name] = entry
		}
		bindings = append(bindings, b)
	}
	return map[string]any{
		"head":    map[string]any{"vars": res.Vars},
		"results": map[string]any{"bindings": bindings},
	}
}

// nastyValues are literal values that exercise every escaping rule — and,
// at least 17 bytes long with one special byte at offset 0, 7, 8, 9, 15
// or 16, the first, last and next byte of the writer's eight-byte words.
var nastyValues = append([]string{
	`plain`, `say "hi"`, `back\slash`, "line\nbreak", "tab\tand\rreturn",
	"ctl\x00\x01\x1f", "sep\u2028and\u2029", "bad\xffutf8\xc3", "<tag>&amp;", "é☃\U0001F600", "",
	"http://example.org/a-plain-long-iri#with-a-fragment",
}, wordEdgeValues()...)

func wordEdgeValues() []string {
	var out []string
	for _, off := range []int{0, 7, 8, 9, 15, 16} {
		for _, special := range []string{`"`, `\`, "\n", "\x01", "\x1f", "\x7f", "\xff", "é", "\u2028"} {
			base := "abcdefghijklmnopqrstu"
			out = append(out, base[:off]+special+base[off+1:])
		}
	}
	return out
}

func nastyStore() *core.Store {
	stb := core.NewBuilder(nil)
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	for i, v := range nastyValues {
		s := ex(fmt.Sprintf("s%02d", i))
		stb.AddTriple(rdf.T(s, ex("label"), rdf.NewLiteral(v)))
		stb.AddTriple(rdf.T(s, ex("kind"), ex(fmt.Sprintf("k%d", i%3))))
		if i%2 == 0 {
			stb.AddTriple(rdf.T(s, ex("alias"), rdf.NewBlank(fmt.Sprintf("b%d", i))))
		}
	}
	st := stb.Build()
	return st
}

// TestResultsJSONMatchesOracle: for every result shape the server can
// produce, the direct writer's document decodes to exactly what the old
// encoding/json rendering decodes to.
func TestResultsJSONMatchesOracle(t *testing.T) {
	pl := sparql.NewPlanner(graph.Memory(nastyStore()))
	queries := []string{
		`ASK { ?s <http://ex/kind> <http://ex/k1> }`,
		`ASK { ?s <http://ex/kind> <http://ex/none> }`,
		`SELECT ?s ?l WHERE { ?s <http://ex/nothing> ?l }`,
		`SELECT ?s ?l WHERE { ?s <http://ex/label> ?l }`,
		`SELECT ?s ?a ?l WHERE { ?s <http://ex/label> ?l . OPTIONAL { ?s <http://ex/alias> ?a } }`,
		`SELECT ?a WHERE { ?s <http://ex/kind> <http://ex/k0> . OPTIONAL { ?s <http://ex/alias> ?a } }`,
		`SELECT ?k (COUNT(?s) AS ?n) WHERE { ?s <http://ex/kind> ?k } GROUP BY ?k`,
		`SELECT DISTINCT ?k WHERE { ?s <http://ex/kind> ?k } ORDER BY DESC(?k) LIMIT 2`,
		`SELECT ?s ?b WHERE { ?s <http://ex/alias> ?b } ORDER BY ?b`,
		`EXPLAIN SELECT ?s ?l WHERE { ?s <http://ex/label> ?l }`,
		`EXPLAIN ANALYZE SELECT ?s ?l WHERE { ?s <http://ex/label> ?l . ?s <http://ex/kind> ?k }`,
	}
	for _, src := range queries {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		var tr *obs.Trace
		if q.Explain != sparql.ExplainNone {
			tr = obs.NewTrace("query")
		}
		res, err := pl.EvalOpts(context.Background(), q, sparql.EvalOptions{Trace: tr})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		tr.Finish()

		// The writer adds its serialize span to the trace it appends, so
		// the reference encodes the trace after the writer is done.
		var direct bytes.Buffer
		if err := writeResultsJSON(&direct, res, tr); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		doc := oracleResultsJSON(res)
		if tr != nil {
			doc["explain"] = tr
			checkSerializeSpan(t, tr, res, direct.Len())
		}
		var old bytes.Buffer
		if err := json.NewEncoder(&old).Encode(doc); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(direct.Bytes()) {
			t.Fatalf("%s: invalid JSON: %s", src, direct.Bytes())
		}
		var want, got any
		if err := json.Unmarshal(old.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(direct.Bytes(), &got); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", src, direct.Bytes(), old.Bytes())
		}
	}
}

// checkSerializeSpan checks the writer's span on tr: the rows of res it
// wrote, one decode per bound cell, and the bytes before the "explain"
// member of a document of docLen bytes.
func checkSerializeSpan(t *testing.T, tr *obs.Trace, res *sparql.Result, docLen int) {
	t.Helper()
	var sp *obs.Span
	for _, c := range tr.Children() {
		if c.Name() == "serialize" {
			sp = c
		}
	}
	if sp == nil {
		t.Fatalf("no serialize span in %s", tr)
	}
	attr := func(key string) int64 {
		v, ok := sp.Attr(key)
		if !ok {
			t.Fatalf("serialize span has no %s", key)
		}
		return v.(int64)
	}
	tree, err := json.Marshal(tr)
	if err != nil {
		t.Fatal(err)
	}
	rows, bound := res.Len(), 0
	for r := 0; r < rows; r++ {
		for c := range res.Vars {
			if !res.At(r, c).IsZero() {
				bound++
			}
		}
	}
	if got := attr("rows"); got != int64(rows) {
		t.Errorf("serialize rows = %d, want %d", got, rows)
	}
	if got, want := attr("bytes"), int64(docLen-len(`,"explain":`)-len(tree)-len("}\n")); got != want {
		t.Errorf("serialize bytes = %d, want %d", got, want)
	}
	if got := attr("termsDecoded"); got != int64(bound) {
		t.Errorf("serialize termsDecoded = %d, want one per bound cell: %d", got, bound)
	}
}

// TestResultsJSONFlushesAndStopsOnError: a large answer reaches the
// writer's destination in buffer-sized pieces, and the first failed
// write ends the encoding.
func TestResultsJSONFlushesAndStopsOnError(t *testing.T) {
	stb := core.NewBuilder(nil)
	for i := 0; i < 20000; i++ {
		stb.AddTriple(rdf.T(rdf.NewIRI(fmt.Sprintf("http://ex/subject/%06d", i)), rdf.NewIRI("http://ex/p"), rdf.NewLiteral("v")))
	}
	st := stb.Build()
	res, err := sparql.Exec(graph.Memory(st), `SELECT ?s ?o WHERE { ?s <http://ex/p> ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	var cw countingWriter
	if err := writeResultsJSON(&cw, res, nil); err != nil {
		t.Fatal(err)
	}
	// One buffer: the flush level and the row that crosses it.
	const row = len(`,{"s":{"type":"uri","value":"http://ex/subject/000000"},"o":{"type":"literal","value":"v"}}`)
	if cw.writes < 5 || cw.largest > jsonFlushBytes+row {
		t.Fatalf("%d bytes arrived in %d writes, largest %d: want several writes of at most %d",
			cw.bytes, cw.writes, cw.largest, jsonFlushBytes+row)
	}
	fw := countingWriter{failAt: 2}
	if err := writeResultsJSON(&fw, res, nil); !errors.Is(err, errWriterGone) {
		t.Fatalf("err = %v, want the writer's", err)
	}
	if fw.writes != 2 {
		t.Fatalf("encoding went on for %d writes after the failed one", fw.writes-2)
	}
}

var errWriterGone = errors.New("writer gone")

type countingWriter struct {
	writes, bytes, largest int
	failAt                 int // the write that fails; 0 = none
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes == w.failAt {
		return 0, errWriterGone
	}
	w.bytes += len(p)
	w.largest = max(w.largest, len(p))
	return len(p), nil
}

// FuzzResultsJSON: whatever bytes a stored term holds, the writer's
// output is valid JSON and decodes to the value encoding/json would have
// produced for it.
func FuzzResultsJSON(f *testing.F) {
	for i, v := range nastyValues {
		f.Add(uint8(i), v)
	}
	f.Fuzz(func(t *testing.T, kind uint8, value string) {
		term := rdf.Term{Kind: rdf.TermKind(kind % 3), Value: value}
		if term.IsZero() {
			t.Skip("the zero Term is the result's unbound marker")
		}
		stb := core.NewBuilder(nil)
		stb.AddTriple(rdf.T(rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/p"), term))
		st := stb.Build()
		res, err := sparql.Exec(graph.Memory(st), `SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o }`)
		if err != nil || res.Len() != 1 {
			t.Fatalf("rows=%d err=%v", res.Len(), err)
		}
		var buf bytes.Buffer
		if err := writeResultsJSON(&buf, res, nil); err != nil {
			t.Fatal(err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("invalid JSON for %q: %s", value, buf.Bytes())
		}
		var doc sparqlResults
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		ref, _ := json.Marshal(value)
		var want string
		if err := json.Unmarshal(ref, &want); err != nil {
			t.Fatal(err)
		}
		wantType := [...]string{rdf.IRI: "uri", rdf.Literal: "literal", rdf.Blank: "bnode"}[term.Kind]
		if len(doc.Results.Bindings) != 1 || doc.Results.Bindings[0]["o"].Value != want || doc.Results.Bindings[0]["o"].Type != wantType {
			t.Fatalf("%q round-tripped as %+v, want %s %q", value, doc.Results.Bindings, wantType, want)
		}
	})
}

// joinStore holds a two-step join with students×coursesPerProf answers:
// every student has one advisor, every professor teaches coursesPerProf
// courses.
func joinStore(students, profs, coursesPerProf int) *core.Store {
	stb := core.NewBuilder(nil)
	ex := func(kind string, i int) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/%s%05d", kind, i)) }
	advisor, teaches := rdf.NewIRI("http://ex/advisor"), rdf.NewIRI("http://ex/teacherOf")
	for p := 0; p < profs; p++ {
		for c := 0; c < coursesPerProf; c++ {
			stb.AddTriple(rdf.T(ex("prof", p), teaches, ex("course", p*coursesPerProf+c)))
		}
	}
	for s := 0; s < students; s++ {
		stb.AddTriple(rdf.T(ex("student", s), advisor, ex("prof", s%profs)))
	}
	st := stb.Build()
	return st
}

const largeJoin = `SELECT ?student ?course WHERE { ?student <http://ex/advisor> ?prof . ?prof <http://ex/teacherOf> ?course }`

// TestServeLargeResultAllocsPerRow pins the columnar result path: a
// 6,000-row join served through the full handler — parse, admit, join,
// decode, encode — allocates less than once per result row. (With a map
// per row and per cell it was ~25 per row.)
func TestServeLargeResultAllocsPerRow(t *testing.T) {
	srv := New(joinStore(2000, 50, 3))
	srv.SetResultCacheBytes(0) // every request evaluates
	h := srv.Handler()
	target := "/sparql?query=" + url.QueryEscape(largeJoin)
	const rows = 6000
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		if n := bytes.Count(rec.Body.Bytes(), []byte(`"student":`)); n != rows {
			t.Fatalf("%d rows in the response, want %d", n, rows)
		}
	}
	serve()
	if allocs := testing.AllocsPerRun(5, serve); allocs >= rows {
		t.Fatalf("%.0f allocations to serve %d rows (%.2f per row), want < 1 per row", allocs, rows, allocs/rows)
	} else {
		t.Logf("%.0f allocations for %d rows (%.3f per row)", allocs, rows, allocs/rows)
	}
}

// TestCachedResultSharedUnderWrites serves one cached result from many
// goroutines at once — through the JSON writer and through At — while
// UPDATEs append enough new terms that the dictionary moves its id
// column and adds segments more than once. A result decodes through the
// term table as it stood when its evaluation ended, so every body is the first one, byte
// for byte.
func TestCachedResultSharedUnderWrites(t *testing.T) {
	srv := New(joinStore(200, 10, 3))
	pl := srv.pl
	q, err := sparql.Parse(largeJoin)
	if err != nil {
		t.Fatal(err)
	}
	cells := func(res *sparql.Result) string {
		var b strings.Builder
		for r := 0; r < res.Len(); r++ {
			for c := range res.Vars {
				b.WriteString(res.At(r, c).String())
			}
		}
		return b.String()
	}
	const readers = 6
	results := make([]*sparql.Result, readers+1)
	for i := range results {
		if results[i], err = pl.EvalColumnar(context.Background(), q, sparql.EvalOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if hits := pl.CacheStats().ResultHits; hits < readers {
		t.Fatalf("%d result-cache hits, want %d", hits, readers)
	}
	var want bytes.Buffer
	if err := writeResultsJSON(&want, results[0], nil); err != nil {
		t.Fatal(err)
	}
	wantCells := cells(results[0])
	if n := bytes.Count(want.Bytes(), []byte(`"student":`)); n != 600 {
		t.Fatalf("%d rows, want 600", n)
	}

	dict := srv.Graph().Dictionary()
	terms := dict.Len()
	h := srv.Handler()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var u strings.Builder
			u.WriteString("INSERT DATA { ")
			for k := 0; k < 100; k++ {
				fmt.Fprintf(&u, `<http://ex/new%02d_%03d> <http://ex/p> "v%d_%d" . `, i, k, i, k)
			}
			u.WriteString("}")
			req := httptest.NewRequest(http.MethodPost, "/sparql", strings.NewReader(url.Values{"update": {u.String()}}.Encode()))
			req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("update: status %d: %s", rec.Code, rec.Body)
				return
			}
		}
	}()
	for _, res := range results[1:] {
		wg.Add(1)
		go func(res *sparql.Result) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				var got bytes.Buffer
				if err := writeResultsJSON(&got, res, nil); err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Error("a served body differs from the first")
					return
				}
				if cells(res) != wantCells {
					t.Error("At reads differ from the first")
					return
				}
			}
		}(res)
	}
	wg.Wait()
	if grown := dict.Len() - terms; grown < 4000 {
		t.Fatalf("the updates added %d terms, want 4000", grown)
	}
}

// TestResultsJSONPlainCopy: the writer copies a value the dictionary
// marks plain and escapes the others, and either way its bytes are
// appendJSONString's, for every nasty value, every word-edge value and
// plain values of every length around the eight-byte words, in each kind.
func TestResultsJSONPlainCopy(t *testing.T) {
	values := append([]string(nil), nastyValues...)
	for n := 0; n <= 25; n++ {
		values = append(values, strings.Repeat("abcdefgh", 4)[:n], strings.Repeat("~ !#", 7)[:n])
	}
	for _, kind := range []rdf.TermKind{rdf.IRI, rdf.Literal, rdf.Blank} {
		for _, v := range values {
			term := rdf.Term{Kind: kind, Value: v}
			if term.IsZero() {
				continue
			}
			stb := core.NewBuilder(nil)
			stb.AddTriple(rdf.T(rdf.NewIRI("http://ex/s"), rdf.NewIRI("http://ex/p"), term))
			res, err := sparql.Exec(graph.Memory(stb.Build()), `SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o }`)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := writeResultsJSON(&got, res, nil); err != nil {
				t.Fatal(err)
			}
			want := `{"head":{"vars":["o"]},"results":{"bindings":[{"o":{"type":` + jsonTypes[kind] +
				string(appendJSONString(nil, v)) + "}}]}}\n"
			if got.String() != want {
				t.Errorf("%v %q:\n got %q\nwant %q", kind, v, got.String(), want)
			}
		}
	}
}

// BenchmarkResultsJSON times the writer alone over a 6,000-row join
// answer, in ns per cell.
func BenchmarkResultsJSON(b *testing.B) {
	res, err := sparql.Exec(graph.Memory(joinStore(2000, 50, 3)), largeJoin)
	if err != nil {
		b.Fatal(err)
	}
	cells := res.Len() * len(res.Vars)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeResultsJSON(io.Discard, res, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*cells), "ns/cell")
}
