package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
)

// valueStore holds n subjects, each with one <http://ex/v> value drawn
// round-robin from vals.
func valueStore(n int, vals []string) graph.Graph {
	stb := core.NewBuilder(nil)
	v := rdf.NewIRI("http://ex/v")
	for i := 0; i < n; i++ {
		stb.AddTriple(rdf.T(rdf.NewIRI(fmt.Sprintf("http://ex/s%06d", i)), v, rdf.NewLiteral(vals[i%len(vals)])))
	}
	st := stb.Build()
	return graph.Memory(st)
}

// TestFilterComparisonAllocsPerDistinctID: an ordering FILTER parses its
// constant once per query and each variable value once per distinct id,
// so quadrupling the rows over the same ten values must not grow the
// allocation count with them. (ParseFloat allocates an error for every
// non-numeric operand; before the memo that was one or two per row.)
func TestFilterComparisonAllocsPerDistinctID(t *testing.T) {
	vals := []string{"1", "7", "apple", "5x", "-3", "pear", "12", "0.5", "nan-ish", "4"}
	q := mustParse(t, `SELECT ?s WHERE { ?s <http://ex/v> ?x . FILTER (?x < "5") }`)
	const n = 2000
	allocs := func(rows int) float64 {
		pl := NewPlanner(valueStore(rows, vals))
		return testing.AllocsPerRun(5, func() {
			res, err := pl.EvalColumnar(context.Background(), q, EvalOptions{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			// "1", "-3", "0.5", "4" compare numerically; "12" and "nan-ish"
			// do not pass; "5x" sorts after "5".
			if want := rows * 4 / len(vals); res.Len() != want {
				t.Fatalf("%d rows pass, want %d", res.Len(), want)
			}
		})
	}
	small, large := allocs(n), allocs(4*n)
	if extra := large - small; extra > n/8 {
		t.Fatalf("3×%d more rows over the same %d values cost %.0f more allocations (%.0f → %.0f): filter operands are parsed per row",
			n, len(vals), extra, small, large)
	}
}

// TestResultFootprintMatchesHeap: what the result cache charges for an
// entry is what the entry retains. A 10k-row answer is cached and the
// caller's reference dropped; the live-heap growth across that must be
// within 15 % of the cache's own byte count.
func TestResultFootprintMatchesHeap(t *testing.T) {
	g := valueStore(10_000, []string{"a", "b", "c"})
	pl := NewPlanner(g)
	q := mustParse(t, `SELECT ?s ?x WHERE { ?s <http://ex/v> ?x }`)
	// Warm everything the first evaluation allocates for keeps (the plan
	// cache entry, lazily built index state) before measuring.
	if _, err := pl.EvalColumnar(context.Background(), q, EvalOptions{}); err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	pl.SetResultCacheBytes(64 << 20)
	res, err := pl.EvalColumnar(context.Background(), q, EvalOptions{})
	if err != nil || res.Len() != 10_000 {
		t.Fatalf("%v rows, %v", res.Len(), err)
	}
	res = nil
	delta := float64(heap() - before)
	cs := pl.CacheStats()
	if cs.ResultEntries != 1 {
		t.Fatalf("result not cached: %+v", cs)
	}
	charged := float64(cs.ResultBytes)
	if ratio := charged / delta; ratio < 0.85 || ratio > 1.15 {
		t.Fatalf("cache charges %.0f bytes for an entry that retains %.0f (ratio %.2f)", charged, delta, ratio)
	}
	runtime.KeepAlive(pl)
}

// TestCompareRenderedMatchesString: the allocation-free comparison used
// by ORDER BY and SortRows is strings.Compare on the N-Triples
// renderings, including where one value is a prefix of the other and the
// closing byte decides.
func TestCompareRenderedMatchesString(t *testing.T) {
	values := []string{"", "a", "a b", "a>", "a?", "a=", "a\"", "a!", "a#", "ab", "b", "a\nb", "a\\", "é", "a\x00"}
	var terms []rdf.Term
	for _, v := range values {
		terms = append(terms, rdf.NewIRI(v), rdf.NewLiteral(v), rdf.NewBlank(v))
	}
	sign := func(c int) int {
		switch {
		case c < 0:
			return -1
		case c > 0:
			return 1
		}
		return 0
	}
	for _, a := range terms {
		for _, b := range terms {
			if got, want := sign(compareRendered(a, b)), strings.Compare(a.String(), b.String()); got != want {
				t.Errorf("compareRendered(%s, %s) = %d, want %d", a, b, got, want)
			}
		}
	}
}

// TestOrderByLimitMatchesFullSort: ORDER BY with LIMIT keeps a bounded
// heap instead of every candidate; its answer must be the prefix of the
// unlimited, fully sorted answer — ties (resolved by emit order), DESC,
// numeric keys, unbound OPTIONAL keys, DISTINCT and OFFSET included.
func TestOrderByLimitMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stb := core.NewBuilder(nil)
	ex := func(s string) rdf.Term { return rdf.NewIRI("http://ex/" + s) }
	for i := 0; i < 400; i++ {
		s := ex(fmt.Sprintf("s%03d", i))
		stb.AddTriple(rdf.T(s, ex("group"), rdf.NewLiteral(fmt.Sprint(rng.Intn(12)))))
		stb.AddTriple(rdf.T(s, ex("tag"), ex(fmt.Sprintf("t%d", rng.Intn(5)))))
		if rng.Intn(3) > 0 {
			stb.AddTriple(rdf.T(s, ex("nick"), rdf.NewLiteral(fmt.Sprintf("n%02d", rng.Intn(30)))))
		}
	}
	st := stb.Build()
	g := graph.Memory(st)
	shapes := []string{
		`SELECT ?s ?g WHERE { ?s <http://ex/group> ?g } ORDER BY ?g`,
		`SELECT ?s ?g WHERE { ?s <http://ex/group> ?g } ORDER BY DESC(?g) ?s`,
		`SELECT ?s WHERE { ?s <http://ex/group> ?g . ?s <http://ex/tag> ?t } ORDER BY ?t DESC(?g)`,
		`SELECT ?s ?n WHERE { ?s <http://ex/group> ?g . OPTIONAL { ?s <http://ex/nick> ?n } } ORDER BY ?n`,
		`SELECT ?s ?n WHERE { ?s <http://ex/group> ?g . OPTIONAL { ?s <http://ex/nick> ?n } } ORDER BY DESC(?n) ?g`,
		`SELECT DISTINCT ?g ?t WHERE { ?s <http://ex/group> ?g . ?s <http://ex/tag> ?t } ORDER BY ?t`,
		`SELECT ?s WHERE { { ?s <http://ex/tag> <http://ex/t1> } UNION { ?s <http://ex/tag> <http://ex/t2> } . ?s <http://ex/group> ?g } ORDER BY ?g`,
	}
	for _, shape := range shapes {
		full, err := Exec(g, shape)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		all := renderRows(t, full)
		for _, cut := range []struct{ limit, offset int }{{1, 0}, {7, 0}, {25, 10}, {50, 380}, {1000, 0}, {5, 1000}} {
			src := fmt.Sprintf("%s LIMIT %d OFFSET %d", shape, cut.limit, cut.offset)
			res, err := Exec(g, src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			lo, hi := window(len(all), cut.offset, cut.limit)
			if got, want := renderRows(t, res), all[lo:hi]; !reflect.DeepEqual(got, append([]string{}, want...)) {
				t.Errorf("%s:\n got %v\nwant %v", src, got, want)
			}
		}
	}
}
