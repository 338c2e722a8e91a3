package sparql

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
)

func mustParse(t *testing.T, src string) *Query {
	t.Helper()
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return q
}

// TestShapeNormalization: the canonical shape is invariant under
// whitespace and variable renaming, constants are extracted
// positionally, and structural differences change the shape.
func TestShapeNormalization(t *testing.T) {
	a := mustParse(t, `SELECT ?x WHERE { ?x <http://ex/p> <http://ex/a> . ?x <http://ex/q> ?y }`)
	b := mustParse(t, `SELECT  ?who
		WHERE {  ?who   <http://ex/p>   <http://ex/b> .
		         ?who <http://ex/q> ?other }`)
	sa, ca, _ := shapeOf(a)
	sb, cb, _ := shapeOf(b)
	if sa != sb {
		t.Fatalf("shape differs under renaming/whitespace:\n%q\n%q", sa, sb)
	}
	if reflect.DeepEqual(ca, cb) {
		t.Fatalf("constants should differ: %v vs %v", ca, cb)
	}

	c := mustParse(t, `SELECT ?x WHERE { ?x <http://ex/p> <http://ex/a> . ?y <http://ex/q> ?x }`)
	sc, _, _ := shapeOf(c)
	if sc == sa {
		t.Fatalf("different join structure produced the same shape %q", sc)
	}

	d := mustParse(t, `SELECT DISTINCT ?x WHERE { ?x <http://ex/p> <http://ex/a> . ?x <http://ex/q> ?y }`)
	sd, _, _ := shapeOf(d)
	if sd == sa {
		t.Fatal("DISTINCT did not change the shape")
	}

	e := mustParse(t, `SELECT ?x WHERE { ?x <http://ex/p> <http://ex/a> . ?x <http://ex/q> ?y } LIMIT 3`)
	se, _, _ := shapeOf(e)
	if se == sa {
		t.Fatal("LIMIT did not change the shape")
	}
}

// TestResultKeyOutputNames: the result key must include the actual
// output column names (they are the Row map keys a client sees), while
// renaming a non-projected variable keeps the key shared.
func TestResultKeyOutputNames(t *testing.T) {
	key := func(src string) string {
		s, c, out := shapeOf(mustParse(t, src))
		return resultKey(s, out, c)
	}
	base := key(`SELECT ?x WHERE { ?x <http://ex/p> ?y }`)
	if renamedOut := key(`SELECT ?z WHERE { ?z <http://ex/p> ?y }`); renamedOut == base {
		t.Fatal("renaming the projected variable must change the result key")
	}
	if renamedInternal := key(`SELECT ?x WHERE { ?x <http://ex/p> ?w }`); renamedInternal != base {
		t.Fatal("renaming a non-projected variable must keep the result key")
	}
	if otherConst := key(`SELECT ?x WHERE { ?x <http://ex/q> ?y }`); otherConst == base {
		t.Fatal("a different constant must change the result key")
	}
}

// TestPlanCacheLRUAndEpoch: capacity eviction and stats-epoch
// invalidation.
func TestPlanCacheLRUAndEpoch(t *testing.T) {
	c := newPlanCache(2)
	c.put("s1", 0, 2, 7, []int{1, 0}, []stepHint{hintNone, hintMerge})
	c.put("s2", 0, 1, 7, []int{0}, []stepHint{hintNone})
	if order, hints, ok := c.get("s1", 0, 2, 7); !ok || len(order) != 2 || hints[1] != hintMerge {
		t.Fatalf("get s1 = %v %v %v", order, hints, ok)
	}
	// s2 is now least-recent; inserting s3 evicts it.
	c.put("s3", 0, 1, 7, []int{0}, []stepHint{hintNone})
	if _, _, ok := c.get("s2", 0, 1, 7); ok {
		t.Fatal("s2 survived past capacity")
	}
	if entries, capacity, evictions := c.snapshot(); entries != 2 || capacity != 2 || evictions != 1 {
		t.Fatalf("snapshot = %d/%d evictions %d", entries, capacity, evictions)
	}
	// A stale statistics epoch refuses (and drops) the entry.
	if _, _, ok := c.get("s1", 0, 2, 8); ok {
		t.Fatal("stale epoch served")
	}
	if _, _, ok := c.get("s1", 0, 2, 7); ok {
		t.Fatal("stale entry not dropped")
	}
	// Wrong pattern count (defensive collision guard) refuses.
	if _, _, ok := c.get("s3", 0, 2, 7); ok {
		t.Fatal("mismatched pattern count served")
	}
}

// TestResultCacheEpochAndBytes: epoch purge-on-write, byte-cap
// eviction, and isolation of served copies from the cached entry.
func TestResultCacheEpochAndBytes(t *testing.T) {
	mk := func(n int) *Result {
		r := &Result{Vars: []string{"x"}, n: n}
		d := dictionary.New()
		for i := 0; i < n; i++ {
			r.ids = append(r.ids, d.Encode(rdf.NewLiteral(fmt.Sprint(i))))
		}
		snap := d.Snapshot()
		r.terms = snap.View()
		return r
	}
	c := newResultCache(4096)
	small := mk(3)
	c.put("k1", "e1", small, resultFootprint(small))
	if got, ok := c.get("k1", "e1"); !ok || got.Len() != 3 {
		t.Fatalf("get = %v %v", got, ok)
	}
	if _, ok := c.get("k1", "e2"); ok {
		t.Fatal("stale epoch served")
	}
	// New-epoch put purges the old resident set and counts churn.
	c.put("k2", "e2", small, resultFootprint(small))
	if _, ok := c.get("k1", "e2"); ok {
		t.Fatal("entry survived the epoch purge")
	}
	if _, _, _, _, churn := c.snapshot(); churn != 1 {
		t.Fatalf("churn = %d, want 1", churn)
	}

	// Byte-cap eviction: entries larger than the cache are refused, and
	// filling past the cap evicts from the LRU tail.
	huge := mk(1000)
	c.put("huge", "e2", huge, resultFootprint(huge))
	if _, ok := c.get("huge", "e2"); ok {
		t.Fatal("over-cap entry cached")
	}
	for i := 0; i < 64; i++ {
		r := mk(12)
		c.put(fmt.Sprintf("fill%d", i), "e2", r, resultFootprint(r))
	}
	if _, bytes, capBytes, evictions, _ := c.snapshot(); bytes > capBytes || evictions == 0 {
		t.Fatalf("bytes %d cap %d evictions %d", bytes, capBytes, evictions)
	}

	// A served result is a private header over the shared cells: sorting
	// it or filling its Rows view must not disturb the cached body.
	d := dictionary.New()
	r := &Result{Vars: []string{"x"}, n: 2, ids: []core.ID{d.Encode(rdf.NewLiteral("b")), d.Encode(rdf.NewLiteral("a"))}}
	snap := d.Snapshot()
	r.terms = snap.View()
	c.put("sorted", "e2", r, resultFootprint(r))
	got, _ := c.get("sorted", "e2")
	got.fillRows()
	got.SortRows()
	if got.At(0, 0).Value != "a" || got.Rows[0]["x"].Value != "a" {
		t.Fatalf("SortRows left %v / %v first", got.At(0, 0), got.Rows[0])
	}
	again, _ := c.get("sorted", "e2")
	if again.At(0, 0).Value != "b" || again.Rows != nil {
		t.Fatal("mutating a served result corrupted the cached entry")
	}
}

// cacheTestQueries covers the shapes the differential suite must hold
// for: plain join, DISTINCT, OPTIONAL, aggregates, ORDER BY.
var cacheTestQueries = []string{
	`SELECT ?s ?c WHERE { ?s <http://ex/takes> ?c . ?s <http://ex/name> ?n }`,
	`SELECT DISTINCT ?c WHERE { ?s <http://ex/takes> ?c }`,
	`SELECT ?s ?e WHERE { ?s <http://ex/name> ?n . OPTIONAL { ?s <http://ex/email> ?e } }`,
	`SELECT ?c (COUNT(?s) AS ?n) WHERE { ?s <http://ex/takes> ?c } GROUP BY ?c ORDER BY ?c`,
	`SELECT ?s ?c WHERE { ?s <http://ex/takes> ?c } ORDER BY ?s ?c LIMIT 40`,
	`SELECT ?s WHERE { ?s <http://ex/takes> <http://ex/course03> } ORDER BY ?s`,
}

// TestCachedVsUncachedDifferential: on every backend (memory, disk,
// overlay) and worker count, the second (cached) evaluation of
// each query is bit-identical to the first, and both match an
// evaluation with caches disabled.
func TestCachedVsUncachedDifferential(t *testing.T) {
	data := governTriples(120, 12, 4)
	backends := governBackends(t, data)
	for name, g := range backends {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				pl := NewPlanner(g)
				pl.SetResultCacheBytes(8 << 20)
				bare := NewPlanner(g)
				bare.SetPlanCacheSize(0)
				for _, src := range cacheTestQueries {
					opt := EvalOptions{Workers: workers}
					first, err := pl.EvalOpts(context.Background(), mustParse(t, src), opt)
					if err != nil {
						t.Fatalf("%s: %v", src, err)
					}
					second, err := pl.EvalOpts(context.Background(), mustParse(t, src), opt)
					if err != nil {
						t.Fatalf("%s (cached): %v", src, err)
					}
					if !reflect.DeepEqual(renderRows(t, first), renderRows(t, second)) ||
						!reflect.DeepEqual(first.Vars, second.Vars) {
						t.Fatalf("%s: cached result differs from uncached", src)
					}
					// A NoResultCache evaluation skips the result cache but
					// replans through the plan cache (a hit, the shape is
					// memoized): same rows either way.
					replanned, err := pl.EvalOpts(context.Background(), mustParse(t, src),
						EvalOptions{Workers: workers, NoResultCache: true})
					if err != nil {
						t.Fatalf("%s (replanned): %v", src, err)
					}
					if !reflect.DeepEqual(renderRows(t, first), renderRows(t, replanned)) {
						t.Fatalf("%s: plan-cache-hit rows differ from original", src)
					}
					ref, err := bare.EvalOpts(context.Background(), mustParse(t, src), opt)
					if err != nil {
						t.Fatalf("%s (no caches): %v", src, err)
					}
					got, want := renderRows(t, second), renderRows(t, ref)
					if q := mustParse(t, src); len(q.OrderBy) == 0 {
						sort.Strings(got)
						sort.Strings(want)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: cached rows differ from cache-off rows\n got %v\nwant %v", src, got, want)
					}
				}
				cs := pl.CacheStats()
				if cs.ResultHits == 0 {
					t.Fatalf("no result-cache hits recorded: %+v", cs)
				}
				if cs.PlanHits == 0 {
					t.Fatalf("no plan-cache hits recorded: %+v", cs)
				}
			})
		}
	}
}

// TestPlanCacheSharedShapeDifferentConstants: two queries that
// normalize to the same shape but bind different constants share one
// memoized plan; results must match a cache-off planner for both, even
// though the plan was chosen for the first constant's selectivity.
func TestPlanCacheSharedShapeDifferentConstants(t *testing.T) {
	p := rdf.NewIRI("http://ex/p")
	q := rdf.NewIRI("http://ex/q")
	stb := core.NewBuilder(nil)
	// Constant <hot> matches many subjects via p, few via q;
	// <cold> is the reverse — the optimal order differs per constant.
	for i := 0; i < 200; i++ {
		stb.AddTriple(rdf.T(rdf.NewIRI(fmt.Sprintf("http://ex/s%03d", i)), p, rdf.NewIRI("http://ex/hot")))
	}
	for i := 0; i < 5; i++ {
		stb.AddTriple(rdf.T(rdf.NewIRI(fmt.Sprintf("http://ex/s%03d", i)), q, rdf.NewIRI("http://ex/hot")))
	}
	for i := 0; i < 5; i++ {
		stb.AddTriple(rdf.T(rdf.NewIRI(fmt.Sprintf("http://ex/s%03d", i)), p, rdf.NewIRI("http://ex/cold")))
	}
	for i := 0; i < 200; i++ {
		stb.AddTriple(rdf.T(rdf.NewIRI(fmt.Sprintf("http://ex/s%03d", i)), q, rdf.NewIRI("http://ex/cold")))
	}
	st := stb.Build()
	g := graph.Memory(st)
	pl := NewPlanner(g)
	bare := NewPlanner(g)
	bare.SetPlanCacheSize(0)

	tmpl := `SELECT ?s WHERE { ?s <http://ex/p> <http://ex/%s> . ?s <http://ex/q> <http://ex/%s> } ORDER BY ?s`
	for _, c := range []string{"hot", "cold", "hot", "cold"} {
		src := fmt.Sprintf(tmpl, c, c)
		got, err := pl.EvalOpts(context.Background(), mustParse(t, src), EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := bare.EvalOpts(context.Background(), mustParse(t, src), EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(renderRows(t, got), renderRows(t, want)) {
			t.Fatalf("constant %s: plan-cached rows differ", c)
		}
	}
	if cs := pl.CacheStats(); cs.PlanHits == 0 {
		t.Fatalf("shared shape never hit the plan cache: %+v", cs)
	}
}

// TestResultCacheInvalidationAcrossPublishAndCompaction: on a delta
// overlay, a write between two identical queries yields the post-write
// answer (publish bumps the epoch), while a content-preserving
// compaction keeps the epoch so cached answers validly survive it.
func TestResultCacheInvalidationAcrossPublishAndCompaction(t *testing.T) {
	ov, err := delta.Open(graph.Memory(core.New()), delta.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer ov.Close()
	add := func(s string) {
		t.Helper()
		if _, err := ExecUpdate(ov, fmt.Sprintf(`INSERT DATA { <http://ex/%s> <http://ex/p> <http://ex/o> }`, s)); err != nil {
			t.Fatal(err)
		}
	}
	add("a")
	pl := NewPlanner(ov)
	pl.SetResultCacheBytes(1 << 20)
	const src = `SELECT ?s WHERE { ?s <http://ex/p> <http://ex/o> } ORDER BY ?s`
	run := func() int {
		t.Helper()
		res, err := pl.EvalOpts(context.Background(), mustParse(t, src), EvalOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return len(res.Rows)
	}
	if n := run(); n != 1 {
		t.Fatalf("rows = %d, want 1", n)
	}
	if n := run(); n != 1 { // cache hit
		t.Fatalf("rows = %d, want 1", n)
	}
	add("b") // publish: epoch bump must invalidate
	if n := run(); n != 2 {
		t.Fatalf("post-write rows = %d, want 2 (stale cache served?)", n)
	}
	hitsBeforeCompact := pl.CacheStats().ResultHits
	if n := run(); n != 2 {
		t.Fatalf("rows = %d, want 2", n)
	}
	if hits := pl.CacheStats().ResultHits; hits != hitsBeforeCompact+1 {
		t.Fatalf("result hits = %d, want %d", hits, hitsBeforeCompact+1)
	}
	// Compaction publishes a content-identical state: the epoch (and so
	// the cached answer) survives.
	if err := ov.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := run(); n != 2 {
		t.Fatalf("post-compaction rows = %d, want 2", n)
	}
	if hits := pl.CacheStats().ResultHits; hits != hitsBeforeCompact+2 {
		t.Fatalf("post-compaction result hits = %d, want %d (compaction churned the epoch)", hits, hitsBeforeCompact+2)
	}
}

// TestExplainBypassesResultCache: EXPLAIN ANALYZE and NoResultCache
// evaluations never serve cached rows nor fill the cache.
func TestExplainBypassesResultCache(t *testing.T) {
	stb := core.NewBuilder(nil)
	stb.AddTriple(rdf.T(rdf.NewIRI("http://ex/a"), rdf.NewIRI("http://ex/p"), rdf.NewIRI("http://ex/b")))
	st := stb.Build()
	pl := NewPlanner(graph.Memory(st))
	pl.SetResultCacheBytes(1 << 20)

	const plain = `SELECT ?s WHERE { ?s <http://ex/p> ?o }`
	for i := 0; i < 2; i++ {
		if _, err := pl.EvalOpts(context.Background(), mustParse(t, `EXPLAIN ANALYZE `+plain), EvalOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := pl.EvalOpts(context.Background(), mustParse(t, plain), EvalOptions{NoResultCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	cs := pl.CacheStats()
	if cs.ResultHits != 0 || cs.ResultMisses != 0 || cs.ResultEntries != 0 {
		t.Fatalf("EXPLAIN/NoResultCache touched the result cache: %+v", cs)
	}
}
