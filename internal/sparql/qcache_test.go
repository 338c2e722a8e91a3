package sparql

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
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

	key := func(src string) string {
		s, c, out := shapeOf(mustParse(t, src))
		return string(appendResultKey(nil, s, out, c))
	}
	// Each group varies one clause; no two of its queries may share a
	// result key, or one would be answered with the other's rows.
	for _, g := range []struct {
		clause  string
		queries []string
	}{
		{"projection order", []string{
			`SELECT ?x ?y WHERE { ?x <p> ?y }`,
			`SELECT ?y ?x WHERE { ?x <p> ?y }`,
		}},
		{"DISTINCT", []string{
			`SELECT ?x WHERE { ?x <p> ?y }`,
			`SELECT DISTINCT ?x WHERE { ?x <p> ?y }`,
		}},
		{"constant kind", []string{
			`SELECT ?x WHERE { ?x <p> <a> }`,
			`SELECT ?x WHERE { ?x <p> "a" }`,
			`SELECT ?x WHERE { ?x <p> _:a }`,
		}},
		{"FILTER operator", []string{
			`SELECT ?x WHERE { ?x <p> ?y FILTER (?y = "5") }`,
			`SELECT ?x WHERE { ?x <p> ?y FILTER (?y != "5") }`,
			`SELECT ?x WHERE { ?x <p> ?y FILTER (?y < "5") }`,
			`SELECT ?x WHERE { ?x <p> ?y FILTER (?y <= "5") }`,
			`SELECT ?x WHERE { ?x <p> ?y FILTER (?y > "5") }`,
			`SELECT ?x WHERE { ?x <p> ?y FILTER (?y >= "5") }`,
		}},
		{"ORDER BY direction", []string{
			`SELECT ?x WHERE { ?x <p> ?y } ORDER BY ?y`,
			`SELECT ?x WHERE { ?x <p> ?y } ORDER BY DESC(?y)`,
		}},
		{"LIMIT against OFFSET", []string{
			`SELECT ?x WHERE { ?x <p> ?y } LIMIT 5`,
			`SELECT ?x WHERE { ?x <p> ?y } OFFSET 5`,
			`SELECT ?x WHERE { ?x <p> ?y } LIMIT 5 OFFSET 5`,
		}},
		{"aggregate DISTINCT", []string{
			`SELECT ?x (COUNT(?y) AS ?n) WHERE { ?x <p> ?y } GROUP BY ?x`,
			`SELECT ?x (COUNT(DISTINCT ?y) AS ?n) WHERE { ?x <p> ?y } GROUP BY ?x`,
		}},
		{"pattern placement", []string{
			`SELECT ?x ?z WHERE { ?x <p> ?y . ?x <q> ?z }`,
			`SELECT ?x ?z WHERE { ?x <p> ?y OPTIONAL { ?x <q> ?z } }`,
			`SELECT ?x ?z WHERE { { ?x <p> ?y } UNION { ?x <q> ?z } }`,
		}},
	} {
		seen := map[string]string{}
		for _, src := range g.queries {
			k := key(src)
			if prev, ok := seen[k]; ok {
				t.Errorf("%s: %q and %q share a result key", g.clause, prev, src)
			}
			seen[k] = src
		}
	}

	// Renaming a variable the answer does not name, or respacing the
	// text, must keep the key shared.
	for _, pair := range [][2]string{
		{`SELECT ?x WHERE { ?x <p> ?y . ?y <q> ?z }`,
			`SELECT ?x WHERE { ?x <p> ?b . ?b <q> ?c }`},
		{`SELECT ?x WHERE { ?x <p> ?y OPTIONAL { ?y <q> ?z } }`,
			`SELECT ?x WHERE { ?x <p> ?w OPTIONAL { ?w <q> ?v } }`},
		{`SELECT ?x WHERE { { ?x <p> ?y } UNION { ?x <q> ?y } }`,
			`SELECT ?x WHERE { { ?x <p> ?m } UNION { ?x <q> ?m } }`},
		{`SELECT ?x WHERE { ?x <p> ?y FILTER (?y > "5") } ORDER BY DESC(?y)`,
			`SELECT   ?x   WHERE { ?x <p> ?v FILTER (?v > "5") }   ORDER BY DESC(?v)`},
		{`SELECT ?x (COUNT(DISTINCT ?y) AS ?n) WHERE { ?x <p> ?y } GROUP BY ?x`,
			`SELECT ?x (COUNT(DISTINCT ?o) AS ?n) WHERE { ?x <p> ?o } GROUP BY ?x`},
	} {
		if key(pair[0]) != key(pair[1]) {
			t.Errorf("renamed queries differ in result key:\n%s\n%s", pair[0], pair[1])
		}
	}
}

// TestResultKeyOutputNames: the result key must include the actual
// output column names (they are the Row map keys a client sees), while
// renaming a non-projected variable keeps the key shared.
func TestResultKeyOutputNames(t *testing.T) {
	key := func(src string) string {
		s, c, out := shapeOf(mustParse(t, src))
		return string(appendResultKey(nil, s, out, c))
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

// TestPlanCacheLRUAndEpoch: capacity eviction, and invalidation once
// the store has drifted by a tenth from the count a plan was priced at.
func TestPlanCacheLRUAndEpoch(t *testing.T) {
	c := newPlanCache(2)
	c.put("s1", 0, 2, 70, []int{1, 0}, []stepHint{hintNone, hintMerge}, []float64{3, 1})
	c.put("s2", 0, 1, 70, []int{0}, []stepHint{hintNone}, []float64{5})
	if order, hints, ests, ok := c.get("s1", 0, 2, 76); !ok || len(order) != 2 || hints[1] != hintMerge || ests[0] != 3 {
		t.Fatalf("get s1 = %v %v %v %v", order, hints, ests, ok)
	}
	// s2 is now least-recent; inserting s3 evicts it.
	c.put("s3", 0, 1, 70, []int{0}, []stepHint{hintNone}, []float64{5})
	if _, _, _, ok := c.get("s2", 0, 1, 70); ok {
		t.Fatal("s2 survived past capacity")
	}
	if entries, capacity, evictions := c.snapshot(); entries != 2 || capacity != 2 || evictions != 1 {
		t.Fatalf("snapshot = %d/%d evictions %d", entries, capacity, evictions)
	}
	// A store a tenth larger than the priced count refuses (and drops)
	// the entry.
	if _, _, _, ok := c.get("s1", 0, 2, 77); ok {
		t.Fatal("drifted plan served")
	}
	if _, _, _, ok := c.get("s1", 0, 2, 70); ok {
		t.Fatal("drifted entry not dropped")
	}
	// Wrong pattern count (defensive collision guard) refuses.
	if _, _, _, ok := c.get("s3", 0, 2, 70); ok {
		t.Fatal("mismatched pattern count served")
	}
}

// TestResultCacheEpochAndBytes: epoch purge-on-write, byte-cap
// eviction, and isolation of served copies from the cached entry.
func TestResultCacheEpochAndBytes(t *testing.T) {
	d := dictionary.New()
	vars := []string{"x"}
	mk := func(n int) *Result {
		r := &Result{Vars: vars, n: n}
		for i := 0; i < n; i++ {
			r.ids = append(r.ids, d.Encode(rdf.NewLiteral(fmt.Sprint(i))))
		}
		snap := d.Snapshot()
		r.terms = snap.View()
		return r
	}
	c := newResultCache(4096)
	small := mk(3)
	c.put([]byte("k1"), "e1", d, small)
	if got, ok := c.get([]byte("k1"), "e1", d, vars); !ok || got.Len() != 3 || got.At(2, 0).Value != "2" {
		t.Fatalf("get = %v %v", got, ok)
	}
	if _, ok := c.get([]byte("k1"), "e2", d, vars); ok {
		t.Fatal("stale epoch served")
	}
	if _, ok := c.get([]byte("k1"), "e1", dictionary.New(), vars); ok {
		t.Fatal("served through another dictionary")
	}
	// New-epoch put purges the old resident set and counts churn.
	c.put([]byte("k2"), "e2", d, small)
	if _, ok := c.get([]byte("k1"), "e2", d, vars); ok {
		t.Fatal("entry survived the epoch purge")
	}
	if _, _, _, _, churn := c.snapshot(); churn != 1 {
		t.Fatalf("churn = %d, want 1", churn)
	}

	// Byte-cap eviction: entries larger than a segment may be are
	// refused, and filling past the cap evicts the oldest segment.
	huge := mk(1000)
	c.put([]byte("huge"), "e2", d, huge)
	if _, ok := c.get([]byte("huge"), "e2", d, vars); ok {
		t.Fatal("over-cap entry cached")
	}
	for i := 0; i < 64; i++ {
		r := mk(12)
		c.put([]byte(fmt.Sprintf("fill%d", i)), "e2", d, r)
	}
	if _, bytes, capBytes, evictions, _ := c.snapshot(); bytes > capBytes || evictions == 0 {
		t.Fatalf("bytes %d cap %d evictions %d", bytes, capBytes, evictions)
	}

	// A served result is a private header over the shared cells: sorting
	// it or filling its Rows view must not disturb the cached body.
	r := &Result{Vars: vars, n: 2, ids: []core.ID{d.Encode(rdf.NewLiteral("b")), d.Encode(rdf.NewLiteral("a"))}}
	snap := d.Snapshot()
	r.terms = snap.View()
	c.put([]byte("sorted"), "e2", d, r)
	got, _ := c.get([]byte("sorted"), "e2", d, vars)
	got.fillRows()
	got.SortRows()
	if got.At(0, 0).Value != "a" || got.Rows[0]["x"].Value != "a" {
		t.Fatalf("SortRows left %v / %v first", got.At(0, 0), got.Rows[0])
	}
	again, _ := c.get([]byte("sorted"), "e2", d, vars)
	if again.At(0, 0).Value != "b" || again.Rows != nil {
		t.Fatal("mutating a served result corrupted the cached entry")
	}
}

// modelAnswer is the answer the result-cache model caches for key k at
// epoch e: a pure function of both, with cells, computed terms and ASK
// flags that vary in size and kind.
func modelAnswer(k, e int) *Result {
	rng := rand.New(rand.NewSource(int64(k)*7919 + int64(e)))
	r := &Result{}
	switch rng.Intn(8) {
	case 0:
		r.IsAsk, r.Answer = true, rng.Intn(2) == 0
		return r
	case 1:
		r.n = rng.Intn(3) // rows without columns
		return r
	}
	cols := 1 + rng.Intn(3)
	r.n = rng.Intn(40)
	for i := 0; i < r.n*cols; i++ {
		if rng.Intn(5) == 0 {
			r.ids = append(r.ids, computedID|core.ID(len(r.computed)))
			r.computed = append(r.computed, rdf.Term{Kind: rdf.TermKind(rng.Intn(3)), Value: strings.Repeat("v", rng.Intn(20))})
		} else {
			r.ids = append(r.ids, core.ID(1+rng.Intn(1000)))
		}
	}
	return r
}

func modelKey(k int) []byte { return []byte(fmt.Sprintf("key-%d-%s", k, strings.Repeat("k", k%37))) }

func sameAnswer(got, want *Result) bool {
	return got.n == want.n && got.IsAsk == want.IsAsk && got.Answer == want.Answer &&
		slices.Equal(got.ids, want.ids) && slices.Equal(got.computed, want.computed)
}

// TestResultCacheModel drives seeded random get/put/epoch/capacity
// sequences against a plain-map reference of which keys were put at the
// current epoch: every hit returns that key's answer for that epoch —
// cells, computed terms, row count and ASK flags — no hit outlives its
// epoch, a put that fits is served at once, and the cache never holds
// more bytes than its cap.
func TestResultCacheModel(t *testing.T) {
	d := dictionary.New()
	vars := []string{"a", "b"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		caps := []int64{2 << 10, 4 << 10, 16 << 10, 64 << 10, 1 << 20}
		c := newResultCache(caps[rng.Intn(len(caps))])
		if seed%2 == 0 {
			c.gen = 1<<(64-rcGenShift) - 3 // the index generation wraps
		}
		// cached holds the keys put at the current epoch; resident those
		// put at the epoch of the last put, which the cache still holds
		// until a put at a newer one purges them.
		epoch, cached, resident, putEpoch := 0, map[int]bool{}, map[int]bool{}, 0
		hits := 0
		for op := 0; op < 4000; op++ {
			k := rng.Intn(200)
			switch x := rng.Intn(100); {
			case x < 45:
				got, ok := c.get(modelKey(k), strconv.Itoa(epoch), d, vars)
				if ok {
					hits++
					if !cached[k] {
						t.Fatalf("seed %d op %d: hit on key %d, never put at epoch %d", seed, op, k, epoch)
					}
					if !sameAnswer(got, modelAnswer(k, epoch)) || !slices.Equal(got.Vars, vars) {
						t.Fatalf("seed %d op %d: key %d served a wrong answer", seed, op, k)
					}
				}
			case x < 50:
				// An epoch older than the last put's is superseded.
				if putEpoch > 0 {
					if _, ok := c.get(modelKey(k), strconv.Itoa(rng.Intn(putEpoch)), d, vars); ok {
						t.Fatalf("seed %d op %d: stale epoch served", seed, op)
					}
				}
			case x < 97:
				key, res := modelKey(k), modelAnswer(k, epoch)
				c.put(key, strconv.Itoa(epoch), d, res)
				if putEpoch != epoch {
					resident, putEpoch = map[int]bool{}, epoch
				}
				cached[k], resident[k] = true, true
				if _, ok := c.get(key, strconv.Itoa(epoch), d, vars); !ok &&
					recordWords(key, res) <= c.segCap && len(c.slots)/2 < c.maxSlots {
					t.Fatalf("seed %d op %d: a put of %d words into a %d-word segment is not served",
						seed, op, recordWords(key, res), c.segCap)
				}
			case x < 99:
				epoch++
				cached = map[int]bool{}
			default:
				c = newResultCache(caps[rng.Intn(len(caps))])
				cached, resident = map[int]bool{}, map[int]bool{}
			}
			if entries, bytes, capBytes, _, _ := c.snapshot(); bytes > capBytes || entries > len(resident) {
				t.Fatalf("seed %d op %d: %d entries in %d bytes, cap %d, %d keys put", seed, op, entries, bytes, capBytes, len(resident))
			}
		}
		if hits == 0 {
			t.Fatalf("seed %d: no hits", seed)
		}
	}
}

// TestResultCacheConcurrentEviction: readers hold zero-copy hits and
// read their cells while writers fill a small cache past its cap, so
// segments are evicted and epochs purged under them. Run under -race.
func TestResultCacheConcurrentEviction(t *testing.T) {
	d := dictionary.New()
	c := newResultCache(16 << 10)
	var epoch atomic.Int64
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 3000; i++ {
				e := int(epoch.Load())
				if rng.Intn(200) == 0 {
					e = int(epoch.Add(1))
				}
				k := rng.Intn(300)
				c.put(modelKey(k), strconv.Itoa(e), d, modelAnswer(k, e))
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(100 + int64(r)))
			type held struct {
				res  *Result
				k, e int
			}
			var hold []held
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, k := int(epoch.Load()), rng.Intn(300)
				if res, ok := c.get(modelKey(k), strconv.Itoa(e), d, nil); ok {
					hold = append(hold, held{res, k, e})
				}
				if len(hold) == 32 {
					for _, h := range hold {
						if !sameAnswer(h.res, modelAnswer(h.k, h.e)) {
							t.Errorf("key %d epoch %d: a held hit changed under eviction", h.k, h.e)
							return
						}
					}
					hold = hold[:0]
				}
			}
		}(r)
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if _, _, _, evictions, churn := c.snapshot(); evictions == 0 || churn == 0 {
		t.Fatalf("evictions %d, epoch churn %d: nothing was dropped under the readers", evictions, churn)
	}
}

// TestPointerFreeCacheFootprint: a result cache full of lookup-sized
// answers is a handful of heap objects, a hit allocates only its Result
// header, and a put into a segment with room allocates nothing.
func TestPointerFreeCacheFootprint(t *testing.T) {
	d := dictionary.New()
	vars := []string{"x", "y"}
	res := &Result{Vars: vars, n: 3, ids: []core.ID{11, 12, 13, 14, 15, 16}}
	key := func(dst []byte, i int) []byte {
		dst = append(dst[:0], "sel ?0 ?1 where { $0 <http://swat.cse.lehigh.edu/onto/univ-bench.owl#takesCourse> ?1 } "...)
		return strconv.AppendInt(dst, int64(i), 10)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapObjects
	c := newResultCache(32 << 20)
	var kb []byte
	const n = 50000
	for i := 0; i < n; i++ {
		kb = key(kb, i)
		c.put(kb, "e1", d, res)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	entries, _, _, _, _ := c.snapshot()
	if entries != n {
		t.Fatalf("%d of %d entries resident", entries, n)
	}
	grew := int64(ms.HeapObjects) - int64(before)
	t.Logf("%d answers: %d heap objects", n, grew)
	if grew > 100 {
		t.Fatalf("a cache of %d answers holds %d heap objects, want at most 100", n, grew)
	}

	kb = key(kb, 7)
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := c.get(kb, "e1", d, vars); !ok {
			t.Fatal("miss")
		}
	}); allocs > 1 {
		t.Fatalf("a hit allocates %.1f objects, want at most 1", allocs)
	}
	i := n
	if allocs := testing.AllocsPerRun(100, func() {
		i++
		kb = key(kb, i)
		c.put(kb, "e1", d, res)
	}); allocs > 0 {
		t.Fatalf("a put allocates %.1f objects, want none", allocs)
	}
	runtime.KeepAlive(c)
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
