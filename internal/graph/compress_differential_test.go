package graph_test

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
	"hexastore/internal/triplestore"
)

// randTriples generates n random triples over a small universe, so
// terminal lists get real lengths and patterns hit often.
func randTriples(rng *rand.Rand, n int) []rdf.Triple {
	out := make([]rdf.Triple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, rdf.T(
			ex(fmt.Sprintf("s%d", rng.Intn(25))),
			ex(fmt.Sprintf("p%d", rng.Intn(6))),
			ex(fmt.Sprintf("o%d", rng.Intn(30))),
		))
	}
	return out
}

// compressionQueries is the query mix the packed layouts and their
// references must agree on: merge-intersect steps, expansions, repeated
// variables, DISTINCT, OPTIONAL, aggregation and full scans.
func compressionQueries(rng *rand.Rand) []string {
	c := func(n int) string { return fmt.Sprintf("<http://ex/%s%d>", "s", rng.Intn(25)) }
	return []string{
		`SELECT ?s ?p ?o WHERE { ?s ?p ?o }`,
		`SELECT ?s WHERE { ?s <http://ex/p0> ?o . ?o <http://ex/p1> ?x }`,
		`SELECT ?a ?b WHERE { ?a <http://ex/p2> ?b . ?b <http://ex/p2> ?a }`,
		`SELECT DISTINCT ?o WHERE { ?s <http://ex/p3> ?o }`,
		`SELECT ?s ?x WHERE { ?s <http://ex/p0> ?x OPTIONAL { ?x <http://ex/p4> ?y } }`,
		`SELECT ?p (COUNT(?o) AS ?n) WHERE { ` + c(25) + ` ?p ?o } GROUP BY ?p`,
		`ASK { ` + c(25) + ` ?p ?o }`,
		`SELECT ?x WHERE { ?x ?p ?x }`,
		`SELECT ?s WHERE { ?s <http://ex/p1> <http://ex/o3> . ?s <http://ex/p0> ?o } LIMIT 7`,
	}
}

// compareAll evaluates each query on every graph and requires
// identical canonical results.
func compareAll(t *testing.T, gs map[string]graph.Graph, queries []string, tag string) {
	t.Helper()
	for _, q := range queries {
		var refName, refCanon string
		for name, g := range gs {
			res, err := sparql.Exec(g, q)
			if err != nil {
				t.Fatalf("%s: %s: query %q: %v", tag, name, q, err)
			}
			got := canon(res)
			if refName == "" {
				refName, refCanon = name, got
				continue
			}
			if got != refCanon {
				t.Fatalf("%s: %s disagrees with %s on %q:\n%s\nvs\n%s", tag, name, refName, q, got, refCanon)
			}
		}
	}
}

// TestCompressionDifferentialMemory asserts the packed memory store
// answers every query like the flat triplestore baseline — sealed, and
// behind a delta overlay before and after SPARQL UPDATEs, which the
// sealed store refuses.
func TestCompressionDifferentialMemory(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		triples := randTriples(rng, 400)

		b := core.NewBuilder(nil)
		for _, tr := range triples {
			b.AddTriple(tr)
		}
		sealed := graph.Memory(b.BuildParallel(1 + int(seed)%3))
		ov, err := delta.New(sealed, delta.Options{CompactThreshold: 8})
		if err != nil {
			t.Fatal(err)
		}
		base := graph.Baseline(triplestore.New(nil))
		for _, tr := range triples {
			if _, err := graph.AddTriple(base, tr); err != nil {
				t.Fatal(err)
			}
		}
		gs := map[string]graph.Graph{"sealed": sealed, "overlay": ov, "baseline": base}
		queries := compressionQueries(rng)
		compareAll(t, gs, queries, fmt.Sprintf("seed %d pre-update", seed))

		// Random UPDATE batch applied to the writable graphs; the small
		// threshold has the overlay patch new mains while it lands.
		ins := randTriples(rng, 30)
		del := triples[:20]
		update := "INSERT DATA {"
		for _, tr := range ins {
			update += fmt.Sprintf(" %s %s %s .", tr.Subject, tr.Predicate, tr.Object)
		}
		update += " }; DELETE DATA {"
		for _, tr := range del {
			update += fmt.Sprintf(" %s %s %s .", tr.Subject, tr.Predicate, tr.Object)
		}
		update += " }"
		if _, err := sparql.ExecUpdate(sealed, update); !errors.Is(err, graph.ErrReadOnly) {
			t.Fatalf("seed %d: the sealed store took an update: %v", seed, err)
		}
		delete(gs, "sealed")
		for name, g := range gs {
			if _, err := sparql.ExecUpdate(g, update); err != nil {
				t.Fatalf("seed %d: %s: update: %v", seed, name, err)
			}
		}
		compareAll(t, gs, queries, fmt.Sprintf("seed %d post-update", seed))
	}
}

// TestCompressionDifferentialDisk asserts compressed and raw B+-tree
// leaves hold the same graph: bulk load, then random in-place
// mutations (re-encodes and leaf bursts on the compressed side),
// integrity checks, and query equivalence.
func TestCompressionDifferentialDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	triples := randTriples(rng, 600)

	stores := map[string]*disk.Store{}
	for name, unc := range map[string]bool{"disk-compressed": false, "disk-raw": true} {
		ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 32, Uncompressed: unc})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		var encoded [][3]graph.ID
		for _, tr := range triples {
			s, p, o := ds.Dictionary().EncodeTriple(tr)
			encoded = append(encoded, [3]graph.ID{s, p, o})
		}
		if err := ds.BulkLoad(encoded); err != nil {
			t.Fatal(err)
		}
		stores[name] = ds
	}

	gs := map[string]graph.Graph{
		"disk-compressed": graph.Disk(stores["disk-compressed"]),
		"disk-raw":        graph.Disk(stores["disk-raw"]),
	}
	queries := compressionQueries(rng)
	compareAll(t, gs, queries, "disk pre-mutation")

	// Random mutations through the graph API: both stores must agree
	// on every verdict.
	for i := 0; i < 300; i++ {
		tr := randTriples(rng, 1)[0]
		del := rng.Intn(2) == 0
		var want bool
		for j, name := range []string{"disk-compressed", "disk-raw"} {
			var changed bool
			var err error
			if del {
				changed, err = graph.RemoveTriple(gs[name], tr)
			} else {
				changed, err = graph.AddTriple(gs[name], tr)
			}
			if err != nil {
				t.Fatalf("%s: mutation %d: %v", name, i, err)
			}
			if j == 0 {
				want = changed
			} else if changed != want {
				t.Fatalf("mutation %d (%v del=%v): verdicts differ", i, tr, del)
			}
		}
	}
	for name, ds := range stores {
		if err := ds.CheckIntegrity(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	compareAll(t, gs, queries, "disk post-mutation")
}

// TestCompressionDifferentialOverlay asserts a delta overlay over a
// packed memory main agrees with one over the flat triplestore baseline
// through batched updates and explicit compactions, each of which leaves
// the first with a new packed main.
func TestCompressionDifferentialOverlay(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	triples := randTriples(rng, 400)

	b := core.NewBuilder(nil)
	for _, tr := range triples {
		b.AddTriple(tr)
	}
	mk := func(main graph.Graph) *delta.Overlay {
		ov, err := delta.New(main, delta.Options{CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ov.Close() })
		return ov
	}
	ovC := mk(graph.Memory(b.BuildParallel(2)))
	baseline := graph.Baseline(triplestore.New(nil))
	for _, tr := range triples {
		if _, err := graph.AddTriple(baseline, tr); err != nil {
			t.Fatal(err)
		}
	}
	ovR := mk(baseline)
	gs := map[string]graph.Graph{"overlay-packed": ovC, "overlay-baseline": ovR}
	queries := compressionQueries(rng)
	compareAll(t, gs, queries, "overlay initial")

	for round := 0; round < 4; round++ {
		ops := make([]graph.TripleOp, 0, 60)
		for i := 0; i < 60; i++ {
			ops = append(ops, graph.TripleOp{Del: rng.Intn(3) == 0, T: randTriples(rng, 1)[0]})
		}
		insC, delC, err := ovC.ApplyTriples(ops)
		if err != nil {
			t.Fatal(err)
		}
		insR, delR, err := ovR.ApplyTriples(ops)
		if err != nil {
			t.Fatal(err)
		}
		if insC != insR || delC != delR {
			t.Fatalf("round %d: batch counts differ: (%d,%d) vs (%d,%d)", round, insC, delC, insR, delR)
		}
		compareAll(t, gs, queries, fmt.Sprintf("overlay round %d pre-compact", round))
		if round%2 == 1 {
			before := ovC.Main()
			if err := ovC.Compact(); err != nil {
				t.Fatal(err)
			}
			if st, ok := graph.Unwrap(ovC.Main()).(*core.Store); !ok || ovC.Main() == before || st.Len() != ovC.Len() {
				t.Fatal("compaction did not leave the overlay a new packed main holding its triples")
			}
			compareAll(t, gs, queries, fmt.Sprintf("overlay round %d post-compact", round))
		}
	}
}
