package sparql

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"hexastore/internal/graph"
)

// setChunkRows shrinks the pipeline's chunk so small fixtures span many
// chunks — and so several lanes — restoring the constant afterwards.
func setChunkRows(t testing.TB, n int) {
	t.Helper()
	old := chunkRows
	chunkRows = n
	t.Cleanup(func() { chunkRows = old })
}

// joinFixture builds a memory/baseline pair with enough fan-out that
// multi-pattern joins produce thousands of intermediate rows.
func joinFixture() (mem, base graph.Graph) {
	rng := rand.New(rand.NewSource(21))
	var triples [][3]string
	for i := 0; i < 800; i++ {
		s := fmt.Sprintf("person%d", i)
		triples = append(triples, [3]string{s, "knows", fmt.Sprintf("person%d", rng.Intn(800))})
		triples = append(triples, [3]string{s, "knows", fmt.Sprintf("person%d", rng.Intn(800))})
		triples = append(triples, [3]string{s, "likes", fmt.Sprintf("thing%d", rng.Intn(60))})
		if i%3 == 0 {
			triples = append(triples, [3]string{s, "age", fmt.Sprintf("a%d", rng.Intn(90))})
		}
	}
	return loadPair(triples)
}

// TestWorkersInvariance runs join-heavy queries at worker counts 1, 2
// and 8 over the merge-join engine fed by the store's own sorted lists
// (memory) and by lists graph.SortedOf sorts from Match output
// (baseline) and requires bit-identical results — same rows in
// the same order — because chunks are emitted in seed order whichever
// lane ran them. Exercises expansion steps (new variables), multi-column
// probe steps (?x knows ?y . ?y knows ?x), OPTIONAL, DISTINCT, GROUP BY,
// ORDER BY and LIMIT (each chunk's cap on the final step).
func TestWorkersInvariance(t *testing.T) {
	setChunkRows(t, 4)
	mem, base := joinFixture()
	queries := []string{
		`SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c }`,
		`SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c . ?c <knows> ?a }`,
		`SELECT ?a ?b WHERE { ?a <knows> ?b . ?b <knows> ?a }`,
		`SELECT ?a ?t WHERE { ?a <knows> ?b . ?b <likes> ?t }`,
		`SELECT DISTINCT ?t WHERE { ?a <knows> ?b . ?b <likes> ?t }`,
		`SELECT ?a ?g WHERE { ?a <knows> ?b . OPTIONAL { ?b <age> ?g } }`,
		`SELECT ?t (COUNT(?a) AS ?n) WHERE { ?a <knows> ?b . ?b <likes> ?t } GROUP BY ?t`,
		`SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c } ORDER BY ?a ?c LIMIT 40`,
		`SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c } LIMIT 25`,
		`ASK { ?a <knows> ?b . ?b <knows> ?a }`,
		`SELECT ?a ?c WHERE { ?a <knows> ?b . ?b <knows> ?c . FILTER (?a != ?c) }`,
	}
	for _, src := range queries {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		for _, g := range []struct {
			name string
			src  graph.Graph
		}{{"memory", mem}, {"baseline", base}} {
			want, err := evalWorkers(g.src, q, 1)
			if err != nil {
				t.Fatalf("%s workers=1 %q: %v", g.name, src, err)
			}
			for _, workers := range []int{2, 8} {
				got, err := evalWorkers(g.src, q, workers)
				if err != nil {
					t.Fatalf("%s workers=%d %q: %v", g.name, workers, src, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s workers=%d %q: result differs from sequential (rows %d vs %d)",
						g.name, workers, src, len(got.Rows), len(want.Rows))
				}
			}
		}
	}
}

// TestWorkersInvarianceUnionsAndRepeats covers the remaining step
// shapes across lanes: union branches sharing one evaluator,
// repeated variables inside a single pattern (shared output slot), and
// a two-free-position expansion against a bound column.
func TestWorkersInvarianceUnionsAndRepeats(t *testing.T) {
	setChunkRows(t, 4)
	mem, base := joinFixture()
	queries := []string{
		`SELECT ?a ?x ?y WHERE { ?a <knows> ?b . ?b ?x ?y }`,
		`SELECT ?a WHERE { ?a <knows> ?b . ?b <knows> ?b }`,
		`SELECT ?a ?c WHERE { { ?a <knows> ?c } UNION { ?a <likes> ?c } }`,
		`SELECT ?a ?c WHERE { ?a <knows> ?b . { ?b <knows> ?c } UNION { ?b <likes> ?c } }`,
	}
	for _, src := range queries {
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		for _, g := range []struct {
			name string
			src  graph.Graph
		}{{"memory", mem}, {"baseline", base}} {
			want, err := evalWorkers(g.src, q, 1)
			if err != nil {
				t.Fatalf("%s workers=1 %q: %v", g.name, src, err)
			}
			for _, workers := range []int{2, 8} {
				got, err := evalWorkers(g.src, q, workers)
				if err != nil {
					t.Fatalf("%s workers=%d %q: %v", g.name, workers, src, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s workers=%d %q: result differs from sequential", g.name, workers, src)
				}
			}
		}
	}
}

func TestMaxWorkersSetting(t *testing.T) {
	defer SetMaxWorkers(0)
	SetMaxWorkers(3)
	if got := MaxWorkers(); got != 3 {
		t.Errorf("MaxWorkers = %d, want 3", got)
	}
	SetMaxWorkers(0)
	if got := MaxWorkers(); got < 1 {
		t.Errorf("MaxWorkers default = %d, want >= 1", got)
	}
}
