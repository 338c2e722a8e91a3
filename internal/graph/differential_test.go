package graph_test

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
	"hexastore/internal/triplestore"
)

// backends returns one Graph per storage engine, each loaded with the
// same triples. The baseline triples table is the trivially-correct
// reference; memory and disk must agree with it. The memory graph is
// how a memory store takes writes: a delta overlay, here over a store
// bulk-built from the triples.
func backends(t *testing.T, triples []rdf.Triple) map[string]graph.Graph {
	t.Helper()
	ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ds.Close() })
	gs := map[string]graph.Graph{
		"disk":     graph.Disk(ds),
		"baseline": graph.Baseline(triplestore.New(nil)),
	}
	for name, g := range gs {
		for _, tr := range triples {
			if _, err := graph.AddTriple(g, tr); err != nil {
				t.Fatalf("%s: AddTriple(%v): %v", name, tr, err)
			}
		}
	}
	gs["memory"] = overMemory(t, triples)
	return gs
}

// overMemory returns a delta overlay over a store bulk-built from ts.
func overMemory(t *testing.T, ts []rdf.Triple) *delta.Overlay {
	t.Helper()
	b := core.NewBuilder(nil)
	for _, tr := range ts {
		b.AddTriple(tr)
	}
	ov, err := delta.New(graph.Memory(b.Build()), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ov
}

func ex(local string) rdf.Term { return rdf.NewIRI("http://ex/" + local) }

func sampleTriples() []rdf.Triple {
	return []rdf.Triple{
		rdf.T(ex("alice"), ex("knows"), ex("bob")),
		rdf.T(ex("alice"), ex("knows"), ex("carol")),
		rdf.T(ex("bob"), ex("knows"), ex("carol")),
		rdf.T(ex("carol"), ex("knows"), ex("dave")),
		rdf.T(ex("alice"), ex("age"), rdf.NewLiteral("42")),
		rdf.T(ex("bob"), ex("age"), rdf.NewLiteral("7")),
		rdf.T(ex("carol"), ex("age"), rdf.NewLiteral("30")),
		rdf.T(ex("alice"), ex("type"), ex("Person")),
		rdf.T(ex("bob"), ex("type"), ex("Person")),
		rdf.T(ex("carol"), ex("type"), ex("Robot")),
		// Self-loop, for repeated-variable patterns (?x knows ?x).
		rdf.T(ex("dave"), ex("knows"), ex("dave")),
	}
}

// canon renders a result set in a backend-independent canonical form.
func canon(res *sparql.Result) string {
	if res.IsAsk {
		return fmt.Sprintf("ask:%v", res.Answer)
	}
	vars := append([]string(nil), res.Vars...)
	sort.Strings(vars)
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		var sb strings.Builder
		for _, v := range vars {
			if term, ok := row[v]; ok {
				fmt.Fprintf(&sb, "%s=%s;", v, term)
			} else {
				fmt.Fprintf(&sb, "%s=<unbound>;", v)
			}
		}
		lines = append(lines, sb.String())
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestDifferentialSelectAsk runs the same SPARQL queries through
// sparql.Exec over every backend and requires identical solution sets.
func TestDifferentialSelectAsk(t *testing.T) {
	queries := []string{
		`PREFIX ex: <http://ex/> SELECT ?who WHERE { ex:alice ex:knows ?who }`,
		`PREFIX ex: <http://ex/> SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }`,
		`PREFIX ex: <http://ex/> SELECT DISTINCT ?s WHERE { ?s ?p ?o }`,
		`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a . FILTER (?a > 18) }`,
		`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:type ex:Person . OPTIONAL { ?s ex:age ?a } }`,
		`PREFIX ex: <http://ex/> SELECT ?s WHERE { { ?s ex:type ex:Robot } UNION { ?s ex:age "7" } }`,
		`PREFIX ex: <http://ex/> SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?p`,
		`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:knows ?o } ORDER BY ?s LIMIT 2`,
		`PREFIX ex: <http://ex/> ASK { ex:alice ex:knows ex:bob }`,
		`PREFIX ex: <http://ex/> ASK { ex:dave ex:knows ex:alice }`,
	}
	gs := backends(t, sampleTriples())
	for _, src := range queries {
		want := ""
		for _, name := range []string{"baseline", "memory", "disk"} {
			res, err := sparql.Exec(gs[name], src)
			if err != nil {
				t.Fatalf("%s: Exec(%q): %v", name, src, err)
			}
			got := canon(res)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s differs on %q:\n got:\n%s\nwant:\n%s", name, src, got, want)
			}
		}
	}
}

// TestDifferentialRepeatedVars exercises patterns where one variable
// occurs in several positions of a pattern — as a seed pattern, as a
// join step against an already-bound column, and inside OPTIONAL — and
// requires identical solutions from the merge-join engine over every
// backend: the index-backed stores' own sorted lists (memory, disk) and
// the lists graph.SortedOf sorts from the baseline's Match output.
func TestDifferentialRepeatedVars(t *testing.T) {
	queries := []string{
		`PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:knows ?x }`,
		`PREFIX ex: <http://ex/> SELECT ?x ?p WHERE { ?x ?p ?x }`,
		`PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:knows ?y . ?x ex:knows ?x }`,
		`PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:knows ?x . ?x ex:knows ?y }`,
		`PREFIX ex: <http://ex/> SELECT ?x ?a WHERE { ?x ex:knows ?x . OPTIONAL { ?x ex:age ?a } }`,
		`PREFIX ex: <http://ex/> ASK { ?x ex:knows ?x }`,
		`PREFIX ex: <http://ex/> ASK { ?x ex:type ?x }`,
	}
	gs := backends(t, sampleTriples())
	for _, src := range queries {
		want := ""
		for _, name := range []string{"baseline", "memory", "disk"} {
			res, err := sparql.Exec(gs[name], src)
			if err != nil {
				t.Fatalf("%s: Exec(%q): %v", name, src, err)
			}
			got := canon(res)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s differs on %q:\n got:\n%s\nwant:\n%s", name, src, got, want)
			}
		}
	}
}

// TestDifferentialDistinctLimit checks DISTINCT+LIMIT on every backend:
// emission must stop after the requested number of distinct solutions
// (the join hands its rows to emission in bounded pieces and stops at
// the first piece after the limit is met — see internal/sparql/batch.go),
// and each returned row must belong to the full distinct solution set. (Without ORDER BY the
// particular rows chosen are backend-dependent, so the test checks
// count and membership, not exact equality.)
func TestDifferentialDistinctLimit(t *testing.T) {
	full := `PREFIX ex: <http://ex/> SELECT DISTINCT ?s WHERE { ?s ?p ?o }`
	limited := full + ` LIMIT 3`
	gs := backends(t, sampleTriples())
	for _, name := range []string{"baseline", "memory", "disk"} {
		allRes, err := sparql.Exec(gs[name], full)
		if err != nil {
			t.Fatalf("%s: Exec(full): %v", name, err)
		}
		members := map[string]bool{}
		for _, row := range allRes.Rows {
			members[row["s"].String()] = true
		}
		res, err := sparql.Exec(gs[name], limited)
		if err != nil {
			t.Fatalf("%s: Exec(limited): %v", name, err)
		}
		if len(res.Rows) != 3 {
			t.Fatalf("%s: LIMIT 3 returned %d rows", name, len(res.Rows))
		}
		seen := map[string]bool{}
		for _, row := range res.Rows {
			v := row["s"].String()
			if !members[v] {
				t.Errorf("%s: LIMIT row %s not in full distinct set", name, v)
			}
			if seen[v] {
				t.Errorf("%s: duplicate row %s under DISTINCT", name, v)
			}
			seen[v] = true
		}
	}
}

// TestDifferentialOptional stresses OPTIONAL under the batch engine:
// several groups, optional variables in filters, and optional groups
// joining through required columns — identical across all backends.
func TestDifferentialOptional(t *testing.T) {
	queries := []string{
		`PREFIX ex: <http://ex/> SELECT ?s ?a ?w WHERE { ?s ex:type ex:Person . OPTIONAL { ?s ex:age ?a } OPTIONAL { ?s ex:knows ?w } }`,
		`PREFIX ex: <http://ex/> SELECT ?s ?n WHERE { ?s ex:knows ?o . OPTIONAL { ?o ex:age ?n } }`,
		`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:type ex:Person . OPTIONAL { ?s ex:age ?a } FILTER (?a > 10) }`,
		`PREFIX ex: <http://ex/> SELECT DISTINCT ?t ?a WHERE { ?s ex:type ?t . OPTIONAL { ?s ex:age ?a } }`,
		`PREFIX ex: <http://ex/> SELECT ?s (COUNT(?w) AS ?n) WHERE { ?s ex:type ex:Person . OPTIONAL { ?s ex:knows ?w } } GROUP BY ?s`,
	}
	gs := backends(t, sampleTriples())
	for _, src := range queries {
		want := ""
		for _, name := range []string{"baseline", "memory", "disk"} {
			res, err := sparql.Exec(gs[name], src)
			if err != nil {
				t.Fatalf("%s: Exec(%q): %v", name, src, err)
			}
			got := canon(res)
			if want == "" {
				want = got
				continue
			}
			if got != want {
				t.Errorf("%s differs on %q:\n got:\n%s\nwant:\n%s", name, src, got, want)
			}
		}
	}
}

// TestDifferentialPlanner checks the cost-based planner agrees with the
// default evaluator on every backend.
func TestDifferentialPlanner(t *testing.T) {
	src := `PREFIX ex: <http://ex/> SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z . ?x ex:age ?a }`
	q, err := sparql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	gs := backends(t, sampleTriples())
	want := ""
	for _, name := range []string{"baseline", "memory", "disk"} {
		res, err := sparql.NewPlanner(gs[name]).EvalOpts(context.Background(), q, sparql.EvalOptions{})
		if err != nil {
			t.Fatalf("%s: planner EvalOpts: %v", name, err)
		}
		got := canon(res)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Errorf("%s planner differs:\n got:\n%s\nwant:\n%s", name, got, want)
		}
	}
}

// TestDifferentialUpdate applies the same UPDATE sequence to every
// backend and requires identical visible state after every step.
func TestDifferentialUpdate(t *testing.T) {
	steps := []struct {
		update string
		check  string
	}{
		{
			`PREFIX ex: <http://ex/> INSERT DATA { ex:dave ex:knows ex:alice . ex:dave ex:age "19" }`,
			`PREFIX ex: <http://ex/> SELECT ?who WHERE { ex:dave ex:knows ?who }`,
		},
		{
			// Re-inserting an existing triple must be a no-op everywhere.
			`PREFIX ex: <http://ex/> INSERT DATA { ex:dave ex:knows ex:alice }`,
			`PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
		},
		{
			`PREFIX ex: <http://ex/> DELETE DATA { ex:alice ex:knows ex:bob . ex:missing ex:p ex:o }`,
			`PREFIX ex: <http://ex/> SELECT ?who WHERE { ex:alice ex:knows ?who }`,
		},
		{
			// Multi-operation request with ';' separators.
			`PREFIX ex: <http://ex/> INSERT DATA { ex:eve ex:type ex:Person } ;
			 DELETE DATA { ex:carol ex:knows ex:dave } ;`,
			`PREFIX ex: <http://ex/> SELECT ?s WHERE { { ?s ex:type ex:Person } UNION { ?s ex:knows ?o } }`,
		},
	}
	gs := backends(t, sampleTriples())
	for i, step := range steps {
		var wantUpd *sparql.UpdateResult
		want := ""
		for _, name := range []string{"baseline", "memory", "disk"} {
			upd, err := sparql.ExecUpdate(gs[name], step.update)
			if err != nil {
				t.Fatalf("step %d %s: ExecUpdate: %v", i, name, err)
			}
			res, err := sparql.Exec(gs[name], step.check)
			if err != nil {
				t.Fatalf("step %d %s: Exec: %v", i, name, err)
			}
			got := canon(res)
			if want == "" {
				wantUpd, want = upd, got
				continue
			}
			if *upd != *wantUpd {
				t.Errorf("step %d %s: update result %+v, want %+v", i, name, upd, wantUpd)
			}
			if got != want {
				t.Errorf("step %d %s differs:\n got:\n%s\nwant:\n%s", i, name, got, want)
			}
		}
	}
	// All backends must also agree on the final triple count.
	n := gs["baseline"].Len()
	for name, g := range gs {
		if g.Len() != n {
			t.Errorf("%s: Len = %d, want %d", name, g.Len(), n)
		}
	}
}

// TestConcurrentQueryUpdate runs SELECT joins concurrently with
// INSERT/DELETE updates on the memory backend, whose writes land in the
// overlay's delta while queries pin snapshots of it (run with -race to
// enforce that no read shares memory a write changes).
func TestConcurrentQueryUpdate(t *testing.T) {
	g := overMemory(t, sampleTriples())
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			upd := fmt.Sprintf(
				`PREFIX ex: <http://ex/> INSERT DATA { ex:alice ex:knows ex:extra%d }`, i)
			if _, err := sparql.ExecUpdate(g, upd); err != nil {
				t.Error(err)
				return
			}
			del := fmt.Sprintf(
				`PREFIX ex: <http://ex/> DELETE DATA { ex:alice ex:knows ex:extra%d }`, i)
			if _, err := sparql.ExecUpdate(g, del); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	queries := []string{
		`PREFIX ex: <http://ex/> SELECT ?x ?z WHERE { ?x ex:knows ?y . ?y ex:knows ?z }`,
		`PREFIX ex: <http://ex/> SELECT ?who WHERE { ex:alice ex:knows ?who }`,
		`PREFIX ex: <http://ex/> SELECT DISTINCT ?s WHERE { ?s ?p ?o }`,
	}
	for i := 0; ; i++ {
		select {
		case <-done:
			return
		default:
		}
		if _, err := sparql.Exec(g, queries[i%len(queries)]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDifferentialWorkers runs join queries at intra-query worker counts
// 1, 2 and 8 over every backend (the disk engine's sorted accessors run
// one independent B+-tree scan per call, so concurrent workers are safe)
// and requires results identical to the sequential evaluation — not just
// the same solution set, but the same row order, since chunks are
// emitted in seed order whichever worker joined them. The fixture is
// sized so that every seed spans several of the pipeline's chunks.
func TestDifferentialWorkers(t *testing.T) {
	const people = 1500
	var triples []rdf.Triple
	for i := 0; i < people; i++ {
		triples = append(triples,
			rdf.T(ex(fmt.Sprintf("p%d", i)), ex("knows"), ex(fmt.Sprintf("p%d", (i*7+3)%people))),
			rdf.T(ex(fmt.Sprintf("p%d", i)), ex("knows"), ex(fmt.Sprintf("p%d", (i*13+5)%people))),
			rdf.T(ex(fmt.Sprintf("p%d", i)), ex("likes"), ex(fmt.Sprintf("t%d", i%9))))
	}
	queries := []string{
		`PREFIX ex: <http://ex/> SELECT ?a ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c }`,
		`PREFIX ex: <http://ex/> SELECT ?a ?b WHERE { ?a ex:knows ?b . ?b ex:knows ?a }`,
		`PREFIX ex: <http://ex/> SELECT DISTINCT ?t WHERE { ?a ex:knows ?b . ?b ex:likes ?t }`,
		`PREFIX ex: <http://ex/> SELECT ?a ?x ?y WHERE { ?a ex:likes ?t . ?a ?x ?y }`,
	}
	gs := backends(t, triples)
	for _, src := range queries {
		q, err := sparql.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		for _, name := range []string{"baseline", "memory", "disk"} {
			want, err := sparql.EvalOpts(context.Background(), gs[name], q, sparql.EvalOptions{Workers: 1})
			if err != nil {
				t.Fatalf("%s workers=1: %v", name, err)
			}
			for _, workers := range []int{2, 8} {
				got, err := sparql.EvalOpts(context.Background(), gs[name], q, sparql.EvalOptions{Workers: workers})
				if err != nil {
					t.Fatalf("%s workers=%d: %v", name, workers, err)
				}
				if len(got.Rows) != len(want.Rows) {
					t.Fatalf("%s workers=%d %q: %d rows, want %d", name, workers, src, len(got.Rows), len(want.Rows))
				}
				for i := range got.Rows {
					for _, v := range got.Vars {
						if got.Rows[i][v] != want.Rows[i][v] {
							t.Fatalf("%s workers=%d %q: row %d differs", name, workers, src, i)
						}
					}
				}
			}
		}
	}
}

// TestGraphPrimitives exercises the interface methods directly on every
// backend.
func TestGraphPrimitives(t *testing.T) {
	gs := backends(t, sampleTriples())
	for name, g := range gs {
		tr := rdf.T(ex("alice"), ex("knows"), ex("bob"))
		ok, err := graph.HasTriple(g, tr)
		if err != nil || !ok {
			t.Fatalf("%s: HasTriple = %v, %v", name, ok, err)
		}
		changed, err := graph.RemoveTriple(g, tr)
		if err != nil || !changed {
			t.Fatalf("%s: RemoveTriple = %v, %v", name, changed, err)
		}
		if g.Len() != len(sampleTriples())-1 {
			t.Fatalf("%s: Len after remove = %d", name, g.Len())
		}
		n, err := g.Count(graph.None, graph.None, graph.None)
		if err != nil || n != g.Len() {
			t.Fatalf("%s: Count(*) = %d, %v", name, n, err)
		}
		if _, err := graph.AddTriple(g, tr); err != nil {
			t.Fatal(err)
		}
		// DecodeMatch round-trips terms through the dictionary.
		seen := 0
		if err := graph.DecodeMatch(g, graph.None, graph.None, graph.None, func(rdf.Triple) bool {
			seen++
			return true
		}); err != nil {
			t.Fatalf("%s: DecodeMatch: %v", name, err)
		}
		if seen != g.Len() {
			t.Fatalf("%s: DecodeMatch saw %d of %d", name, seen, g.Len())
		}
	}
}

// TestMemoryIsSealed: a bare memory graph refuses writes with
// ErrReadOnly and leaves Len and Epoch as they were, and it is its own
// snapshot.
func TestMemoryIsSealed(t *testing.T) {
	b := core.NewBuilder(nil)
	for _, tr := range sampleTriples() {
		b.AddTriple(tr)
	}
	g := graph.Memory(b.Build())
	n, epoch := g.Len(), graph.EpochOf(g)
	if epoch == "" {
		t.Fatal("a sealed store reports no epoch")
	}
	alice, _ := g.Dictionary().Lookup(ex("alice"))
	knows, _ := g.Dictionary().Lookup(ex("knows"))
	bob, _ := g.Dictionary().Lookup(ex("bob"))
	if _, err := g.Add(bob, knows, alice); !errors.Is(err, graph.ErrReadOnly) {
		t.Fatalf("Add: %v, want ErrReadOnly", err)
	}
	if _, err := g.Remove(alice, knows, bob); !errors.Is(err, graph.ErrReadOnly) {
		t.Fatalf("Remove: %v, want ErrReadOnly", err)
	}
	if _, err := sparql.ExecUpdate(g, `PREFIX ex: <http://ex/> INSERT DATA { ex:bob ex:knows ex:alice }`); !errors.Is(err, graph.ErrReadOnly) {
		t.Fatalf("INSERT DATA: %v, want ErrReadOnly", err)
	}
	if g.Len() != n || graph.EpochOf(g) != epoch {
		t.Fatalf("a refused write changed Len %d → %d or epoch %q → %q", n, g.Len(), epoch, graph.EpochOf(g))
	}
	if graph.Snapshot(g) != g {
		t.Fatal("a sealed memory graph is not its own snapshot")
	}
}

// TestDiskGraphPersistsUpdates ensures UPDATEs applied through the Graph
// interface survive a close/reopen cycle of the disk backend.
func TestDiskGraphPersistsUpdates(t *testing.T) {
	dir := t.TempDir()
	ds, err := disk.Create(dir, disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Disk(ds)
	if _, err := sparql.ExecUpdate(g, `PREFIX ex: <http://ex/> INSERT DATA { ex:a ex:p ex:b }`); err != nil {
		t.Fatal(err)
	}
	if err := graph.Flush(g); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, err := disk.Open(dir, disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	res, err := sparql.Exec(graph.Disk(ds2), `PREFIX ex: <http://ex/> SELECT ?o WHERE { ex:a ex:p ?o }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["o"].Value != "http://ex/b" {
		t.Fatalf("rows after reopen = %v", res.Rows)
	}
}
