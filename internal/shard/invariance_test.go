package shard_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/shard"
	"hexastore/internal/sparql"
)

// canon renders a result set in a backend-independent canonical form
// (same shape as the graph package's differential suite).
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

// invarianceBackends returns the single-store reference plus clusters at
// shards=1/2/8 on the requested backend, all loaded identically.
func invarianceBackends(t *testing.T, onDisk bool, triples []rdf.Triple) map[string]graph.Graph {
	t.Helper()
	single, err := delta.New(graph.Memory(core.New()), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gs := map[string]graph.Graph{"single": single}
	for _, n := range []int{1, 2, 8} {
		cfg := shard.Config{Shards: n}
		if onDisk {
			cfg.Dir = t.TempDir()
			cfg.CacheSize = 64
		}
		c, err := shard.OpenCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		gs[fmt.Sprintf("shards=%d", n)] = c
	}
	for name, g := range gs {
		for _, tr := range triples {
			if _, err := graph.AddTriple(g, tr); err != nil {
				t.Fatalf("%s: AddTriple: %v", name, err)
			}
		}
	}
	return gs
}

var invarianceQueries = []string{
	`PREFIX ex: <http://ex/> SELECT ?who WHERE { ex:s1 ex:p1 ?who }`,
	`PREFIX ex: <http://ex/> SELECT ?x ?z WHERE { ?x ex:p1 ?y . ?y ex:p2 ?z }`,
	`PREFIX ex: <http://ex/> SELECT DISTINCT ?s WHERE { ?s ?p ?o }`,
	`PREFIX ex: <http://ex/> SELECT ?p (COUNT(?s) AS ?n) WHERE { ?s ?p ?o } GROUP BY ?p ORDER BY ?p`,
	`PREFIX ex: <http://ex/> SELECT ?s ?o WHERE { ?s ex:p3 ?o } ORDER BY ?s ?o LIMIT 7`,
	`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:p0 ?x . OPTIONAL { ?s ex:p4 ?a } }`,
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { { ?s ex:p5 ?o } UNION { ?s ex:p6 ?o } }`,
	`PREFIX ex: <http://ex/> ASK { ?x ex:p2 ?x }`,
	`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:nosuch ?o }`,
}

// chainTriples builds a multi-predicate graph whose joins cross shard
// boundaries: subjects and objects share the resource space, so a
// two-step chain joins a subject owned by one shard to one owned by
// another.
func chainTriples(n int) []rdf.Triple {
	var ts []rdf.Triple
	for i := 0; i < n; i++ {
		s := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", i))
		o := rdf.NewIRI(fmt.Sprintf("http://ex/s%d", (i*7+3)%n))
		p := rdf.NewIRI(fmt.Sprintf("http://ex/p%d", i%8))
		ts = append(ts, rdf.T(s, p, o))
	}
	return ts
}

// runInvariance requires identical canonical results from every backend
// for every query.
func runInvariance(t *testing.T, gs map[string]graph.Graph, queries []string) {
	t.Helper()
	names := make([]string, 0, len(gs))
	for name := range gs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, src := range queries {
		want, wantFrom := "", ""
		for _, name := range names {
			res, err := sparql.Exec(gs[name], src)
			if err != nil {
				t.Fatalf("%s: Exec(%q): %v", name, src, err)
			}
			got := canon(res)
			if wantFrom == "" {
				want, wantFrom = got, name
				continue
			}
			if got != want {
				t.Errorf("%s differs from %s on %q:\n got:\n%s\nwant:\n%s", name, wantFrom, src, got, want)
			}
		}
	}
}

func TestShardCountInvarianceMemory(t *testing.T) {
	runInvariance(t, invarianceBackends(t, false, chainTriples(300)), invarianceQueries)
}

func TestShardCountInvarianceDisk(t *testing.T) {
	runInvariance(t, invarianceBackends(t, true, chainTriples(300)), invarianceQueries)
}

// TestShardCountInvarianceUpdates applies the same UPDATE sequence to
// every backend and requires identical update counts and identical
// visible state after every step.
func TestShardCountInvarianceUpdates(t *testing.T) {
	steps := []struct {
		update string
		check  string
	}{
		{
			`PREFIX ex: <http://ex/> INSERT DATA { ex:s1 ex:pnew ex:added . ex:fresh ex:pnew ex:added }`,
			`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:pnew ?o }`,
		},
		{
			// Duplicate insert: no-op on every backend.
			`PREFIX ex: <http://ex/> INSERT DATA { ex:s1 ex:pnew ex:added }`,
			`PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`,
		},
		{
			`PREFIX ex: <http://ex/> DELETE DATA { ex:s1 ex:pnew ex:added . ex:missing ex:p ex:o }`,
			`PREFIX ex: <http://ex/> SELECT ?s ?o WHERE { ?s ex:pnew ?o }`,
		},
		{
			`PREFIX ex: <http://ex/> INSERT DATA { ex:e1 ex:p9 ex:e2 } ;
			 DELETE DATA { ex:fresh ex:pnew ex:added } ;`,
			`PREFIX ex: <http://ex/> SELECT ?s WHERE { { ?s ex:p9 ?o } UNION { ?s ex:pnew ?o } }`,
		},
	}
	for _, onDisk := range []bool{false, true} {
		name := "memory"
		if onDisk {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			gs := invarianceBackends(t, onDisk, chainTriples(120))
			names := make([]string, 0, len(gs))
			for n := range gs {
				names = append(names, n)
			}
			sort.Strings(names)
			for i, step := range steps {
				var wantUpd *sparql.UpdateResult
				want := ""
				for _, n := range names {
					upd, err := sparql.ExecUpdate(gs[n], step.update)
					if err != nil {
						t.Fatalf("step %d %s: ExecUpdate: %v", i, n, err)
					}
					res, err := sparql.Exec(gs[n], step.check)
					if err != nil {
						t.Fatalf("step %d %s: Exec: %v", i, n, err)
					}
					got := canon(res)
					if wantUpd == nil {
						wantUpd, want = upd, got
						continue
					}
					if *upd != *wantUpd {
						t.Errorf("step %d %s: update result %+v, want %+v", i, n, upd, wantUpd)
					}
					if got != want {
						t.Errorf("step %d %s differs:\n got:\n%s\nwant:\n%s", i, n, got, want)
					}
				}
			}
			n := gs["single"].Len()
			for name, g := range gs {
				if g.Len() != n {
					t.Errorf("%s: Len = %d, want %d", name, g.Len(), n)
				}
			}
		})
	}
}

// TestShardInvarianceConcurrentWrites runs the query suite on a cluster
// while writers churn an unrelated predicate through atomic batches.
// Queried state never changes, so pinned per-query snapshots must make
// every result identical to the quiescent run — and a concurrently
// pinned count over the churned predicate must always see exactly one
// batch's worth of triples.
func TestShardInvarianceConcurrentWrites(t *testing.T) {
	const k = 6
	c, err := shard.OpenCluster(shard.Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tr := range chainTriples(200) {
		if _, err := graph.AddTriple(c, tr); err != nil {
			t.Fatal(err)
		}
	}
	// Only queries that cannot touch the churned predicate or subjects:
	// wildcard-predicate shapes legitimately observe the churn.
	stableQueries := []string{
		`PREFIX ex: <http://ex/> SELECT ?who WHERE { ex:s1 ex:p1 ?who }`,
		`PREFIX ex: <http://ex/> SELECT ?x ?z WHERE { ?x ex:p1 ?y . ?y ex:p2 ?z }`,
		`PREFIX ex: <http://ex/> SELECT ?s ?o WHERE { ?s ex:p3 ?o } ORDER BY ?s ?o LIMIT 7`,
		`PREFIX ex: <http://ex/> SELECT ?s ?a WHERE { ?s ex:p0 ?x . OPTIONAL { ?s ex:p4 ?a } }`,
		`PREFIX ex: <http://ex/> SELECT ?s WHERE { { ?s ex:p5 ?o } UNION { ?s ex:p6 ?o } }`,
		`PREFIX ex: <http://ex/> ASK { ?x ex:p2 ?x }`,
		`PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:nosuch ?o }`,
	}
	quiescent := make(map[string]string)
	for _, src := range stableQueries {
		res, err := sparql.Exec(c, src)
		if err != nil {
			t.Fatal(err)
		}
		quiescent[src] = canon(res)
	}

	batch := func(gen int) []graph.TripleOp {
		var ops []graph.TripleOp
		for i := 0; i < k; i++ {
			if gen > 0 {
				ops = append(ops, graph.TripleOp{Del: true,
					T: rdf.T(rdf.NewIRI(fmt.Sprintf("http://ex/churn%d_%d", gen-1, i)), rdf.NewIRI("http://ex/churn"), rdf.NewIRI("http://ex/v"))})
			}
			ops = append(ops, graph.TripleOp{
				T: rdf.T(rdf.NewIRI(fmt.Sprintf("http://ex/churn%d_%d", gen, i)), rdf.NewIRI("http://ex/churn"), rdf.NewIRI("http://ex/v"))})
		}
		return ops
	}
	if _, _, err := c.ApplyTriples(batch(0)); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for gen := 1; ; gen++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := c.ApplyTriples(batch(gen)); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	countQ := `PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?n) WHERE { ?s ex:churn ?o }`
	wantCount := fmt.Sprintf("%d", k)
	for round := 0; round < 20; round++ {
		for _, src := range stableQueries {
			res, err := sparql.Exec(c, src)
			if err != nil {
				t.Fatal(err)
			}
			if got := canon(res); got != quiescent[src] {
				t.Fatalf("round %d: %q changed under concurrent writes:\n got:\n%s\nwant:\n%s", round, src, got, quiescent[src])
			}
		}
		res, err := sparql.Exec(c, countQ)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 || res.Rows[0]["n"].Value != wantCount {
			t.Fatalf("round %d: churn count = %v, want %s — torn batch visible", round, res.Rows, wantCount)
		}
	}
}

// TestCrossShardJoinSharedDictionary is the shared-dictionary
// ownership test: a join whose two legs live on different shards only
// works if both shards resolved the shared resource to the same id.
func TestCrossShardJoinSharedDictionary(t *testing.T) {
	c, err := shard.OpenCluster(shard.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Find two subjects on different shards, then link a->mid, mid->b
	// where mid is also a subject (so "mid" exists as subject id on its
	// own shard and as object id on a's shard).
	dict := c.Dictionary()
	var a, mid rdf.Term
	for i := 0; ; i++ {
		t1 := rdf.NewIRI(fmt.Sprintf("http://ex/n%d", i))
		t2 := rdf.NewIRI(fmt.Sprintf("http://ex/n%d", i+1))
		id1, id2 := dict.Encode(t1), dict.Encode(t2)
		if shard.ShardOf(id1, c.NumShards()) != shard.ShardOf(id2, c.NumShards()) {
			a, mid = t1, t2
			break
		}
	}
	b := rdf.NewIRI("http://ex/target")
	knows := rdf.NewIRI("http://ex/knows")
	for _, tr := range []rdf.Triple{rdf.T(a, knows, mid), rdf.T(mid, knows, b)} {
		if _, err := graph.AddTriple(c, tr); err != nil {
			t.Fatal(err)
		}
	}
	res, err := sparql.Exec(c, fmt.Sprintf(
		`SELECT ?z WHERE { <%s> <http://ex/knows> ?y . ?y <http://ex/knows> ?z }`, a.Value))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0]["z"].Value != b.Value {
		t.Fatalf("cross-shard join = %v, want %s", res.Rows, b.Value)
	}
}
