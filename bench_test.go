// Benchmarks regenerating every table and figure of the paper's
// evaluation (one Benchmark per figure; README "The paper's query
// figures" maps them to the paper's queries) plus ablations of the
// design choices the paper argues for.
//
// The paper plots response time against growing data prefixes; here each
// figure's benchmark times the three competing stores on a fixed-size
// load (the cmd/hexbench tool produces the full prefix sweeps). Shapes,
// not absolute numbers, are the reproduction target: Hexastore ≤ COVP2 ≤
// COVP1 throughout, with the gaps the paper reports.
package hexastore_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sync"
	"testing"

	"hexastore"
	"hexastore/internal/barton"
	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/idlist"
	"hexastore/internal/lubm"
	"hexastore/internal/queries"
	"hexastore/internal/query"
	"hexastore/internal/rdf"
	"hexastore/internal/server"
	"hexastore/internal/sparql"
	"hexastore/internal/triplestore"
	"hexastore/internal/vp"
)

// Shared fixtures, built once.
var (
	bartonOnce sync.Once
	bartonSt   *queries.Stores
	bartonIDs  queries.BartonIDs

	lubmOnce sync.Once
	lubmSt   *queries.Stores
	lubmIDs  queries.LUBMIDs
)

func bartonFixture(b *testing.B) (*queries.Stores, queries.BartonIDs) {
	b.Helper()
	bartonOnce.Do(func() {
		data := barton.Config{Records: 20_000, Seed: 1}.GenerateAll()
		bartonSt = queries.Load(data)
		bartonIDs = queries.ResolveBarton(bartonSt.Dict)
	})
	return bartonSt, bartonIDs
}

func lubmFixture(b *testing.B) (*queries.Stores, queries.LUBMIDs) {
	b.Helper()
	lubmOnce.Do(func() {
		data := lubm.Config{
			Universities: 5, Seed: 1, DeptsPerUniv: 8,
			UndergradPerDept: 60, GradPerDept: 15, CoursesPerDept: 15,
		}.GenerateAll()
		lubmSt = queries.Load(data)
		lubmIDs = queries.ResolveLUBM(lubmSt.Dict)
	})
	return lubmSt, lubmIDs
}

// run3 benchmarks the three store variants of one figure.
func run3(b *testing.B, hexa, covp1, covp2 func()) {
	b.Run("Hexastore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hexa()
		}
	})
	b.Run("COVP1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			covp1()
		}
	})
	b.Run("COVP2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			covp2()
		}
	})
}

func BenchmarkFig03BartonQ1(b *testing.B) {
	s, ids := bartonFixture(b)
	run3(b,
		func() { queries.BQ1Hexa(s.Hexa, ids) },
		func() { queries.BQ1COVP(s.C1, ids) },
		func() { queries.BQ1COVP(s.C2, ids) })
}

// benchRestricted runs the six series of the 28-property figures.
func benchRestricted(b *testing.B, s *queries.Stores, ids queries.BartonIDs,
	hexa func(props []queries.ID), covp func(st *vp.Store, props []queries.ID)) {
	b.Run("Hexastore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hexa(nil)
		}
	})
	b.Run("COVP1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			covp(s.C1, nil)
		}
	})
	b.Run("COVP2", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			covp(s.C2, nil)
		}
	})
	b.Run("Hexastore_28", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			hexa(ids.Restricted28)
		}
	})
	b.Run("COVP1_28", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			covp(s.C1, ids.Restricted28)
		}
	})
	b.Run("COVP2_28", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			covp(s.C2, ids.Restricted28)
		}
	})
}

func BenchmarkFig04BartonQ2(b *testing.B) {
	s, ids := bartonFixture(b)
	benchRestricted(b, s, ids,
		func(props []queries.ID) { queries.BQ2Hexa(s.Hexa, ids, props) },
		func(st *vp.Store, props []queries.ID) { queries.BQ2COVP(st, ids, props) })
}

func BenchmarkFig05BartonQ3(b *testing.B) {
	s, ids := bartonFixture(b)
	benchRestricted(b, s, ids,
		func(props []queries.ID) { queries.BQ3Hexa(s.Hexa, ids, props) },
		func(st *vp.Store, props []queries.ID) { queries.BQ3COVP(st, ids, props) })
}

func BenchmarkFig06BartonQ4(b *testing.B) {
	s, ids := bartonFixture(b)
	benchRestricted(b, s, ids,
		func(props []queries.ID) { queries.BQ4Hexa(s.Hexa, ids, props) },
		func(st *vp.Store, props []queries.ID) { queries.BQ4COVP(st, ids, props) })
}

func BenchmarkFig07BartonQ5(b *testing.B) {
	s, ids := bartonFixture(b)
	run3(b,
		func() { queries.BQ5Hexa(s.Hexa, ids) },
		func() { queries.BQ5COVP(s.C1, ids) },
		func() { queries.BQ5COVP(s.C2, ids) })
}

func BenchmarkFig08BartonQ6(b *testing.B) {
	s, ids := bartonFixture(b)
	benchRestricted(b, s, ids,
		func(props []queries.ID) { queries.BQ6Hexa(s.Hexa, ids, props) },
		func(st *vp.Store, props []queries.ID) { queries.BQ6COVP(st, ids, props) })
}

func BenchmarkFig09BartonQ7(b *testing.B) {
	s, ids := bartonFixture(b)
	run3(b,
		func() { queries.BQ7Hexa(s.Hexa, ids) },
		func() { queries.BQ7COVP(s.C1, ids) },
		func() { queries.BQ7COVP(s.C2, ids) })
}

func BenchmarkFig10LUBMQ1(b *testing.B) {
	s, ids := lubmFixture(b)
	run3(b,
		func() { queries.RelatedHexa(s.Hexa, ids.Course10) },
		func() { queries.RelatedCOVP(s.C1, ids.Course10) },
		func() { queries.RelatedCOVP(s.C2, ids.Course10) })
}

func BenchmarkFig11LUBMQ2(b *testing.B) {
	s, ids := lubmFixture(b)
	run3(b,
		func() { queries.RelatedHexa(s.Hexa, ids.University0) },
		func() { queries.RelatedCOVP(s.C1, ids.University0) },
		func() { queries.RelatedCOVP(s.C2, ids.University0) })
}

func BenchmarkFig12LUBMQ3(b *testing.B) {
	s, ids := lubmFixture(b)
	run3(b,
		func() { queries.LQ3Hexa(s.Hexa, ids.AssocProf10) },
		func() { queries.LQ3COVP(s.C1, ids.AssocProf10) },
		func() { queries.LQ3COVP(s.C2, ids.AssocProf10) })
}

func BenchmarkFig13LUBMQ4(b *testing.B) {
	s, ids := lubmFixture(b)
	run3(b,
		func() { queries.LQ4Hexa(s.Hexa, ids) },
		func() { queries.LQ4COVP(s.C1, ids) },
		func() { queries.LQ4COVP(s.C2, ids) })
}

func BenchmarkFig14LUBMQ5(b *testing.B) {
	s, ids := lubmFixture(b)
	run3(b,
		func() { queries.LQ5Hexa(s.Hexa, ids) },
		func() { queries.LQ5COVP(s.C1, ids) },
		func() { queries.LQ5COVP(s.C2, ids) })
}

// BenchmarkFig15Memory reports index bytes per store as custom metrics
// (bytes/triple), reproducing the memory-consumption comparison.
func BenchmarkFig15Memory(b *testing.B) {
	for _, panel := range []struct {
		name    string
		fixture func(*testing.B) (*queries.Stores, int)
	}{
		{"Barton", func(b *testing.B) (*queries.Stores, int) {
			s, _ := bartonFixture(b)
			return s, s.Hexa.Len()
		}},
		{"LUBM", func(b *testing.B) (*queries.Stores, int) {
			s, _ := lubmFixture(b)
			return s, s.Hexa.Len()
		}},
	} {
		b.Run(panel.name, func(b *testing.B) {
			s, n := panel.fixture(b)
			for i := 0; i < b.N; i++ {
				_ = s.Hexa.Stats()
			}
			b.ReportMetric(float64(s.Hexa.Stats().SizeBytes())/float64(n), "hexa-B/triple")
			b.ReportMetric(float64(s.C1.Stats().SizeBytes())/float64(n), "covp1-B/triple")
			b.ReportMetric(float64(s.C2.Stats().SizeBytes())/float64(n), "covp2-B/triple")
		})
	}
}

// ---------------------------------------------------------------------
// Ablations: what the sextuple design buys over the alternatives of the
// paper's §2.2 and §4.

// BenchmarkAblationCyclicVsSextuple: Kowari-style cyclic orderings
// ({spo, pos, osp}) cannot provide a sorted subject list per property
// (pso); they must assemble it from the pos index. Sextuple indexing
// reads it directly.
func BenchmarkAblationCyclicVsSextuple(b *testing.B) {
	s, ids := lubmFixture(b)
	p := ids.DegreeProps[0]
	b.Run("SextuplePSO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = psoSubjects(s.Hexa, p)
		}
	})
	b.Run("CyclicViaPOS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var lists []*idlist.List
			s.Hexa.Head(core.POS, p).Range(func(_ core.ID, subjs idlist.View) bool {
				lists = append(lists, idlist.FromSorted(subjs.AppendTo(nil)))
				return true
			})
			_ = idlist.UnionAll(lists)
		}
	})
}

// psoSubjects returns the sorted subjects of property p: the keys of its
// pso vector, read by walking their cursor to the end.
func psoSubjects(st *core.Store, p core.ID) []core.ID {
	c := st.Head(core.PSO, p).Keys()
	out := make([]core.ID, 0, c.Len())
	for k, ok := c.Next(); ok; k, ok = c.Next() {
		out = append(out, k)
	}
	return out
}

// BenchmarkAblationPathExpression: §4.3 — with pso and pos the first
// path join is a merge-join; a subject-sorted-only store must collect
// an unsorted frontier and sort it.
func BenchmarkAblationPathExpression(b *testing.B) {
	s, ids := lubmFixture(b)
	advisorID, _ := s.Dict.Lookup(lubm.PropAdvisor)
	teacherID := ids.TeacherOf
	path := []query.ID{advisorID, teacherID} // advisee → advisor → course
	eng := query.NewEngine(s.Hexa)
	b.Run("HexastorePsoPos", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = eng.PathEndpoints(path)
		}
	})
	b.Run("SubjectSortedOnly", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// COVP1-style: frontier assembled unsorted from the pso
			// table of the first property, deduped and sorted, then
			// joined per hop.
			var fb idlist.Builder
			s.C1.SubjectVec(path[0]).Range(func(_ vp.ID, objs *idlist.List) bool {
				objs.Range(func(o vp.ID) bool {
					fb.Add(o)
					return true
				})
				return true
			})
			frontier := fb.Finish()
			for _, p := range path[1:] {
				sv := s.C1.SubjectVec(p)
				var nb idlist.Builder
				idlist.MergeJoin(frontier, sv.KeyList(), func(node vp.ID) {
					objs, _ := sv.Find(node)
					objs.Range(func(o vp.ID) bool {
						nb.Add(o)
						return true
					})
				})
				frontier = nb.Finish()
			}
		}
	})
}

// BenchmarkUpdateCost: single-triple insert+delete maintains six indices
// in a Hexastore — six delta runs of its overlay — versus one table in
// COVP1 (§4.2's noted deficiency).
func BenchmarkUpdateCost(b *testing.B) {
	data := lubm.Config{Universities: 2, Seed: 3}.GenerateAll()
	s := queries.Load(data)
	b.Run("HexastoreAddRemove", func(b *testing.B) {
		ov, err := delta.New(graph.Memory(s.Hexa), delta.Options{})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			id := core.ID(1_000_000 + i)
			ov.Add(id, 1, id+1)
			ov.Remove(id, 1, id+1)
		}
	})
	b.Run("COVP1AddRemove", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			id := vp.ID(1_000_000 + i)
			s.C1.Add(id, 1, id+1)
			s.C1.Remove(id, 1, id+1)
		}
	})
}

// BenchmarkBulkLoadVsIncremental quantifies the Builder's advantage over
// per-triple writes through the delta overlay.
func BenchmarkBulkLoadVsIncremental(b *testing.B) {
	data := lubm.Config{Universities: 1, Seed: 4}.GenerateAll()
	dict := hexastore.NewDictionary()
	encoded := make([][3]core.ID, len(data))
	for i, t := range data {
		s, p, o := dict.EncodeTriple(t)
		encoded[i] = [3]core.ID{s, p, o}
	}
	b.Run("Builder", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bl := core.NewBuilder(dict)
			for _, t := range encoded {
				bl.Add(t[0], t[1], t[2])
			}
			_ = bl.Build()
		}
	})
	b.Run("IncrementalAdd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ov, err := delta.New(graph.Memory(core.NewShared(dict)), delta.Options{})
			if err != nil {
				b.Fatal(err)
			}
			for _, t := range encoded {
				ov.Add(t[0], t[1], t[2])
			}
		}
	})
}

// BenchmarkBulkLoad times the sort-once index construction sequentially
// and with the full worker budget on a pre-encoded triple set — the
// isolated cost the parallel build pipeline (Builder.BuildParallel)
// attacks. On a multi-core machine the Parallel series should win by
// roughly the core count's share of the sort time; with GOMAXPROCS=1
// the two are within noise (the parallel path degrades to the
// sequential consuming build).
func BenchmarkBulkLoad(b *testing.B) {
	data := lubm.Config{Universities: 3, Seed: 4}.GenerateAll()
	dict := hexastore.NewDictionary()
	encoded := core.EncodeTriples(dict, data, runtime.GOMAXPROCS(0))
	run := func(workers int) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bl := core.NewBuilder(dict)
				for _, t := range encoded {
					bl.Add(t[0], t[1], t[2])
				}
				_ = bl.BuildParallel(workers)
			}
		}
	}
	b.Run("Sequential", run(1))
	b.Run("Parallel", run(runtime.GOMAXPROCS(0)))
}

// BenchmarkParallelEncode times the dictionary-encoding stage of the
// load pipeline at several worker counts over the sharded dictionary.
func BenchmarkParallelEncode(b *testing.B) {
	data := lubm.Config{Universities: 2, Seed: 4}.GenerateAll()
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = core.EncodeTriples(hexastore.NewDictionary(), data, workers)
			}
		})
	}
}

// BenchmarkSPARQLJoinWorkers times the 3-pattern cyclic join with
// intra-query parallelism off and at the full budget. The join's
// binding tables exceed the parallel row threshold, so at GOMAXPROCS>1
// the expansion and probe steps partition across cores.
func BenchmarkSPARQLJoinWorkers(b *testing.B) {
	s, _ := lubmFixture(b)
	q, err := sparql.Parse(`
		SELECT ?student ?course WHERE {
			?student <lubm:advisor> ?prof .
			?prof <lubm:teacherOf> ?course .
			?student <lubm:takesCourse> ?course
		}`)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.Memory(s.Hexa)
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sparql.EvalOpts(context.Background(), g, q, sparql.EvalOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotRestore measures the disk-image future-work feature.
func BenchmarkSnapshotRestore(b *testing.B) {
	s, _ := lubmFixture(b)
	var buf bytes.Buffer
	if err := s.Hexa.Snapshot(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.Run("Snapshot", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var w bytes.Buffer
			if err := s.Hexa.Snapshot(&w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Restore", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.Restore(bytes.NewReader(raw)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSPARQLJoin times the general-purpose BGP evaluator.
func BenchmarkSPARQLJoin(b *testing.B) {
	s, _ := lubmFixture(b)
	q, err := sparql.Parse(`
		SELECT ?student ?course WHERE {
			?student <lubm:advisor> ?prof .
			?prof <lubm:teacherOf> ?course .
			?student <lubm:takesCourse> ?course
		}`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sparql.EvalOpts(context.Background(), graph.Memory(s.Hexa), q, sparql.EvalOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeLargeResult serves the advisor→teacherOf join — the
// largest answer of the end-to-end benchmark's scan-mem rotation —
// through the full HTTP handler with the result cache off: parse, join,
// decode and SPARQL-JSON encoding of every row are on the clock.
// allocs/op over rows/op is the figure the columnar result path is
// judged by.
func BenchmarkServeLargeResult(b *testing.B) {
	s, _ := lubmFixture(b)
	srv := server.New(s.Hexa)
	srv.SetResultCacheBytes(0)
	h := srv.Handler()
	target := "/sparql?query=" + url.QueryEscape(
		`SELECT ?student ?course WHERE { ?student <lubm:advisor> ?prof . ?prof <lubm:teacherOf> ?course }`)
	rows := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		rows = bytes.Count(rec.Body.Bytes(), []byte(`"student":`))
		b.SetBytes(int64(rec.Body.Len()))
	}
	b.ReportMetric(float64(rows), "rows/op")
}

// scanRotation is the end-to-end benchmark's scan-mem rotation
// (benchmark/workloads.go, copied so that neither can change under the
// other): five join shapes, an ORDER BY … LIMIT over a unique key and a
// FILTER between two variables.
var scanRotation = []string{
	`SELECT ?student ?course WHERE { ?student <lubm:advisor> ?prof . ?prof <lubm:teacherOf> ?course }`,
	`SELECT ?student ?course WHERE { ?student <lubm:advisor> ?prof . ?prof <lubm:teacherOf> ?course . ?student <lubm:takesCourse> ?course }`,
	`SELECT DISTINCT ?prof WHERE { ?student <lubm:advisor> ?prof . ?student <lubm:takesCourse> ?course }`,
	`SELECT ?prof (COUNT(?student) AS ?n) WHERE { ?student <lubm:advisor> ?prof } GROUP BY ?prof`,
	`SELECT ?prof (COUNT(DISTINCT ?student) AS ?n) WHERE { ?student <lubm:advisor> ?prof . ?student <lubm:takesCourse> ?course } GROUP BY ?prof`,
	`SELECT ?student ?prof WHERE { ?student <lubm:advisor> ?prof } ORDER BY ?student LIMIT 100`,
	`SELECT ?student ?course WHERE { ?student <lubm:teachingAssistantOf> ?course . ?student <lubm:advisor> ?prof . ?prof <lubm:teacherOf> ?c2 . FILTER (?course != ?c2) }`,
}

// BenchmarkScanRotation serves one round of the scan-mem rotation per
// iteration through the full HTTP handler, result cache off, over a
// store whose advisor seed (~8k rows) spans several of the join
// pipeline's chunks. B/op and allocs/op are the committed allocation
// figure of the chunked executor: what a round of analytic queries
// allocates between parse and the last byte of SPARQL-JSON.
func BenchmarkScanRotation(b *testing.B) {
	bld := core.NewBuilder(nil)
	lubm.Config{
		Universities: 10, Seed: 1, DeptsPerUniv: 15,
		UndergradPerDept: 120, GradPerDept: 30, CoursesPerDept: 20,
	}.Generate(func(t rdf.Triple) bool {
		bld.AddTriple(t)
		return true
	})
	srv := server.New(bld.Build())
	srv.SetResultCacheBytes(0)
	h := srv.Handler()
	targets := make([]string, len(scanRotation))
	for i, q := range scanRotation {
		targets[i] = "/sparql?query=" + url.QueryEscape(q)
	}
	var bytesOut int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bytesOut = 0
		for _, target := range targets {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			bytesOut += int64(rec.Body.Len())
		}
	}
	b.SetBytes(bytesOut)
}

// scanShapeNames names scanRotation's shapes, in its order.
var scanShapeNames = []string{"chain", "triangle", "distinct-semijoin", "group-count", "count-distinct", "order-limit", "filter"}

// BenchmarkScanShapes times each scan-mem shape on its own, in process:
// LUBM-30 with the end-to-end benchmark's per-department population,
// loaded as hexserver loads it (N-Triples through the parallel encoder),
// evaluated by Planner.EvalColumnar on one worker with the result cache
// off. Join, semijoin and group walks are on the clock; JSON and HTTP are
// not.
func BenchmarkScanShapes(b *testing.B) {
	var nt bytes.Buffer
	w := rdf.NewWriter(&nt)
	lubm.Config{
		Universities: 30, Seed: 1, DeptsPerUniv: 15,
		UndergradPerDept: 120, GradPerDept: 30, CoursesPerDept: 20,
		FullPerDept: 3, AssocPerDept: 4, AssistPerDept: 3,
	}.Generate(func(t rdf.Triple) bool { return w.Write(t) == nil })
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	bld := core.NewBuilder(nil)
	if _, err := bld.AddNTriples(&nt, 0); err != nil {
		b.Fatal(err)
	}
	pl := sparql.NewPlanner(graph.Memory(bld.BuildParallel(0)))
	for i, text := range scanRotation {
		q, err := sparql.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(scanShapeNames[i], func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				res, err := pl.EvalColumnar(context.Background(), q, sparql.EvalOptions{Workers: 1, NoResultCache: true})
				if err != nil || res.Len() == 0 {
					b.Fatalf("%d rows, %v", res.Len(), err)
				}
			}
		})
	}
}

// BenchmarkOrderByLimit times ORDER BY … LIMIT over every advisor pair:
// all candidates are visited but only the top 100 are kept (a bounded
// heap on keys parsed once per distinct id), so allocs/op should track
// the limit, not the candidate count.
func BenchmarkOrderByLimit(b *testing.B) {
	s, _ := lubmFixture(b)
	pl := sparql.NewPlanner(graph.Memory(s.Hexa))
	q, err := sparql.Parse(`SELECT ?student ?prof WHERE { ?student <lubm:advisor> ?prof } ORDER BY ?student LIMIT 100`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := pl.EvalColumnar(context.Background(), q, sparql.EvalOptions{})
		if err != nil || res.Len() != 100 {
			b.Fatalf("%d rows, %v", res.Len(), err)
		}
	}
}

// BenchmarkSPARQLJoinCompression times the same cyclic join on the disk
// backend with fixed-width and with delta-packed B+-tree leaves — the
// acceptance tracker for the space/speed trade: the compressed path must
// stay within ~1.2x of raw (block-skipping scans and smaller working sets
// win back most of the varint decode cost). The memory backend has one,
// packed, layout.
func BenchmarkSPARQLJoinCompression(b *testing.B) {
	data := lubm.Config{
		Universities: 5, Seed: 1, DeptsPerUniv: 8,
		UndergradPerDept: 60, GradPerDept: 15, CoursesPerDept: 15,
	}.GenerateAll()
	q, err := sparql.Parse(`
		SELECT ?student ?course WHERE {
			?student <lubm:advisor> ?prof .
			?prof <lubm:teacherOf> ?course .
			?student <lubm:takesCourse> ?course
		}`)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name     string
		compress bool
	}{{"Raw", false}, {"Compressed", true}} {
		b.Run(mode.name, func(b *testing.B) {
			ds, err := disk.Create(b.TempDir(), disk.Options{CacheSize: 4096, Uncompressed: !mode.compress})
			if err != nil {
				b.Fatal(err)
			}
			defer ds.Close()
			if err := ds.BulkLoad(core.EncodeTriples(ds.Dictionary(), data, 1)); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sparql.EvalOpts(context.Background(), graph.Disk(ds), q, sparql.EvalOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// sparqlQueries are the multi-pattern join shapes the evaluator is timed
// on: chained joins, a cyclic join, DISTINCT, GROUP BY and an OPTIONAL
// group over the LUBM schema.
var sparqlQueries = []struct{ id, query string }{
	{"sparql01", `SELECT ?student ?course WHERE {
		?student <lubm:advisor> ?prof .
		?prof <lubm:teacherOf> ?course }`},
	{"sparql02", `SELECT ?student ?course WHERE {
		?student <lubm:advisor> ?prof .
		?prof <lubm:teacherOf> ?course .
		?student <lubm:takesCourse> ?course }`},
	{"sparql03", `SELECT DISTINCT ?prof WHERE {
		?student <lubm:advisor> ?prof .
		?student <lubm:takesCourse> ?course }`},
	{"sparql04", `SELECT ?prof (COUNT(?student) AS ?n) WHERE {
		?student <lubm:advisor> ?prof } GROUP BY ?prof`},
	{"sparql05", `SELECT ?prof (COUNT(DISTINCT ?student) AS ?n) WHERE {
		?student <lubm:advisor> ?prof .
		?student <lubm:takesCourse> ?course } GROUP BY ?prof`},
	{"sparql06", `SELECT ?s ?c ?t WHERE {
		?s <lubm:takesCourse> ?c .
		OPTIONAL { ?s <lubm:teachingAssistantOf> ?t } }`},
}

// BenchmarkSPARQLJoinBackends times the evaluator on sparqlQueries
// across the three Graph backends: the in-memory Hexastore and the disk
// store feed the merge-join engine their own sorted lists (both implement
// graph.SortedSource), the flat baseline lists graph.SortedOf sorts from
// its Match output.
func BenchmarkSPARQLJoinBackends(b *testing.B) {
	s, _ := lubmFixture(b)

	// Disk backend loaded once with the same triples.
	var triples [][3]core.ID
	s.Hexa.Match(core.None, core.None, core.None, func(ts, tp, to core.ID) bool {
		triples = append(triples, [3]core.ID{ts, tp, to})
		return true
	})
	ds, err := disk.Create(b.TempDir(), disk.Options{CacheSize: 1024})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	// Share the dictionary so query constants resolve to the same ids.
	for id := core.ID(1); int(id) <= s.Dict.Len(); id++ {
		ds.Dictionary().Encode(s.Dict.MustDecode(id))
	}
	if err := ds.BulkLoad(triples); err != nil {
		b.Fatal(err)
	}

	base := triplestore.New(s.Dict)
	for _, t := range triples {
		base.Add(t[0], t[1], t[2])
	}

	backends := []struct {
		name string
		g    graph.Graph
	}{
		{"Memory", graph.Memory(s.Hexa)},
		{"Disk", graph.Disk(ds)},
		{"Baseline", graph.Baseline(base)},
	}
	for _, bq := range sparqlQueries {
		q, err := sparql.Parse(bq.query)
		if err != nil {
			b.Fatal(err)
		}
		for _, be := range backends {
			b.Run(bq.id+"/"+be.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sparql.EvalOpts(context.Background(), be.g, q, sparql.EvalOptions{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkDiskLookup times the disk store's two sorted reads on probes
// drawn uniformly from the loaded triples, behind the 512-page (2 MiB)
// pool and the dataset the lookup-disk workload of benchmark/ serves —
// the orderings probed are twice the pool, so a probe pays a descent, a
// miss every other time, and the seek inside one compressed leaf. The probes bind the subject, so each
// returns a handful of ids and the cost of finding them dominates.
func BenchmarkDiskLookup(b *testing.B) {
	var triples [][3]core.ID
	ds, err := disk.Create(b.TempDir(), disk.Options{CacheSize: 512})
	if err != nil {
		b.Fatal(err)
	}
	defer ds.Close()
	lubm.Config{Universities: 30, Seed: 1}.Generate(func(t rdf.Triple) bool {
		s, p, o := ds.Dictionary().EncodeTriple(t)
		triples = append(triples, [3]core.ID{s, p, o})
		return true
	})
	if err := ds.BulkLoad(triples); err != nil {
		b.Fatal(err)
	}
	if err := ds.Flush(); err != nil {
		b.Fatal(err)
	}
	if ds.NumPages() < 6*512 {
		b.Fatalf("store of %d pages: the two orderings probed do not outgrow the pool", ds.NumPages())
	}

	b.Run("SortedList", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var dst []core.ID
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := triples[rng.Intn(len(triples))]
			if i%2 == 0 {
				dst, err = ds.AppendSortedList(dst[:0], t[0], t[1], core.None)
			} else {
				dst, err = ds.AppendSortedList(dst[:0], t[0], core.None, t[2])
			}
			if err != nil || len(dst) == 0 {
				b.Fatalf("probe of %v: %d ids, %v", t, len(dst), err)
			}
		}
	})
	b.Run("SortedPairs", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := triples[rng.Intn(len(triples))]
			n := 0
			if err := ds.SortedPairs(t[0], core.None, core.None, func(_, _ core.ID) bool { n++; return true }); err != nil || n == 0 {
				b.Fatalf("probe of %v: %d pairs, %v", t, n, err)
			}
		}
	})
}

// lubm30 returns the 30-university LUBM dataset the benchmark/ workloads
// serve, dictionary-encoded, with the dictionary it was encoded in.
func lubm30() (*hexastore.Dictionary, [][3]core.ID) {
	dict := hexastore.NewDictionary()
	var triples [][3]core.ID
	lubm.Config{Universities: 30, Seed: 1}.Generate(func(t rdf.Triple) bool {
		s, p, o := dict.EncodeTriple(t)
		triples = append(triples, [3]core.ID{s, p, o})
		return true
	})
	return dict, triples
}

// BenchmarkMemLookup is BenchmarkDiskLookup's twin on the packed memory
// store the lookup-mem and scan-mem workloads serve: 2-bound probes and
// 1-bound walks drawn uniformly from the loaded triples, so each pays
// the arena's directory, one packed vector's header and a Find. The
// zero-copy view probe allocates nothing.
func BenchmarkMemLookup(b *testing.B) {
	dict, triples := lubm30()
	bl := core.NewBuilder(dict)
	bl.AddAll(triples)
	st := bl.Build()

	b.Run("SortedListView", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := triples[rng.Intn(len(triples))]
			v := st.SortedListView(t[0], t[1], core.None)
			if i%2 == 1 {
				v = st.SortedListView(t[0], core.None, t[2])
			}
			if v.Len() == 0 {
				b.Fatalf("probe of %v: no ids", t)
			}
		}
	})
	b.Run("AppendSortedList", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		var dst []core.ID
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := triples[rng.Intn(len(triples))]
			if i%2 == 0 {
				dst = st.AppendSorted(dst[:0], t[0], t[1], core.None)
			} else {
				dst = st.AppendSorted(dst[:0], t[0], core.None, t[2])
			}
			if len(dst) == 0 {
				b.Fatalf("probe of %v: no ids", t)
			}
		}
	})
	b.Run("SortedPairs", func(b *testing.B) {
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			t := triples[rng.Intn(len(triples))]
			n := 0
			st.SortedPairs(t[0], core.None, core.None, func(_, _ core.ID) bool { n++; return true })
			if n == 0 {
				b.Fatalf("probe of %v: no pairs", t)
			}
		}
	})
}

// BenchmarkBuildPacked times the packed build of the pre-encoded
// 30-university dataset with the two workers the benchmark host has, and
// reports what the built index costs: bytes per triple, and (allocs/op)
// how many heap objects the build makes — the index itself is a few
// dozen of them.
func BenchmarkBuildPacked(b *testing.B) {
	dict, triples := lubm30()
	b.ReportAllocs()
	b.ResetTimer()
	var st *core.Store
	for i := 0; i < b.N; i++ {
		bl := core.NewBuilder(dict)
		bl.AddAll(triples)
		st = bl.BuildParallel(2)
	}
	b.ReportMetric(st.IndexStats().BytesPerTriple(), "B/triple")
}

// mixedWorkload drives a fixed mixed read/write workload: 2 reader
// goroutines each run 40 evaluations of the query while 2 writer
// goroutines each commit 40 update batches (5 inserts followed, one
// batch later, by their 5 deletes — so the store returns to its initial
// state and repeats stay comparable). tag namespaces the written
// triples, keeping every invocation's inserts fresh.
func mixedWorkload(query func() error, update func([]graph.TripleOp) error, tag string) error {
	const (
		readers    = 2
		writers    = 2
		queriesPer = 40
		batchesPer = 40
		batchSize  = 5
	)
	var wg sync.WaitGroup
	errCh := make(chan error, readers+writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesPer; i++ {
				if err := query(); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := func(b int, del bool) []graph.TripleOp {
				ops := make([]graph.TripleOp, batchSize)
				for i := range ops {
					ops[i] = graph.TripleOp{Del: del, T: rdf.T(
						rdf.NewIRI(fmt.Sprintf("bench:%s/w%d/b%d/s%d", tag, w, b, i)),
						rdf.NewIRI("lubm:advisor"),
						rdf.NewIRI(fmt.Sprintf("bench:%s/w%d/prof", tag, w)),
					)}
				}
				return ops
			}
			for b := 0; b < batchesPer; b++ {
				if err := update(batch(b, false)); err != nil {
					errCh <- err
					return
				}
				if b > 0 {
					if err := update(batch(b-1, true)); err != nil {
						errCh <- err
						return
					}
				}
			}
			if err := update(batch(batchesPer-1, true)); err != nil {
				errCh <- err
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	return nil
}

// BenchmarkWrite01 runs mixedWorkload (concurrent chain-join SELECTs
// against a stream of INSERT/DELETE batches) through the MVCC delta
// overlay, with and without the group-committed WAL.
func BenchmarkWrite01(b *testing.B) {
	s, _ := lubmFixture(b)
	var triples [][3]core.ID
	s.Hexa.Match(core.None, core.None, core.None, func(ts, tp, to core.ID) bool {
		triples = append(triples, [3]core.ID{ts, tp, to})
		return true
	})
	q, err := sparql.Parse(`SELECT ?student ?course WHERE {
		?student <lubm:advisor> ?prof .
		?prof <lubm:teacherOf> ?course }`)
	if err != nil {
		b.Fatal(err)
	}
	build := func() *core.Store {
		bl := core.NewBuilder(s.Dict)
		bl.AddAll(triples)
		return bl.BuildParallel(runtime.GOMAXPROCS(0))
	}

	for _, withWAL := range []bool{false, true} {
		name := "Overlay"
		if withWAL {
			name = "OverlayWAL"
		}
		b.Run(name, func(b *testing.B) {
			opts := delta.Options{}
			if withWAL {
				opts.WALPath = b.TempDir() + "/bench.wal"
			}
			ov, err := delta.Open(graph.Memory(build()), opts)
			if err != nil {
				b.Fatal(err)
			}
			defer ov.Close()
			pl := sparql.NewPlanner(ov)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				err := mixedWorkload(func() error {
					_, err := pl.EvalOpts(context.Background(), q, sparql.EvalOptions{})
					return err
				}, func(ops []graph.TripleOp) error {
					_, _, err := ov.ApplyTriples(ops)
					return err
				}, fmt.Sprintf("%s%d", name, i))
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// liveFixture is the store the overlay write-path benchmarks run over:
// the 30-university LUBM set of the end-to-end benchmark's mixed-live
// workload (~555k triples), packed, with its courses and its existing
// enrolment triples at hand to build deltas from.
var (
	liveOnce    sync.Once
	liveMain    *core.Store
	liveCourses []rdf.Term
	liveTakes   []rdf.Triple
)

func liveFixture(b *testing.B) *core.Store {
	b.Helper()
	liveOnce.Do(func() {
		bl := core.NewBuilder(nil)
		seen := map[rdf.Term]bool{}
		lubm.Config{Universities: 30, Seed: 1}.Generate(func(t rdf.Triple) bool {
			bl.AddTriple(t)
			if t.Predicate == lubm.PropTakesCourse {
				liveTakes = append(liveTakes, t)
				if !seen[t.Object] {
					seen[t.Object] = true
					liveCourses = append(liveCourses, t.Object)
				}
			}
			return true
		})
		liveMain = bl.BuildParallel(runtime.GOMAXPROCS(0))
	})
	return liveMain
}

// enrolments returns n new takesCourse triples about students numbered
// from first on, who exist nowhere else — the mixed-live writer's rows.
func enrolments(first, n int) []graph.TripleOp {
	rng := rand.New(rand.NewSource(int64(first)))
	ops := make([]graph.TripleOp, n)
	for i := range ops {
		ops[i].T = rdf.T(rdf.NewIRI(fmt.Sprintf("%sBenchStudent%d", lubm.Namespace, first+i)),
			lubm.PropTakesCourse, liveCourses[rng.Intn(len(liveCourses))])
	}
	return ops
}

// BenchmarkOverlayApply times one 8-triple write batch (no WAL, so no
// fsync hides it) against a delta that already holds 0, 4k or 16k rows:
// even iterations insert the batch, odd ones delete it again, so the
// delta keeps its size. A write should cost what the batch touches —
// time and bytes per op that do not grow with the delta it joins.
func BenchmarkOverlayApply(b *testing.B) {
	main := liveFixture(b)
	for _, size := range []int{0, 4 << 10, 16 << 10} {
		b.Run(fmt.Sprintf("delta=%d", size), func(b *testing.B) {
			ov, err := delta.New(graph.Memory(main), delta.Options{CompactThreshold: -1})
			if err != nil {
				b.Fatal(err)
			}
			batch := enrolments(1<<20, 8) // encoded before the rows below, so it does not just append to every run
			remove := make([]graph.TripleOp, len(batch))
			for i, op := range batch {
				remove[i] = graph.TripleOp{Del: true, T: op.T}
			}
			for _, ops := range [][]graph.TripleOp{batch, remove, enrolments(0, size/2)} {
				if _, _, err := ov.ApplyTriples(ops); err != nil {
					b.Fatal(err)
				}
			}
			tombstones := make([]graph.TripleOp, size/2)
			for i := range tombstones {
				tombstones[i] = graph.TripleOp{Del: true, T: liveTakes[i*len(liveTakes)/len(tombstones)]}
			}
			if _, _, err := ov.ApplyTriples(tombstones); err != nil {
				b.Fatal(err)
			}
			if st := ov.Stats(); st.DeltaAdds+st.DeltaDels != size {
				b.Fatalf("delta holds %d rows, want %d", st.DeltaAdds+st.DeltaDels, size)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ops := batch
				if i%2 == 1 {
					ops = remove
				}
				if ins, del, err := ov.ApplyTriples(ops); err != nil || ins+del != len(ops) {
					b.Fatalf("batch applied %d+%d of %d ops: %v", ins, del, len(ops), err)
				}
			}
		})
	}
}

// BenchmarkOverlayCompact times folding a 20k-row delta (10k new
// enrolments, 10k tombstones) into the ~555k-triple main: what one
// background compaction of the mixed-live workload costs. The delta
// names a few per cent of the store, so the compaction should cost a
// few per cent of a rebuild.
func BenchmarkOverlayCompact(b *testing.B) {
	main := liveFixture(b)
	ops := enrolments(0, 10000)
	for i := 0; i < 10000; i++ {
		ops = append(ops, graph.TripleOp{Del: true, T: liveTakes[i*len(liveTakes)/10000]})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// The overlay never mutates its main: every iteration folds the
		// same delta into the same store.
		ov, err := delta.New(graph.Memory(main), delta.Options{CompactThreshold: -1})
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := ov.ApplyTriples(ops); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := ov.Compact(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if st := ov.Stats(); st.DeltaAdds+st.DeltaDels != 0 || st.MainTriples != main.Len() {
			b.Fatalf("after compaction: %+v, main had %d triples", st, main.Len())
		}
		b.StartTimer()
	}
}
