// Ablation benchmarks for the extension subsystems: the disk-based
// Hexastore (§7 future work), database cracking (§6), the Kowari cyclic
// baseline as a real store (§2.2.2), the cost-based SPARQL planner
// ([41]), and the Turtle front end. These complement the per-figure
// benchmarks in bench_test.go.
package hexastore_test

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/cracking"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/kowari"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
)

// BenchmarkDiskVsMemory compares the in-memory sextuple store with the
// disk-based one on the paper's LQ1 access shape (object-bound,
// property-unbound: everyone related to a course). The disk store pays
// page traversal and CRC costs; the shape of the win (object-headed
// lookup beats anything property-oriented) holds on both substrates.
func BenchmarkDiskVsMemory(b *testing.B) {
	s, ids := lubmFixture(b)

	// Mirror the in-memory store's triples into a disk store.
	var triples [][3]disk.ID
	s.Hexa.Match(core.None, core.None, core.None, func(sub, p, o core.ID) bool {
		triples = append(triples, [3]disk.ID{sub, p, o})
		return true
	})
	dst, err := disk.Create(b.TempDir(), disk.Options{CacheSize: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer dst.Close()
	if err := dst.BulkLoad(triples); err != nil {
		b.Fatal(err)
	}
	course := ids.Course10

	b.Run("MemoryOSP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			s.Hexa.Match(core.None, core.None, course, func(_, _, _ core.ID) bool { n++; return true })
		}
	})
	b.Run("DiskOSP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			if err := dst.Match(disk.None, disk.None, course, func(_, _, _ disk.ID) bool { n++; return true }); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MemoryFullScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			s.Hexa.Match(core.None, core.None, core.None, func(_, _, _ core.ID) bool { n++; return true })
		}
	})
	b.Run("DiskFullScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			if err := dst.Match(disk.None, disk.None, disk.None, func(_, _, _ disk.ID) bool { n++; return true }); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCrackingVsPresorted quantifies the §6 trade-off: paying a
// full sort at load time versus cracking the column incrementally as a
// side effect of the query workload. "FirstTouch" includes construction
// plus one pass over every property; "Converged" measures the steady
// state after the workload has cracked (or sorted) everything.
func BenchmarkCrackingVsPresorted(b *testing.B) {
	s, _ := lubmFixture(b)
	var data []cracking.Triple
	s.Hexa.Match(core.None, core.None, core.None, func(sub, p, o core.ID) bool {
		data = append(data, cracking.Triple{p, sub, o}) // pso permutation
		return true
	})
	props := s.Hexa.HeadIDs(core.PSO)

	b.Run("PresortedFirstTouch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cp := append([]cracking.Triple(nil), data...)
			sortPSO(cp)
			n := 0
			for _, p := range props {
				scanSorted(cp, p, func(cracking.Triple) { n++ })
			}
		}
	})
	b.Run("CrackingFirstTouch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			col := cracking.NewColumn(append([]cracking.Triple(nil), data...))
			n := 0
			for _, p := range props {
				col.Scan(p, func(cracking.Triple) bool { n++; return true })
			}
		}
	})

	sorted := append([]cracking.Triple(nil), data...)
	sortPSO(sorted)
	col := cracking.NewColumn(append([]cracking.Triple(nil), data...))
	for _, p := range props {
		col.Scan(p, func(cracking.Triple) bool { return true })
	}
	b.Run("PresortedConverged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, p := range props {
				scanSorted(sorted, p, func(cracking.Triple) { n++ })
			}
		}
	})
	b.Run("CrackingConverged", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			n := 0
			for _, p := range props {
				col.Scan(p, func(cracking.Triple) bool { n++; return true })
			}
		}
	})
}

func sortPSO(ts []cracking.Triple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		if a[1] != b[1] {
			return a[1] < b[1]
		}
		return a[2] < b[2]
	})
}

// scanSorted binary-searches the presorted column for head p.
func scanSorted(ts []cracking.Triple, p core.ID, fn func(cracking.Triple)) {
	lo, hi := 0, len(ts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ts[mid][0] < p {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for ; lo < len(ts) && ts[lo][0] == p; lo++ {
		fn(ts[lo])
	}
}

// BenchmarkKowariStoreVsHexastore compares the real cyclic-index store
// with the sextuple store on the operation §2.2.2 singles out: a sorted
// subject list for a property, which Kowari must assemble and sort from
// its pos ordering while the Hexastore reads its pso vector keys.
func BenchmarkKowariStoreVsHexastore(b *testing.B) {
	s, ids := lubmFixture(b)
	kb := kowari.NewBuilder(s.Dict)
	s.Hexa.Match(core.None, core.None, core.None, func(sub, p, o core.ID) bool {
		kb.Add(sub, p, o)
		return true
	})
	ks := kb.Build()
	p := ids.TeacherOf

	b.Run("HexastorePSOKeys", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = s.Hexa.Head(core.PSO, p).Keys()
		}
	})
	b.Run("KowariSortFromPOS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = ks.SubjectsForProperty(p)
		}
	})
}

// BenchmarkPlannerStatsVsNoStats compares statistics-free evaluation
// (the package-level entry point, which orders by bound positions alone)
// with a Planner's statistics on joins where ordering matters: a highly
// selective pattern written after an unselective one.
func BenchmarkPlannerStatsVsNoStats(b *testing.B) {
	bld := core.NewBuilder(nil)
	rng := rand.New(rand.NewSource(77))
	common := rdf.NewIRI("common")
	rare := rdf.NewIRI("rare")
	for i := 0; i < 30_000; i++ {
		bld.AddTriple(rdf.T(numIRI("s", rng.Intn(3000)), common, numIRI("o", rng.Intn(3000))))
	}
	for i := 0; i < 30; i++ {
		bld.AddTriple(rdf.T(numIRI("s", i), rare, rdf.NewLiteral("x")))
	}
	st := bld.Build()
	pl := sparql.NewPlanner(graph.Memory(st))

	for _, c := range []struct{ name, src string }{
		// The rare pattern binds two positions, so bound positions alone
		// start from it.
		{"RareMoreBound", `SELECT ?s ?o WHERE { ?s <common> ?o . ?s <rare> "x" }`},
		// Both patterns bind only the predicate: without statistics the
		// tie goes to text order, and the 30,000-row pattern runs first.
		{"RareEquallyBound", `SELECT ?s ?o WHERE { ?s <common> ?o . ?s <rare> ?z }`},
	} {
		q, err := sparql.Parse(c.src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/NoStats", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sparql.EvalOpts(context.Background(), graph.Memory(st), q, sparql.EvalOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/StatsPlanner", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := pl.EvalOpts(context.Background(), q, sparql.EvalOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func numIRI(prefix string, n int) rdf.Term {
	return rdf.NewIRI(prefix + itoa(n))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkTurtleVsNTriplesParse measures the front-end cost of the two
// serializations over the same data.
func BenchmarkTurtleVsNTriplesParse(b *testing.B) {
	var nt, ttl strings.Builder
	ttl.WriteString("@prefix ex: <http://ex/> .\n")
	for i := 0; i < 5000; i++ {
		s, p, o := itoa(i%500), itoa(i%7), itoa(i)
		nt.WriteString("<http://ex/s" + s + "> <http://ex/p" + p + "> <http://ex/o" + o + "> .\n")
		ttl.WriteString("ex:s" + s + " ex:p" + p + " ex:o" + o + " .\n")
	}
	ntSrc, ttlSrc := nt.String(), ttl.String()

	b.Run("NTriples", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ts, err := rdf.NewReader(strings.NewReader(ntSrc)).ReadAll()
			if err != nil || len(ts) != 5000 {
				b.Fatalf("parse: %v (%d)", err, len(ts))
			}
		}
	})
	b.Run("Turtle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ts, err := rdf.ParseTurtle(ttlSrc)
			if err != nil || len(ts) != 5000 {
				b.Fatalf("parse: %v (%d)", err, len(ts))
			}
		}
	})
}

// BenchmarkDiskBulkLoadVsIncremental measures the disk store's two load
// paths.
func BenchmarkDiskBulkLoadVsIncremental(b *testing.B) {
	s, _ := lubmFixture(b)
	var triples [][3]disk.ID
	s.Hexa.Match(core.None, core.None, core.None, func(sub, p, o core.ID) bool {
		triples = append(triples, [3]disk.ID{sub, p, o})
		return true
	})
	if len(triples) > 30_000 {
		triples = triples[:30_000]
	}

	b.Run("BulkLoad", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := disk.Create(b.TempDir(), disk.Options{CacheSize: 4096})
			if err != nil {
				b.Fatal(err)
			}
			if err := st.BulkLoad(triples); err != nil {
				b.Fatal(err)
			}
			st.Close()
		}
	})
	b.Run("IncrementalAdd", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := disk.Create(b.TempDir(), disk.Options{CacheSize: 4096})
			if err != nil {
				b.Fatal(err)
			}
			for _, tr := range triples {
				if _, err := st.Add(tr[0], tr[1], tr[2]); err != nil {
					b.Fatal(err)
				}
			}
			st.Close()
		}
	})
}
