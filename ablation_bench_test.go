// Ablation benchmarks for the extension subsystems: the disk-based
// Hexastore (§7 future work) and the Turtle front end. These complement
// the per-figure benchmarks in bench_test.go.
package hexastore_test

import (
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/disk"
	"hexastore/internal/rdf"
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
