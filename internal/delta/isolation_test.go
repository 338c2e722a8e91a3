package delta_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
	"hexastore/internal/triplestore"
)

// TestReaderWriterIsolation runs concurrent SPARQL SELECTs against a
// stream of paired INSERT DATA / DELETE DATA updates and asserts that
// every query observes a consistent snapshot. The invariant: each update
// batch inserts (or deletes) BOTH ⟨member_i, in, club⟩ and
// ⟨member_i, badge, club⟩ atomically, so any single query must see
// exactly as many `in` edges as `badge` edges — a query that straddled a
// half-applied update, or whose two pattern fetches hit different store
// versions, would count a mismatch. Run with -race this also proves the
// lock-free read path races nothing.
func TestReaderWriterIsolation(t *testing.T) {
	ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	backends := map[string]graph.Graph{
		"memory": graph.Memory(core.New()),
		"disk":   graph.Disk(ds),
	}
	for name, main := range backends {
		t.Run(name, func(t *testing.T) {
			// A small threshold keeps background compactions happening
			// mid-flight, so isolation is tested across main swaps (and,
			// on disk, across in-place merges) too.
			ov, err := delta.New(main, delta.Options{CompactThreshold: 48})
			if err != nil {
				t.Fatal(err)
			}

			const (
				writers   = 2
				readers   = 4
				batches   = 150
				queriesPM = 60
			)
			query := `SELECT ?m ?c WHERE { ?m <http://ex/in> ?c . ?m <http://ex/badge> ?c }`
			countQ := func(pred string) string {
				return fmt.Sprintf(`SELECT ?m ?c WHERE { ?m <http://ex/%s> ?c }`, pred)
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			errs := make(chan error, writers+readers)

			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for b := 0; b < batches; b++ {
						m := fmt.Sprintf("m%d_%d", w, b)
						ins := fmt.Sprintf(
							`INSERT DATA { <http://ex/%s> <http://ex/in> <http://ex/club> . <http://ex/%s> <http://ex/badge> <http://ex/club> }`, m, m)
						if _, err := sparql.ExecUpdate(ov, ins); err != nil {
							errs <- fmt.Errorf("writer %d insert: %w", w, err)
							return
						}
						if b%3 == 2 {
							del := fmt.Sprintf(
								`DELETE DATA { <http://ex/%s> <http://ex/in> <http://ex/club> . <http://ex/%s> <http://ex/badge> <http://ex/club> }`, m, m)
							if _, err := sparql.ExecUpdate(ov, del); err != nil {
								errs <- fmt.Errorf("writer %d delete: %w", w, err)
								return
							}
						}
					}
				}(w)
			}

			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for q := 0; q < queriesPM && !stop.Load(); q++ {
						// The join query evaluates both patterns inside
						// one pinned snapshot: every member it returns
						// must carry both edges.
						res, err := sparql.Exec(ov, query)
						if err != nil {
							errs <- fmt.Errorf("reader %d: %w", r, err)
							return
						}
						// Cross-pattern invariant on one snapshot: equal
						// numbers of `in` and `badge` edges. Pin a
						// snapshot explicitly and count both ways.
						snap := graph.Snapshot(ov)
						inRes, err := sparql.Exec(snap, countQ("in"))
						if err != nil {
							errs <- err
							return
						}
						badgeRes, err := sparql.Exec(snap, countQ("badge"))
						if err != nil {
							errs <- err
							return
						}
						if len(inRes.Rows) != len(badgeRes.Rows) {
							errs <- fmt.Errorf("reader %d: snapshot saw %d `in` edges but %d `badge` edges",
								r, len(inRes.Rows), len(badgeRes.Rows))
							return
						}
						// And the join view must agree with the count.
						if len(res.Rows) > len(inRes.Rows)+2*writers {
							errs <- fmt.Errorf("reader %d: join rows %d exceed plausible members %d",
								r, len(res.Rows), len(inRes.Rows))
							return
						}
					}
				}(r)
			}

			wg.Wait()
			stop.Store(true)
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			// Quiesce and verify the final state: writers inserted
			// writers×batches members and deleted every b%3==2 one.
			if err := ov.Compact(); err != nil {
				t.Fatal(err)
			}
			if err := ov.CompactErr(); err != nil {
				t.Fatal(err)
			}
			res, err := sparql.Exec(ov, query)
			if err != nil {
				t.Fatal(err)
			}
			deleted := 0
			for b := 0; b < batches; b++ {
				if b%3 == 2 {
					deleted++
				}
			}
			want := writers * (batches - deleted)
			if len(res.Rows) != want {
				t.Fatalf("final join rows = %d, want %d", len(res.Rows), want)
			}
		})
	}
}

// answers renders everything a graph can be asked about a handful of
// bindings — all eight Match shapes (as sets), Count, and the sorted
// list and pair streams the batch engine reads (in order) — so that two
// renderings are equal exactly when the graph answers the same.
func answers(t *testing.T, g graph.Graph, probes [][3]ID) string {
	t.Helper()
	ss, ok := graph.AsSortedSource(g)
	if !ok {
		t.Fatal("graph serves no sorted streams")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "len=%d\n", g.Len())
	for _, tr := range probes {
		for mask := 0; mask < 8; mask++ {
			pat := [3]ID{None, None, None}
			bound := 0
			for j := 0; j < 3; j++ {
				if mask&(1<<j) != 0 {
					pat[j] = tr[j]
					bound++
				}
			}
			var rows []string
			if err := g.Match(pat[0], pat[1], pat[2], func(s, p, o ID) bool {
				rows = append(rows, fmt.Sprint(s, p, o))
				return true
			}); err != nil {
				t.Fatal(err)
			}
			sort.Strings(rows)
			n, err := g.Count(pat[0], pat[1], pat[2])
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%v: count=%d match=%v", pat, n, rows)
			switch bound {
			case 2:
				list, err := ss.AppendSortedList(nil, pat[0], pat[1], pat[2])
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, " list=%v", list)
			case 1:
				if err := ss.SortedPairs(pat[0], pat[1], pat[2], func(x, y ID) bool {
					fmt.Fprintf(&b, " (%d,%d)", x, y)
					return true
				}); err != nil {
					t.Fatal(err)
				}
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestPinnedSnapshotAcrossCompactions pins a snapshot, then lets 600
// further writes — inserts, and deletes of triples the snapshot sees —
// and two compactions go by while a reader keeps asking the snapshot.
// The start states: a delta spanning several chunks per ordering over a
// memory main, the same over a disk main, and ("view") a memory main with
// nothing pending, whose snapshot is the main view itself. On a memory
// main each compaction patches a new store that shares vectors with the
// pinned one; on a disk main it merges into the trees the snapshot reads
// through its undo chain. Either way the snapshot must answer exactly as
// the triplestore oracle did when it was pinned, and the overlay exactly
// as the oracle that took the same writes.
func TestPinnedSnapshotAcrossCompactions(t *testing.T) {
	for _, tc := range []struct {
		name, backend string
		view          bool
	}{{"memory", "memory", false}, {"disk", "disk", false}, {"view", "memory", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ov := overlays(t, -1)[tc.backend]
			rng := rand.New(rand.NewSource(3))
			ref := triplestore.New(ov.Dictionary())
			var live [][3]ID
			// nextOps draws n writes and applies them to the oracle.
			nextOps := func(n int) []graph.TripleOp {
				ops := make([]graph.TripleOp, 0, n)
				for i := 0; i < n; i++ {
					if len(live) > 0 && rng.Intn(3) == 0 {
						j := rng.Intn(len(live))
						tr := live[j]
						live[j] = live[len(live)-1]
						live = live[:len(live)-1]
						dt, err := ov.Dictionary().DecodeTriple(tr[0], tr[1], tr[2])
						if err != nil {
							t.Fatal(err)
						}
						ops = append(ops, graph.TripleOp{Del: true, T: dt})
						ref.Remove(tr[0], tr[1], tr[2])
						continue
					}
					tr := rdf.T(ex(fmt.Sprintf("s%d", rng.Intn(90))), ex(fmt.Sprintf("p%d", rng.Intn(5))), ex(fmt.Sprintf("o%d", rng.Intn(60))))
					s, p, o := ov.Dictionary().EncodeTriple(tr)
					if ref.Add(s, p, o) {
						live = append(live, [3]ID{s, p, o})
					}
					ops = append(ops, graph.TripleOp{T: tr})
				}
				return ops
			}
			write := func(n int) {
				if _, _, err := ov.ApplyTriples(nextOps(n)); err != nil {
					t.Fatal(err)
				}
			}

			write(700) // into the main …
			if err := ov.Compact(); err != nil {
				t.Fatal(err)
			}
			if !tc.view {
				write(700) // … and into the delta the snapshot pins with it
				if st := ov.Stats(); st.DeltaChunks <= 12 {
					t.Fatalf("delta of %d adds and %d tombstones sits in %d chunks: too small to cross a chunk boundary",
						st.DeltaAdds, st.DeltaDels, st.DeltaChunks)
				}
			}
			probes := append([][3]ID(nil), live[:12]...)
			snap := ov.Snapshot()
			if _, isMain := graph.Unwrap(snap).(*core.Store); isMain != tc.view {
				t.Fatalf("snapshot unwraps to %T with %d pending", graph.Unwrap(snap), ov.Stats().DeltaAdds+ov.Stats().DeltaDels)
			}
			pinned := answers(t, snap, probes)
			if want := answers(t, graph.Memory(sealed(ref)), probes); pinned != want {
				t.Fatal("the pinned snapshot answers differently from the oracle")
			}

			for round := 1; round <= 2; round++ {
				// The write and the compaction land while the reader asks.
				ops := nextOps(300)
				done := make(chan error, 1)
				go func() {
					_, _, err := ov.ApplyTriples(ops)
					if err == nil {
						err = ov.Compact()
					}
					done <- err
				}()
				got := answers(t, snap, probes)
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				if got != pinned || answers(t, snap, probes) != pinned {
					t.Fatalf("snapshot answers differently during or after %d writes and compaction %d", 300*round, round)
				}
				if got, want := answers(t, ov, probes), answers(t, graph.Memory(sealed(ref)), probes); got != want {
					t.Fatalf("overlay diverges from the oracle after compaction %d", round)
				}
			}
			if st := ov.Stats(); st.DeltaAdds+st.DeltaDels+st.DeltaChunks != 0 || st.Compactions != 3 {
				t.Fatalf("after the last compaction: %+v", st)
			}
		})
	}
}
