package delta_test

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/dictionary"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
	"hexastore/internal/triplestore"
)

type ID = dictionary.ID

const None = dictionary.None

// overlayUnder builds a delta overlay over each backend kind. The main
// starts empty; every write goes through the overlay.
func overlays(t *testing.T, threshold int) map[string]*delta.Overlay {
	t.Helper()
	ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*delta.Overlay{}
	for name, g := range map[string]graph.Graph{
		"memory":   graph.Memory(core.New()),
		"disk":     graph.Disk(ds),
		"baseline": graph.Baseline(triplestore.New(nil)),
	} {
		ov, err := delta.New(g, delta.Options{CompactThreshold: threshold})
		if err != nil {
			t.Fatalf("%s: New: %v", name, err)
		}
		out[name] = ov
	}
	t.Cleanup(func() { ds.Close() })
	return out
}

func ex(local string) rdf.Term { return rdf.NewIRI("http://ex/" + local) }

// canonTriples renders every triple of g, decoded and sorted.
func canonTriples(t *testing.T, g graph.Graph) string {
	t.Helper()
	var lines []string
	if err := graph.DecodeMatch(g, None, None, None, func(tr rdf.Triple) bool {
		lines = append(lines, tr.Subject.Key()+" "+tr.Predicate.Key()+" "+tr.Object.Key())
		return true
	}); err != nil {
		t.Fatalf("DecodeMatch: %v", err)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func canonResult(res *sparql.Result) string {
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

// TestOverlayDifferential drives an identical random mixed add/remove
// workload through a delta overlay (per backend kind) and through the
// flat triplestore oracle, comparing the full visible set, Len, Has,
// Count and the sorted streams (against a store bulk-built from the
// oracle) at several checkpoints, both before and after compaction.
func TestOverlayDifferential(t *testing.T) {
	const (
		subjects   = 12
		predicates = 4
		objects    = 10
		steps      = 600
	)
	for name, ov := range overlays(t, -1) { // manual compaction only
		t.Run(name, func(t *testing.T) {
			ref := triplestore.New(nil)
			rng := rand.New(rand.NewSource(42))
			dict := ov.Dictionary()

			check := func(label string) {
				t.Helper()
				if got, want := canonTriples(t, ov), canonTriples(t, graph.Baseline(ref)); got != want {
					t.Fatalf("%s: triple sets diverge\noverlay:\n%s\nreference:\n%s", label, got, want)
				}
				if ov.Len() != ref.Len() {
					t.Fatalf("%s: Len: overlay %d, reference %d", label, ov.Len(), ref.Len())
				}
			}

			for i := 0; i < steps; i++ {
				tr := rdf.T(
					ex(fmt.Sprintf("s%d", rng.Intn(subjects))),
					ex(fmt.Sprintf("p%d", rng.Intn(predicates))),
					ex(fmt.Sprintf("o%d", rng.Intn(objects))),
				)
				s, p, o := dict.EncodeTriple(tr)
				rs, rp, ro := ref.Dictionary().EncodeTriple(tr)
				if rng.Intn(3) == 0 {
					got, err := ov.Remove(s, p, o)
					if err != nil {
						t.Fatalf("Remove: %v", err)
					}
					if want := ref.Remove(rs, rp, ro); got != want {
						t.Fatalf("step %d: Remove changed=%v, reference %v", i, got, want)
					}
				} else {
					got, err := ov.Add(s, p, o)
					if err != nil {
						t.Fatalf("Add: %v", err)
					}
					if want := ref.Add(rs, rp, ro); got != want {
						t.Fatalf("step %d: Add changed=%v, reference %v", i, got, want)
					}
				}

				if i%97 == 0 {
					// Point probes: Has + Count on random patterns.
					ps := pick(rng, ID(0), ID(rng.Intn(subjects)+1))
					pp := pick(rng, ID(0), ID(0))
					ok, err := ov.Has(s, p, o)
					if err != nil {
						t.Fatal(err)
					}
					if want := ref.Has(s, p, o); ok != want {
						t.Fatalf("step %d: Has=%v, reference %v", i, ok, want)
					}
					n, err := ov.Count(ps, pp, None)
					if err != nil {
						t.Fatal(err)
					}
					if want := ref.Count(ps, pp, None); n != want {
						t.Fatalf("step %d: Count(%d,%d,·)=%d, reference %d", i, ps, pp, n, want)
					}
				}
			}
			check("after workload")
			checkSortedStreams(t, ov, sealed(ref))

			if name != "baseline" {
				if err := ov.Compact(); err != nil {
					t.Fatalf("Compact: %v", err)
				}
				if st := ov.Stats(); st.DeltaAdds+st.DeltaDels != 0 {
					t.Fatalf("delta not empty after Compact: %+v", st)
				}
				check("after compaction")
				checkSortedStreams(t, ov, sealed(ref))
			}
		})
	}
}

func pick(rng *rand.Rand, a, b ID) ID {
	if rng.Intn(2) == 0 {
		return a
	}
	return b
}

// sealed bulk-builds the oracle's triples, on its dictionary, into a
// store whose sorted streams the overlay's are compared with.
func sealed(ref *triplestore.Store) *core.Store {
	b := core.NewBuilder(ref.Dictionary())
	ref.Match(None, None, None, func(s, p, o ID) bool {
		b.Add(s, p, o)
		return true
	})
	return b.Build()
}

// checkSortedStreams compares the overlay's SortedSource streams against
// the reference store's for every bound combination that occurs.
func checkSortedStreams(t *testing.T, ov *delta.Overlay, ref *core.Store) {
	t.Helper()
	refG := graph.Memory(ref)
	refSS, _ := graph.AsSortedSource(refG)

	seen := map[[3]ID]struct{}{}
	if err := refG.Match(None, None, None, func(s, p, o ID) bool {
		seen[[3]ID{s, p, o}] = struct{}{}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	for tr := range seen {
		s, p, o := tr[0], tr[1], tr[2]
		for _, pat := range [][3]ID{{s, p, None}, {s, None, o}, {None, p, o}} {
			got, err := ov.AppendSortedList(nil, pat[0], pat[1], pat[2])
			if err != nil {
				t.Fatalf("AppendSortedList(%v): %v", pat, err)
			}
			want, err := refSS.AppendSortedList(nil, pat[0], pat[1], pat[2])
			if err != nil {
				t.Fatal(err)
			}
			if !equalIDs(got, want) {
				t.Fatalf("AppendSortedList(%v): got %v, want %v", pat, got, want)
			}
		}
		for _, pat := range [][3]ID{{s, None, None}, {None, p, None}, {None, None, o}} {
			var got, want [][2]ID
			if err := ov.SortedPairs(pat[0], pat[1], pat[2], func(a, b ID) bool {
				got = append(got, [2]ID{a, b})
				return true
			}); err != nil {
				t.Fatalf("SortedPairs(%v): %v", pat, err)
			}
			if err := refSS.SortedPairs(pat[0], pat[1], pat[2], func(a, b ID) bool {
				want = append(want, [2]ID{a, b})
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("SortedPairs(%v): %d pairs, want %d", pat, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("SortedPairs(%v)[%d]: got %v, want %v", pat, i, got[i], want[i])
				}
			}
		}
	}
}

func equalIDs(a, b []ID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOverlayQueryEquivalence checks the acceptance-criteria invariant:
// SPARQL results over the overlay are identical to the same query over a
// store freshly bulk-loaded with the overlay's visible set — before and
// after compaction.
func TestOverlayQueryEquivalence(t *testing.T) {
	queries := []string{
		`SELECT ?s ?o WHERE { ?s <http://ex/p0> ?o }`,
		`SELECT ?a ?c WHERE { ?a <http://ex/p0> ?b . ?b <http://ex/p1> ?c }`,
		`SELECT DISTINCT ?s WHERE { ?s ?p <http://ex/o1> }`,
		`SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s <http://ex/p0> ?o } GROUP BY ?s`,
		`ASK { <http://ex/s1> <http://ex/p0> ?x }`,
	}
	for name, ov := range overlays(t, -1) {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			dict := ov.Dictionary()
			for i := 0; i < 400; i++ {
				tr := rdf.T(
					ex(fmt.Sprintf("s%d", rng.Intn(10))),
					ex(fmt.Sprintf("p%d", rng.Intn(3))),
					ex(fmt.Sprintf("o%d", rng.Intn(8))),
				)
				s, p, o := dict.EncodeTriple(tr)
				if rng.Intn(4) == 0 {
					if _, err := ov.Remove(s, p, o); err != nil {
						t.Fatal(err)
					}
				} else if _, err := ov.Add(s, p, o); err != nil {
					t.Fatal(err)
				}
			}

			fresh := freshBulkLoad(t, ov)
			runAll := func(label string) {
				t.Helper()
				for _, q := range queries {
					got, err := sparql.Exec(ov, q)
					if err != nil {
						t.Fatalf("%s: overlay: %v", label, err)
					}
					want, err := sparql.Exec(graph.Memory(fresh), q)
					if err != nil {
						t.Fatalf("%s: fresh: %v", label, err)
					}
					if canonResult(got) != canonResult(want) {
						t.Fatalf("%s: %s\noverlay:\n%s\nfresh:\n%s", label, q, canonResult(got), canonResult(want))
					}
				}
			}
			runAll("pre-compaction")
			if name != "baseline" {
				if err := ov.Compact(); err != nil {
					t.Fatal(err)
				}
				runAll("post-compaction")
			}
		})
	}
}

// freshBulkLoad bulk-loads the overlay's visible set into a new store.
func freshBulkLoad(t *testing.T, g graph.Graph) *core.Store {
	t.Helper()
	b := core.NewBuilder(nil)
	if err := graph.DecodeMatch(g, None, None, None, func(tr rdf.Triple) bool {
		b.AddTriple(tr)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return b.BuildParallel(2)
}

// TestAutoCompaction verifies the background trigger: once the delta
// outgrows the threshold, a compaction folds it into the main without
// changing the visible set.
func TestAutoCompaction(t *testing.T) {
	ov, err := delta.New(graph.Memory(core.New()), delta.Options{CompactThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	dict := ov.Dictionary()
	for i := 0; i < 500; i++ {
		tr := rdf.T(ex(fmt.Sprintf("s%d", i)), ex("p"), ex(fmt.Sprintf("o%d", i)))
		s, p, o := dict.EncodeTriple(tr)
		if _, err := ov.Add(s, p, o); err != nil {
			t.Fatal(err)
		}
	}
	// Compact() waits for any in-flight background pass, then drains the
	// remainder synchronously.
	if err := ov.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ov.CompactErr(); err != nil {
		t.Fatalf("background compaction failed: %v", err)
	}
	st := ov.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction ran: %+v", st)
	}
	if st.DeltaAdds+st.DeltaDels != 0 {
		t.Fatalf("delta not drained: %+v", st)
	}
	if st.Visible != 500 || st.MainTriples != 500 {
		t.Fatalf("visible/main = %d/%d, want 500/500", st.Visible, st.MainTriples)
	}
}

// TestSnapshotPinningDisk: a snapshot pinned on a disk-backed overlay
// must keep serving its exact state across writes and SEVERAL in-place
// tree merges — the undo-compensation path, hit deterministically.
func TestSnapshotPinningDisk(t *testing.T) {
	ds, err := disk.Create(t.TempDir(), disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()
	ov, err := delta.New(graph.Disk(ds), delta.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	dict := ov.Dictionary()
	enc := func(i int) (ID, ID, ID) {
		return dict.Encode(ex(fmt.Sprintf("s%d", i))), dict.Encode(ex("p")), dict.Encode(ex("o"))
	}
	for i := 0; i < 10; i++ {
		s, p, o := enc(i)
		if _, err := ov.Add(s, p, o); err != nil {
			t.Fatal(err)
		}
	}
	snap := ov.Snapshot()
	before := canonTriples(t, snap)

	// Merge round 1: fold the 10 adds into the trees, then delete some
	// of them and add others.
	if err := ov.Compact(); err != nil {
		t.Fatal(err)
	}
	s0, p0, o0 := enc(0)
	if _, err := ov.Remove(s0, p0, o0); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		s, p, o := enc(i)
		if _, err := ov.Add(s, p, o); err != nil {
			t.Fatal(err)
		}
	}
	if got := canonTriples(t, snap); got != before {
		t.Fatalf("snapshot drifted after first merge:\n%s\nwant:\n%s", got, before)
	}
	// Merge round 2: fold the delete + new adds in too. The pinned
	// snapshot now compensates through a chain of two undo records.
	if err := ov.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := canonTriples(t, snap); got != before {
		t.Fatalf("snapshot drifted after second merge:\n%s\nwant:\n%s", got, before)
	}
	if snap.Len() != 10 {
		t.Fatalf("snapshot Len=%d, want 10", snap.Len())
	}
	if ok, err := snap.Has(s0, p0, o0); err != nil || !ok {
		t.Fatalf("snapshot lost the merged-then-deleted triple (ok=%v err=%v)", ok, err)
	}
	// Sorted streams must compensate too, not just Has/Match.
	list, err := snap.(interface {
		AppendSortedList([]ID, ID, ID, ID) ([]ID, error)
	}).AppendSortedList(nil, None, p0, o0)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 10 {
		t.Fatalf("snapshot sorted subject list has %d entries, want 10 (got %v)", len(list), list)
	}
	// And the live overlay sees the post-merge truth.
	if ov.Len() != 14 {
		t.Fatalf("overlay Len=%d, want 14", ov.Len())
	}
	if ok, _ := ov.Has(s0, p0, o0); ok {
		t.Fatal("overlay resurrected a deleted triple after merge")
	}
}

// TestSnapshotPinning: a pinned snapshot must keep serving the exact
// state it was taken at, across writes and compaction.
func TestSnapshotPinning(t *testing.T) {
	ov, err := delta.New(graph.Memory(core.New()), delta.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	dict := ov.Dictionary()
	enc := func(i int) (ID, ID, ID) {
		return dict.Encode(ex(fmt.Sprintf("s%d", i))), dict.Encode(ex("p")), dict.Encode(ex("o"))
	}
	for i := 0; i < 10; i++ {
		s, p, o := enc(i)
		ov.Add(s, p, o)
	}
	snap := ov.Snapshot()
	before := canonTriples(t, snap)

	for i := 10; i < 20; i++ {
		s, p, o := enc(i)
		ov.Add(s, p, o)
	}
	s0, p0, o0 := enc(0)
	if _, err := ov.Remove(s0, p0, o0); err != nil {
		t.Fatal(err)
	}
	if err := ov.Compact(); err != nil {
		t.Fatal(err)
	}

	if got := canonTriples(t, snap); got != before {
		t.Fatalf("pinned snapshot changed:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	if snap.Len() != 10 {
		t.Fatalf("snapshot Len=%d, want 10", snap.Len())
	}
	if ov.Len() != 19 {
		t.Fatalf("overlay Len=%d, want 19", ov.Len())
	}
	if _, err := snap.Add(s0, p0, o0); err == nil {
		t.Fatal("snapshot accepted a mutation")
	}
}

// TestSnapshotIsMainViewWhileNothingPending: an overlay with an empty
// delta over a memory main pins a view of the main itself — it unwraps
// to the *core.Store, carries the state's epoch and is its own snapshot
// — one write turns the pin back into the merging state, and a
// compaction returns to a main view under an unchanged epoch.
func TestSnapshotIsMainViewWhileNothingPending(t *testing.T) {
	b := core.NewBuilder(nil)
	b.AddTriple(rdf.T(ex("a"), ex("p"), ex("b")))
	main := b.Build()
	ov, err := delta.New(graph.Memory(main), delta.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	isView := func(g graph.Graph) bool {
		_, ok := graph.Unwrap(g).(*core.Store)
		return ok
	}

	snap := ov.Snapshot()
	if graph.Unwrap(snap) != main || graph.EpochOf(snap) != ov.Epoch() || graph.Snapshot(snap) != snap {
		t.Fatalf("empty delta: snapshot %T unwraps to %p (main %p), epoch %q (overlay %q)",
			snap, graph.Unwrap(snap), main, graph.EpochOf(snap), ov.Epoch())
	}
	if _, err := snap.Add(1, 2, 3); !errors.Is(err, graph.ErrReadOnly) {
		t.Fatalf("the main view accepted a write: %v", err)
	}

	if _, err := graph.AddTriple(ov, rdf.T(ex("a"), ex("p"), ex("c"))); err != nil {
		t.Fatal(err)
	}
	written := ov.Snapshot()
	if isView(written) || graph.EpochOf(written) == graph.EpochOf(snap) || written.Len() != 2 {
		t.Fatalf("after a write: snapshot %T (main view %v), epoch %q, Len %d", written, isView(written), graph.EpochOf(written), written.Len())
	}

	if err := ov.Compact(); err != nil {
		t.Fatal(err)
	}
	compacted := ov.Snapshot()
	if !isView(compacted) || graph.Unwrap(compacted) == main || graph.EpochOf(compacted) != graph.EpochOf(written) || compacted.Len() != 2 {
		t.Fatalf("after compaction: snapshot %T (main view %v), epoch %q (before %q), Len %d",
			compacted, isView(compacted), graph.EpochOf(compacted), graph.EpochOf(written), compacted.Len())
	}
	if snap.Len() != 1 || canonTriples(t, written) != canonTriples(t, compacted) {
		t.Fatal("a pinned snapshot changed, or compaction changed what is visible")
	}
}

// TestBatchAtomicCounts: ApplyTriples applies a mixed batch in order
// with correct effect counts (including add-then-remove of the same
// triple inside one batch).
func TestBatchAtomicCounts(t *testing.T) {
	ov, err := delta.New(graph.Memory(core.New()), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := rdf.T(ex("a"), ex("p"), ex("x"))
	b := rdf.T(ex("b"), ex("p"), ex("x"))
	ins, del, err := ov.ApplyTriples([]graph.TripleOp{
		{T: a}, {T: a}, // duplicate insert counts once
		{T: b},
		{Del: true, T: b}, // delete inside the same batch
		{Del: true, T: rdf.T(ex("c"), ex("p"), ex("x"))}, // never present
	})
	if err != nil {
		t.Fatal(err)
	}
	if ins != 2 || del != 1 {
		t.Fatalf("ins/del = %d/%d, want 2/1", ins, del)
	}
	if ov.Len() != 1 {
		t.Fatalf("Len=%d, want 1", ov.Len())
	}
	ok, err := graph.HasTriple(ov, a)
	if err != nil || !ok {
		t.Fatalf("a missing after batch (ok=%v err=%v)", ok, err)
	}
	ok, _ = graph.HasTriple(ov, b)
	if ok {
		t.Fatal("b visible after delete-in-batch")
	}
}

// TestDiskOverlayPersistsAcrossCheckpoint: updates through an overlay
// over a disk main survive Checkpoint+Close+reopen without any WAL —
// checkpoint merges the delta into the B+-trees.
func TestDiskOverlayPersistsAcrossCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ds, err := disk.Create(dir, disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ov, err := delta.New(graph.Disk(ds), delta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, _, err := ov.ApplyTriples([]graph.TripleOp{
			{T: rdf.T(ex(fmt.Sprintf("s%d", i)), ex("p"), ex("o"))},
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := canonTriples(t, ov)
	if err := ov.Close(); err != nil {
		t.Fatal(err)
	}

	ds2, err := disk.Open(dir, disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer ds2.Close()
	if got := canonTriples(t, graph.Disk(ds2)); got != want {
		t.Fatalf("disk store after reopen:\n%s\nwant:\n%s", got, want)
	}
}
