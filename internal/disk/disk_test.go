package disk

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/rdf"
)

func newStore(t *testing.T) *Store {
	t.Helper()
	st, err := Create(t.TempDir(), Options{CacheSize: 64})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func mustAdd(t *testing.T, st *Store, s, p, o ID) {
	t.Helper()
	added, err := st.Add(s, p, o)
	if err != nil {
		t.Fatalf("Add(%d,%d,%d): %v", s, p, o, err)
	}
	if !added {
		t.Fatalf("Add(%d,%d,%d) = false, want true", s, p, o)
	}
}

func matchAll(t *testing.T, st *Store, s, p, o ID) [][3]ID {
	t.Helper()
	var out [][3]ID
	if err := st.Match(s, p, o, func(s, p, o ID) bool {
		out = append(out, [3]ID{s, p, o})
		return true
	}); err != nil {
		t.Fatalf("Match(%d,%d,%d): %v", s, p, o, err)
	}
	return out
}

func TestCreateRejectsExistingStore(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, err := Create(dir, Options{}); err == nil {
		t.Fatal("second Create in same dir succeeded")
	}
}

func TestAddHasRemove(t *testing.T) {
	st := newStore(t)
	mustAdd(t, st, 1, 2, 3)
	ok, err := st.Has(1, 2, 3)
	if err != nil || !ok {
		t.Fatalf("Has = (%v, %v)", ok, err)
	}
	added, err := st.Add(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if added {
		t.Fatal("duplicate Add = true")
	}
	removed, err := st.Remove(1, 2, 3)
	if err != nil || !removed {
		t.Fatalf("Remove = (%v, %v)", removed, err)
	}
	ok, _ = st.Has(1, 2, 3)
	if ok {
		t.Fatal("Has after Remove = true")
	}
	removed, err = st.Remove(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if removed {
		t.Fatal("second Remove = true")
	}
	if err := st.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestAddRejectsWildcards(t *testing.T) {
	st := newStore(t)
	added, err := st.Add(None, 1, 2)
	if err != nil || added {
		t.Fatalf("Add with None subject = (%v, %v)", added, err)
	}
	if st.Len() != 0 {
		t.Fatalf("Len = %d, want 0", st.Len())
	}
}

// TestMatchAllPatternsAgainstCore loads identical random data into a disk
// store and the in-memory core store and verifies every one of the eight
// bound/unbound pattern shapes returns identical triple sets.
func TestMatchAllPatternsAgainstCore(t *testing.T) {
	ds := newStore(t)
	msb := core.NewBuilder(nil)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 3000; i++ {
		s, p, o := ID(rng.Intn(40)+1), ID(rng.Intn(12)+1), ID(rng.Intn(60)+1)
		_, err := ds.Add(s, p, o)
		if err != nil {
			t.Fatal(err)
		}
		msb.Add(s, p, o)
	}
	ms := msb.Build()
	if ds.Len() != ms.Len() {
		t.Fatalf("disk Len = %d, core Len = %d", ds.Len(), ms.Len())
	}

	patterns := [][3]ID{
		{5, 3, 9}, {5, 3, None}, {5, None, 9}, {None, 3, 9},
		{5, None, None}, {None, 3, None}, {None, None, 9}, {None, None, None},
		{999, None, None}, // absent head
	}
	for _, pat := range patterns {
		got := matchAll(t, ds, pat[0], pat[1], pat[2])
		want := ms.Triples(pat[0], pat[1], pat[2])
		if len(got) != len(want) {
			t.Fatalf("pattern %v: disk %d triples, core %d", pat, len(got), len(want))
		}
		wantSet := make(map[[3]ID]bool, len(want))
		for _, tr := range want {
			wantSet[tr] = true
		}
		for _, tr := range got {
			if !wantSet[tr] {
				t.Fatalf("pattern %v: disk produced %v not in core", pat, tr)
			}
		}
	}
}

func TestMatchEarlyStop(t *testing.T) {
	st := newStore(t)
	for i := ID(1); i <= 100; i++ {
		mustAdd(t, st, i, 1, i+1)
	}
	n := 0
	if err := st.Match(None, 1, None, func(_, _, _ ID) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early-stopped Match visited %d, want 5", n)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	alice := rdf.NewIRI("alice")
	knows := rdf.NewIRI("knows")
	bob := rdf.NewIRI("bob")
	carol := rdf.NewIRI("carol")
	if _, err := st.AddTriple(rdf.T(alice, knows, bob)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddTriple(rdf.T(bob, knows, carol)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer st2.Close()
	if st2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", st2.Len())
	}
	// The dictionary must have been replayed with identical ids: looking
	// up the same terms must find the persisted triples.
	aid, ok := st2.Dictionary().Lookup(alice)
	if !ok {
		t.Fatal("alice not in reopened dictionary")
	}
	kid, _ := st2.Dictionary().Lookup(knows)
	bid, _ := st2.Dictionary().Lookup(bob)
	has, err := st2.Has(aid, kid, bid)
	if err != nil || !has {
		t.Fatalf("Has(alice,knows,bob) after reopen = (%v, %v)", has, err)
	}
	// Decoding must round-trip.
	var decoded []rdf.Triple
	if err := st2.DecodeMatch(None, None, None, func(tr rdf.Triple) bool {
		decoded = append(decoded, tr)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 {
		t.Fatalf("decoded %d triples, want 2", len(decoded))
	}
	if err := st2.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

func TestDictionaryGrowsAfterReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddTriple(rdf.T(rdf.NewIRI("a"), rdf.NewIRI("p"), rdf.NewIRI("b"))); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st2.AddTriple(rdf.T(rdf.NewIRI("c"), rdf.NewIRI("p"), rdf.NewIRI("d"))); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if st3.Len() != 2 {
		t.Fatalf("Len = %d, want 2", st3.Len())
	}
	if st3.Dictionary().Len() != 5 { // a p b c d
		t.Fatalf("dictionary Len = %d, want 5", st3.Dictionary().Len())
	}
	cid, ok := st3.Dictionary().Lookup(rdf.NewIRI("c"))
	if !ok {
		t.Fatal("term added in second session missing after third open")
	}
	n, err := st3.Count(cid, None, None)
	if err != nil || n != 1 {
		t.Fatalf("Count(c,?,?) = (%d, %v), want 1", n, err)
	}
}

func TestBulkLoad(t *testing.T) {
	st := newStore(t)
	var triples [][3]ID
	rng := rand.New(rand.NewSource(5))
	seen := make(map[[3]ID]bool)
	for i := 0; i < 5000; i++ {
		tr := [3]ID{ID(rng.Intn(50) + 1), ID(rng.Intn(10) + 1), ID(rng.Intn(80) + 1)}
		triples = append(triples, tr)
		seen[tr] = true
	}
	// Include a duplicate and an invalid triple: both must be ignored.
	triples = append(triples, triples[0], [3]ID{None, 1, 1})
	if err := st.BulkLoad(triples); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	if st.Len() != len(seen) {
		t.Fatalf("Len = %d, want %d distinct", st.Len(), len(seen))
	}
	if err := st.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
	// Every loaded triple must be findable through every pattern shape.
	for tr := range seen {
		ok, err := st.Has(tr[0], tr[1], tr[2])
		if err != nil || !ok {
			t.Fatalf("Has(%v) after BulkLoad = (%v, %v)", tr, ok, err)
		}
	}
	// And the store must accept further incremental inserts.
	mustAdd(t, st, 900, 900, 900)
	if err := st.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadParallelIdentical loads the same triples sequentially and
// with several worker counts, requiring byte-identical scans: the
// parallel path only moves the permute+sort work onto goroutines, so
// tree contents (and even page layout, since builds stay sequential and
// in index order) must not depend on the worker count.
func TestBulkLoadParallelIdentical(t *testing.T) {
	var triples [][3]ID
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20_000; i++ {
		triples = append(triples, [3]ID{ID(rng.Intn(300) + 1), ID(rng.Intn(12) + 1), ID(rng.Intn(400) + 1)})
	}
	triples = append(triples, [3]ID{1, None, 1}) // invalid: skipped

	scan := func(st *Store) [][3]ID {
		var out [][3]ID
		if err := st.Match(None, None, None, func(s, p, o ID) bool {
			out = append(out, [3]ID{s, p, o})
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	ref := newStore(t)
	if err := ref.BulkLoad(triples); err != nil {
		t.Fatalf("BulkLoad: %v", err)
	}
	want := scan(ref)

	for _, workers := range []int{2, 8} {
		st := newStore(t)
		if err := st.BulkLoadParallel(triples, workers); err != nil {
			t.Fatalf("BulkLoadParallel(%d): %v", workers, err)
		}
		if err := st.CheckIntegrity(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := scan(st)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d triples, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: triple %d = %v, want %v", workers, i, got[i], want[i])
			}
		}
	}
}

func TestBulkLoadRejectsNonEmpty(t *testing.T) {
	st := newStore(t)
	mustAdd(t, st, 1, 2, 3)
	if err := st.BulkLoad([][3]ID{{4, 5, 6}}); err == nil {
		t.Fatal("BulkLoad on non-empty store succeeded")
	}
}

func TestCorruptedDictionaryDetected(t *testing.T) {
	dir := t.TempDir()
	st, err := Create(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.AddTriple(rdf.T(rdf.NewIRI("x"), rdf.NewIRI("y"), rdf.NewIRI("z"))); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Truncate the dictionary log mid-entry.
	path := filepath.Join(dir, dictFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open with truncated dictionary succeeded")
	}
}

func TestOpenMissingDir(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "absent"), Options{}); err == nil {
		t.Fatal("Open of missing store succeeded")
	}
}

func TestSizeBytes(t *testing.T) {
	st := newStore(t)
	for i := ID(1); i <= 200; i++ {
		mustAdd(t, st, i, i%7+1, i%13+1)
	}
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	n, err := st.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("SizeBytes = %d, want > 0", n)
	}
}

func TestCountMatchesMatch(t *testing.T) {
	st := newStore(t)
	for i := ID(1); i <= 50; i++ {
		mustAdd(t, st, i%5+1, i%3+1, i)
	}
	n, err := st.Count(None, 2, None)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(matchAll(t, st, None, 2, None)); got != n {
		t.Fatalf("Count = %d but Match produced %d", n, got)
	}
}

// TestConcurrentReaders exercises the disk store's concurrency contract:
// parallel readers against a concurrent writer must not race (run with
// -race) and reads must never observe torn results.
func TestConcurrentReaders(t *testing.T) {
	st := newStore(t)
	for i := ID(1); i <= 200; i++ {
		mustAdd(t, st, i, i%5+1, i%9+1)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := ID(201); i <= 400; i++ {
			if _, err := st.Add(i, i%5+1, i%9+1); err != nil {
				t.Errorf("Add: %v", err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		go func() {
			for i := 0; i < 100; i++ {
				n, err := st.Count(None, 3, None)
				if err != nil {
					t.Errorf("Count: %v", err)
					return
				}
				if n < 0 || n > 400 {
					t.Errorf("Count out of range: %d", n)
					return
				}
			}
		}()
	}
	<-done
	if st.Len() != 400 {
		t.Fatalf("Len = %d, want 400", st.Len())
	}
	if err := st.CheckIntegrity(); err != nil {
		t.Fatal(err)
	}
}
