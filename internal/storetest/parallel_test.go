package storetest

import (
	"fmt"
	"math/rand"
	"testing"

	"hexastore/internal/core"
	"hexastore/internal/disk"
)

// TestParallelBulkLoadersAgree drives the parallel bulk loaders — the
// in-memory Builder.BuildParallel and the disk BulkLoadParallel — at
// worker counts 1, 2 and 8 over one random triple set and cross-checks
// every pattern shape against the reference model and against each
// other. Worker count must be unobservable in query answers.
func TestParallelBulkLoadersAgree(t *testing.T) {
	const (
		maxS, maxP, maxO = ID(40), ID(10), ID(50)
		nTriples         = 9000
	)
	rng := rand.New(rand.NewSource(77))
	triples := make([][3]ID, 0, nTriples)
	ref := NewReference()
	for i := 0; i < nTriples; i++ {
		tr := [3]ID{
			ID(rng.Int63n(int64(maxS)) + 1),
			ID(rng.Int63n(int64(maxP)) + 1),
			ID(rng.Int63n(int64(maxO)) + 1),
		}
		triples = append(triples, tr)
		ref.Add(tr[0], tr[1], tr[2])
	}

	stores := []Store{ref}
	for _, workers := range []int{1, 2, 8} {
		b := core.NewBuilder(nil)
		for _, tr := range triples {
			b.Add(tr[0], tr[1], tr[2])
		}
		stores = append(stores, overCore(b.BuildParallel(workers)))

		ds, err := disk.Create(t.TempDir(), disk.Options{CacheSize: 128})
		if err != nil {
			t.Fatalf("disk.Create: %v", err)
		}
		t.Cleanup(func() { ds.Close() })
		if err := ds.BulkLoadParallel(triples, workers); err != nil {
			t.Fatalf("BulkLoadParallel(%d): %v", workers, err)
		}
		stores = append(stores, &diskStore{st: ds})
	}

	for round := 0; round < 40; round++ {
		for _, pat := range patternsOf(rng, maxS, maxP, maxO) {
			for _, st := range stores[1:] {
				if err := Diff(stores[0], st, pat[0], pat[1], pat[2]); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
		}
	}
	for i, st := range stores {
		if st.Len() != ref.Len() {
			t.Fatalf("store %d (%s): Len = %d, reference %d", i, st.Name(), st.Len(), ref.Len())
		}
		if d, ok := st.(interface{ Err() error }); ok {
			if err := d.Err(); err != nil {
				t.Fatalf("%s: %v", fmt.Sprintf("store %d", i), err)
			}
		}
	}
}
