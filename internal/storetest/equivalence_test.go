package storetest

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// allStores builds one instance of every implementation plus the
// reference model.
func allStores(t *testing.T) []Store {
	t.Helper()
	diskSt, closer, err := NewDisk(t.TempDir())
	if err != nil {
		t.Fatalf("NewDisk: %v", err)
	}
	t.Cleanup(func() { closer() })
	return []Store{
		NewReference(),
		NewCore(),
		NewTriplestore(),
		NewCOVP1(),
		NewCOVP2(),
		diskSt,
	}
}

// patternsOf enumerates all eight bound/unbound shapes over a small
// id universe, plus absent-resource probes.
func patternsOf(rng *rand.Rand, maxS, maxP, maxO ID) [][3]ID {
	s := ID(rng.Int63n(int64(maxS)) + 1)
	p := ID(rng.Int63n(int64(maxP)) + 1)
	o := ID(rng.Int63n(int64(maxO)) + 1)
	return [][3]ID{
		{s, p, o},
		{s, p, None},
		{s, None, o},
		{None, p, o},
		{s, None, None},
		{None, p, None},
		{None, None, o},
		{None, None, None},
		{maxS + 50, None, None},
		{None, maxP + 50, None},
		{None, None, maxO + 50},
	}
}

// TestAllStoresAgreeUnderRandomWorkload drives every store with the same
// random add/remove workload and cross-checks all pattern shapes after
// every batch.
func TestAllStoresAgreeUnderRandomWorkload(t *testing.T) {
	const (
		maxS, maxP, maxO = ID(25), ID(8), ID(30)
		batches          = 8
		opsPerBatch      = 400
	)
	stores := allStores(t)
	ref := stores[0]
	rng := rand.New(rand.NewSource(42))

	for batch := 0; batch < batches; batch++ {
		for op := 0; op < opsPerBatch; op++ {
			s := ID(rng.Int63n(int64(maxS)) + 1)
			p := ID(rng.Int63n(int64(maxP)) + 1)
			o := ID(rng.Int63n(int64(maxO)) + 1)
			if rng.Intn(4) == 0 {
				want := ref.Remove(s, p, o)
				for _, st := range stores[1:] {
					if got := st.Remove(s, p, o); got != want {
						t.Fatalf("batch %d: %s.Remove(%d,%d,%d) = %v, reference %v",
							batch, st.Name(), s, p, o, got, want)
					}
				}
			} else {
				want := ref.Add(s, p, o)
				for _, st := range stores[1:] {
					if got := st.Add(s, p, o); got != want {
						t.Fatalf("batch %d: %s.Add(%d,%d,%d) = %v, reference %v",
							batch, st.Name(), s, p, o, got, want)
					}
				}
			}
		}
		for _, st := range stores[1:] {
			if st.Len() != ref.Len() {
				t.Fatalf("batch %d: %s.Len() = %d, reference %d", batch, st.Name(), st.Len(), ref.Len())
			}
		}
		for trial := 0; trial < 10; trial++ {
			for _, pat := range patternsOf(rng, maxS, maxP, maxO) {
				for _, st := range stores[1:] {
					if err := Diff(ref, st, pat[0], pat[1], pat[2]); err != nil {
						t.Fatalf("batch %d: %v", batch, err)
					}
				}
			}
		}
	}
	// No adapter may have swallowed an error.
	for _, st := range stores {
		if d, ok := st.(interface{ Err() error }); ok {
			if err := d.Err(); err != nil {
				t.Fatalf("%s store error: %v", st.Name(), err)
			}
		}
	}
}

// TestQuickSeededEquivalence is the property-based variant: arbitrary
// seeds produce arbitrary workloads, and the in-memory stores must agree
// with the reference on every shape.
func TestQuickSeededEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		stores := []Store{NewReference(), NewCore(), NewTriplestore(), NewCOVP1(), NewCOVP2()}
		ref := stores[0]
		rng := rand.New(rand.NewSource(seed))
		for op := 0; op < 500; op++ {
			s := ID(rng.Intn(12) + 1)
			p := ID(rng.Intn(5) + 1)
			o := ID(rng.Intn(15) + 1)
			if rng.Intn(5) == 0 {
				want := ref.Remove(s, p, o)
				for _, st := range stores[1:] {
					if st.Remove(s, p, o) != want {
						return false
					}
				}
			} else {
				want := ref.Add(s, p, o)
				for _, st := range stores[1:] {
					if st.Add(s, p, o) != want {
						return false
					}
				}
			}
		}
		for trial := 0; trial < 20; trial++ {
			for _, pat := range patternsOf(rng, 12, 5, 15) {
				for _, st := range stores[1:] {
					if Diff(ref, st, pat[0], pat[1], pat[2]) != nil {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestEarlyStopRespectedByAllStores verifies that returning false from
// the Match callback stops iteration everywhere.
func TestEarlyStopRespectedByAllStores(t *testing.T) {
	stores := allStores(t)
	for _, st := range stores {
		for i := ID(1); i <= 20; i++ {
			st.Add(i, 1, i+1)
		}
	}
	for _, st := range stores {
		n := 0
		st.Match(None, 1, None, func(_, _, _ ID) bool {
			n++
			return n < 3
		})
		if n != 3 {
			t.Errorf("%s: early-stopped Match visited %d, want 3", st.Name(), n)
		}
	}
}

// TestWildcardAddRejectedEverywhere checks the None-position contract.
func TestWildcardAddRejectedEverywhere(t *testing.T) {
	for _, st := range allStores(t) {
		if st.Add(None, 1, 2) || st.Add(1, None, 2) || st.Add(1, 2, None) {
			t.Errorf("%s accepted a wildcard position in Add", st.Name())
		}
		if st.Len() != 0 {
			t.Errorf("%s.Len() = %d after rejected adds", st.Name(), st.Len())
		}
	}
}

func TestCollectSortsCanonically(t *testing.T) {
	st := NewCore()
	st.Add(3, 1, 1)
	st.Add(1, 1, 2)
	st.Add(1, 1, 1)
	got := Collect(st, None, None, None)
	want := [][3]ID{{1, 1, 1}, {1, 1, 2}, {3, 1, 1}}
	if len(got) != len(want) {
		t.Fatalf("Collect = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Collect = %v, want %v", got, want)
		}
	}
}
