package hexastore_test

import (
	"math/rand"
	"sync"
	"testing"

	"hexastore"
	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
	"hexastore/internal/triplestore"
	"hexastore/internal/vp"
)

// Cross-store integration tests: the Hexastore, both COVP variants and
// the naive triples table are driven with identical random workloads and
// must agree on every pattern query. The triples table is the reference
// model (trivially correct by construction).

func TestAllStoresAgreeOnRandomWorkload(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	dict := dictionary.New()
	// The Hexastore takes writes through its overlay; a small threshold
	// makes it compact into new sealed stores during the workload.
	hexa, err := delta.New(graph.Memory(core.NewShared(dict)), delta.Options{CompactThreshold: 256})
	if err != nil {
		t.Fatal(err)
	}
	c1 := vp.NewCOVP1(dict)
	c2 := vp.NewCOVP2(dict)
	naive := triplestore.New(dict)

	const resources = 40
	const properties = 8
	for op := 0; op < 8000; op++ {
		s := core.ID(rng.Intn(resources) + 1)
		p := core.ID(rng.Intn(properties) + 1)
		o := core.ID(rng.Intn(resources) + 1)
		if rng.Intn(4) == 0 {
			r1, _ := hexa.Remove(s, p, o)
			r2 := c1.Remove(s, p, o)
			r3 := c2.Remove(s, p, o)
			r4 := naive.Remove(s, p, o)
			if r1 != r4 || r2 != r4 || r3 != r4 {
				t.Fatalf("op %d: Remove(%d,%d,%d) disagreement: hexa=%v c1=%v c2=%v naive=%v",
					op, s, p, o, r1, r2, r3, r4)
			}
		} else {
			a1, _ := hexa.Add(s, p, o)
			a2 := c1.Add(s, p, o)
			a3 := c2.Add(s, p, o)
			a4 := naive.Add(s, p, o)
			if a1 != a4 || a2 != a4 || a3 != a4 {
				t.Fatalf("op %d: Add(%d,%d,%d) disagreement", op, s, p, o)
			}
		}
	}

	if hexa.Len() != naive.Len() || c1.Len() != naive.Len() || c2.Len() != naive.Len() {
		t.Fatalf("sizes disagree: hexa=%d c1=%d c2=%d naive=%d",
			hexa.Len(), c1.Len(), c2.Len(), naive.Len())
	}

	// Exhaustive Has agreement.
	for s := core.ID(1); s <= resources; s++ {
		for p := core.ID(1); p <= properties; p++ {
			for o := core.ID(1); o <= resources; o++ {
				want := naive.Has(s, p, o)
				if got, _ := hexa.Has(s, p, o); got != want || c1.Has(s, p, o) != want || c2.Has(s, p, o) != want {
					t.Fatalf("Has(%d,%d,%d) disagreement", s, p, o)
				}
			}
		}
	}

	// Pattern counts: hexastore Match vs naive scan for all 8 shapes.
	for trial := 0; trial < 300; trial++ {
		var s, p, o core.ID
		if rng.Intn(2) == 0 {
			s = core.ID(rng.Intn(resources + 1))
		}
		if rng.Intn(2) == 0 {
			p = core.ID(rng.Intn(properties + 1))
		}
		if rng.Intn(2) == 0 {
			o = core.ID(rng.Intn(resources + 1))
		}
		if got, want := mustCount(t, hexa, s, p, o), naive.Count(s, p, o); got != want {
			t.Fatalf("Count(%d,%d,%d): hexa=%d naive=%d", s, p, o, got, want)
		}
	}

	// Per-property object-bound selections: COVP vs naive.
	for p := core.ID(1); p <= properties; p++ {
		for o := core.ID(1); o <= resources; o++ {
			want := naive.Count(core.None, p, o)
			if got := c1.SubjectsByObject(p, o).Len(); got != want {
				t.Fatalf("COVP1 SubjectsByObject(%d,%d) = %d, naive = %d", p, o, got, want)
			}
			if got := c2.SubjectsByObject(p, o).Len(); got != want {
				t.Fatalf("COVP2 SubjectsByObject(%d,%d) = %d, naive = %d", p, o, got, want)
			}
		}
	}
}

// mustCount is g.Count failing t on an error.
func mustCount(t *testing.T, g graph.Graph, s, p, o core.ID) int {
	n, err := g.Count(s, p, o)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestConcurrentReadersWithWriter exercises the in-memory handle under
// the race detector: concurrent pattern reads during mutation must be
// safe and self-consistent.
func TestConcurrentReadersWithWriter(t *testing.T) {
	st, err := hexastore.Open(hexastore.WithCompactThreshold(256))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 500; i++ {
		st.Add(core.ID(i%20+1), core.ID(i%5+1), core.ID(i%30+1))
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := core.ID(rng.Intn(21))
				p := core.ID(rng.Intn(6))
				st.Count(s, p, core.None)
				st.Len()
			}
		}(int64(g))
	}

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		s := core.ID(rng.Intn(20) + 1)
		p := core.ID(rng.Intn(5) + 1)
		o := core.ID(rng.Intn(30) + 1)
		if rng.Intn(2) == 0 {
			st.Add(s, p, o)
		} else {
			st.Remove(s, p, o)
		}
	}
	close(stop)
	wg.Wait()

	// Final consistency: six views agree.
	n := st.Len()
	if got := mustCount(t, st, core.None, core.None, core.None); got != n {
		t.Errorf("Count(all) = %d, Len = %d", got, n)
	}
}
