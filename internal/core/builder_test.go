package core

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hexastore/internal/dictionary"
	"hexastore/internal/idlist"
	"hexastore/internal/rdf"
	"hexastore/internal/triplestore"
)

// TestBuilderMatchesIncremental: one bulk build and a chain of 30
// patches of 100 adds each, from an empty store, end in the same store.
func TestBuilderMatchesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	inc := New()
	b := NewBuilder(inc.Dictionary())
	var batch [][3]ID
	for i := 0; i < 3000; i++ {
		s := ID(rng.Intn(30) + 1)
		p := ID(rng.Intn(10) + 1)
		o := ID(rng.Intn(40) + 1)
		batch = append(batch, [3]ID{s, p, o})
		b.Add(s, p, o)
		if len(batch) == 100 {
			inc, batch = patchOps(inc, batch, nil), nil
		}
	}
	bulk := b.Build()

	if inc.Len() != bulk.Len() {
		t.Fatalf("incremental Len=%d, bulk Len=%d", inc.Len(), bulk.Len())
	}
	incViews := allSixViews(inc)
	bulkViews := allSixViews(bulk)
	for ix := range incViews {
		if len(incViews[ix]) != len(bulkViews[ix]) {
			t.Fatalf("index %v: incremental %d triples, bulk %d",
				Index(ix), len(incViews[ix]), len(bulkViews[ix]))
		}
		for tr := range incViews[ix] {
			if !bulkViews[ix][tr] {
				t.Fatalf("index %v: bulk store missing %v", Index(ix), tr)
			}
		}
	}

	incStats, bulkStats := inc.Stats(), bulk.Stats()
	if incStats != bulkStats {
		t.Errorf("stats differ: incremental %+v, bulk %+v", incStats, bulkStats)
	}
}

func TestBuilderDedupes(t *testing.T) {
	b := NewBuilder(nil)
	for i := 0; i < 5; i++ {
		b.Add(1, 2, 3)
	}
	if b.Len() != 5 {
		t.Errorf("Builder.Len = %d, want 5 (pre-dedupe)", b.Len())
	}
	st := b.Build()
	if st.Len() != 1 {
		t.Errorf("built store Len = %d, want 1", st.Len())
	}
}

func TestBuilderIgnoresNone(t *testing.T) {
	b := NewBuilder(nil)
	b.Add(None, 1, 2)
	b.Add(1, None, 2)
	b.Add(1, 2, None)
	if st := b.Build(); st.Len() != 0 {
		t.Errorf("store Len = %d, want 0", st.Len())
	}
}

// TestBuilderSharesTerminalLists: in a bulk build, the two orderings of
// each pair the paper shares a terminal list between hold, for every
// (head, key), the list the triplestore oracle answers for that pattern.
func TestBuilderSharesTerminalLists(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	b := NewBuilder(nil)
	model := triplestore.New(b.Dictionary())
	for i := 0; i < 400; i++ {
		tr := [3]ID{ID(rng.Intn(12) + 1), ID(rng.Intn(5) + 1), ID(rng.Intn(12) + 1)}
		b.Add(tr[0], tr[1], tr[2])
		model.Add(tr[0], tr[1], tr[2])
	}
	st := b.Build()
	// oracle lists the free position of pattern pat, ascending.
	oracle := func(pat [3]ID, free int) []ID {
		var ids []ID
		model.Match(pat[0], pat[1], pat[2], func(s, p, o ID) bool {
			ids = append(ids, [3]ID{s, p, o}[free])
			return true
		})
		slices.Sort(ids)
		return ids
	}
	for _, pair := range []struct {
		a, b       Index
		pos, other int // head position of a, head position of b
		free       int
	}{{SPO, PSO, 0, 1, 2}, {SOP, OSP, 0, 2, 1}, {POS, OPS, 1, 2, 0}} {
		for _, head := range st.HeadIDs(pair.a) {
			st.Head(pair.a, head).Range(func(key ID, la idlist.View) bool {
				pat := [3]ID{None, None, None}
				pat[pair.pos], pat[pair.other] = head, key
				lb, _ := st.Head(pair.b, key).Find(head)
				want := oracle(pat, pair.free)
				if got, gotB := la.AppendTo(nil), lb.AppendTo(nil); !slices.Equal(got, want) || !slices.Equal(gotB, want) {
					t.Fatalf("%s/%s list of %v: %v and %v, oracle %v", pair.a, pair.b, pat, got, gotB, want)
				}
				return true
			})
		}
	}
}

func TestBuilderAddTriple(t *testing.T) {
	b := NewBuilder(nil)
	if !b.AddTriple(rdf.T(rdf.NewIRI("s"), rdf.NewIRI("p"), rdf.NewIRI("o"))) {
		t.Error("AddTriple rejected valid triple")
	}
	if b.AddTriple(rdf.Triple{}) {
		t.Error("AddTriple accepted invalid triple")
	}
	if st := b.Build(); st.Len() != 1 {
		t.Errorf("Len = %d, want 1", st.Len())
	}
}

// Property: building from any random multiset of triples yields a store
// whose Match(·,·,·) set equals the deduplicated input.
func TestBuilderEquivalenceProperty(t *testing.T) {
	f := func(raw [][3]uint8) bool {
		b := NewBuilder(nil)
		want := make(map[[3]ID]bool)
		for _, r := range raw {
			s, p, o := ID(r[0])+1, ID(r[1])+1, ID(r[2])+1
			b.Add(s, p, o)
			want[[3]ID{s, p, o}] = true
		}
		st := b.Build()
		if st.Len() != len(want) {
			return false
		}
		ok := true
		st.Match(None, None, None, func(s, p, o ID) bool {
			if !want[[3]ID{s, p, o}] {
				ok = false
			}
			return ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewBuilderNilDictionary(t *testing.T) {
	b := NewBuilder(nil)
	if b.dict == nil {
		t.Fatal("NewBuilder(nil) left dictionary nil")
	}
	var _ *dictionary.Dictionary = b.dict
}
