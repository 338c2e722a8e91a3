package idlist

import (
	"math/rand"
	"sort"
	"testing"
)

func randSortedSet(r *rand.Rand, n int, max uint64) []ID {
	m := map[uint64]bool{}
	for len(m) < n {
		m[r.Uint64()%max] = true
	}
	out := make([]ID, 0, n)
	for v := range m {
		out = append(out, ID(v))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestRandomDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(1000)
		ids := randSortedSet(r, n, 1<<20)
		c := Compress(ids)
		// AppendTo round trip
		got := c.AppendTo(nil)
		if len(got) != len(ids) {
			t.Fatalf("roundtrip len %d != %d", len(got), len(ids))
		}
		for i := range got {
			if got[i] != ids[i] {
				t.Fatalf("roundtrip mismatch at %d", i)
			}
		}
		// Contains / At
		for k := 0; k < 50; k++ {
			probe := ID(r.Uint64() % (1 << 20))
			want := false
			for _, v := range ids {
				if v == probe {
					want = true
				}
			}
			if c.Contains(probe) != want {
				t.Fatalf("Contains(%d) wrong", probe)
			}
		}
		// SeekGE monotone
		it := c.Iter()
		var seeks []ID
		for k := 0; k < 30; k++ {
			seeks = append(seeks, ID(r.Uint64()%(1<<20)))
		}
		sort.Slice(seeks, func(i, j int) bool { return seeks[i] < seeks[j] })
		last := -1
		for _, s := range seeks {
			got, ok := it.SeekGE(s)
			// brute force: smallest value >= s at index > lastReturnedIdx consumed...
			// emulate: cursor semantics = smallest value >= s not before previously returned position
			wantIdx := -1
			for i, v := range ids {
				if i > last && v >= s {
					wantIdx = i
					break
				}
			}
			if wantIdx == -1 {
				if ok {
					t.Fatalf("SeekGE(%d): got %d, want none", s, got)
				}
				continue
			}
			if !ok || got != ids[wantIdx] {
				t.Fatalf("SeekGE(%d): got %v %v, want %d", s, got, ok, ids[wantIdx])
			}
			last = wantIdx
		}
		// MergeFilterView vs brute force (col non-decreasing with dups)
		colN := r.Intn(400)
		col := make([]ID, colN)
		for i := range col {
			col[i] = ID(r.Uint64() % (1 << 20))
		}
		// inject values from ids
		for i := range col {
			if n > 0 && r.Intn(2) == 0 {
				col[i] = ids[r.Intn(n)]
			}
		}
		sort.Slice(col, func(i, j int) bool { return col[i] < col[j] })
		var got2, want2 []int
		MergeFilterView(col, c.View(), func(i int) { got2 = append(got2, i) })
		for i, v := range col {
			if c.Contains(v) {
				want2 = append(want2, i)
			}
		}
		if len(got2) != len(want2) {
			t.Fatalf("trial %d: MergeFilterView %d keeps, want %d", trial, len(got2), len(want2))
		}
		for i := range got2 {
			if got2[i] != want2[i] {
				t.Fatalf("MergeFilterView idx mismatch")
			}
		}
	}
}

func TestPackedDifferential(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		nk := r.Intn(100)
		keys := randSortedSet(r, nk, 1<<18)
		var b PackedBuilder
		lists := make(map[ID][]ID)
		for _, k := range keys {
			l := randSortedSet(r, 1+r.Intn(300), 1<<20)
			lists[k] = l
			b.Append(k, l)
		}
		p := finishPacked(t, &b)
		if p.Len() != nk {
			t.Fatalf("Len")
		}
		for _, k := range keys {
			v, ok := p.Find(k)
			if !ok {
				t.Fatalf("Find(%d) missing", k)
			}
			got := v.AppendTo(nil)
			want := lists[k]
			if len(got) != len(want) {
				t.Fatalf("Find(%d) len %d want %d", k, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Find(%d) value mismatch", k)
				}
			}
		}
		for probe := 0; probe < 50; probe++ {
			k := ID(r.Uint64() % (1 << 18))
			_, ok := p.Find(k)
			want := lists[k] != nil
			if ok != want {
				t.Fatalf("Find(%d)=%v want %v", k, ok, want)
			}
		}
		// A key cursor's Next walk
		cur := p.Keys()
		for i := 0; i < nk; i++ {
			if k, ok := cur.Next(); !ok || k != keys[i] {
				t.Fatalf("Next %d = %d,%v want %d", i, k, ok, keys[i])
			}
		}
	}
}
