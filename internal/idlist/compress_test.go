package idlist

import (
	"math/rand"
	"reflect"
	"testing"
)

// randSorted returns a random strictly increasing slice of n ids with
// gaps drawn up to maxGap.
func randSorted(rng *rand.Rand, n int, maxGap int64) []ID {
	out := make([]ID, 0, n)
	v := ID(0)
	for i := 0; i < n; i++ {
		v += ID(rng.Int63n(maxGap) + 1)
		out = append(out, v)
	}
	return out
}

func TestCompressRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 127, 128, 129, 255, 256, 1000, 5000} {
		ids := randSorted(rng, n, 1000)
		c := Compress(ids)
		if c.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, c.Len())
		}
		got := c.AppendTo(nil)
		if n == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
		for i, want := range ids {
			if got := c.At(i); got != want {
				t.Fatalf("n=%d: At(%d) = %d, want %d", n, i, got, want)
			}
		}
	}
}

func TestCompressedContains(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ids := randSorted(rng, 700, 5)
	c := Compress(ids)
	set := make(map[ID]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	for probe := ID(0); probe <= ids[len(ids)-1]+3; probe++ {
		if got := c.Contains(probe); got != set[probe] {
			t.Fatalf("Contains(%d) = %v, want %v", probe, got, set[probe])
		}
	}
}

func TestIterSeekGE(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := randSorted(rng, 1000, 7)
	c := Compress(ids)

	// Full iteration equals the input.
	it := c.Iter()
	for i := 0; ; i++ {
		v, ok := it.Next()
		if !ok {
			if i != len(ids) {
				t.Fatalf("iterator stopped at %d, want %d", i, len(ids))
			}
			break
		}
		if v != ids[i] {
			t.Fatalf("Next %d = %d, want %d", i, v, ids[i])
		}
	}

	// SeekGE from a fresh iterator matches a linear search.
	for trial := 0; trial < 500; trial++ {
		target := ID(rng.Int63n(int64(ids[len(ids)-1]) + 10))
		it := c.Iter()
		got, ok := it.SeekGE(target)
		wantIdx := searchIDs(ids, target)
		if wantIdx == len(ids) {
			if ok {
				t.Fatalf("SeekGE(%d) = %d, want none", target, got)
			}
			continue
		}
		if !ok || got != ids[wantIdx] {
			t.Fatalf("SeekGE(%d) = %d,%v, want %d", target, got, ok, ids[wantIdx])
		}
		// The iterator continues from the seek position.
		if wantIdx+1 < len(ids) {
			next, ok := it.Next()
			if !ok || next != ids[wantIdx+1] {
				t.Fatalf("Next after SeekGE(%d) = %d,%v, want %d", target, next, ok, ids[wantIdx+1])
			}
		}
	}

	// Monotone seeks on one iterator never go backwards.
	it2 := c.Iter()
	prev := ID(0)
	for trial := 0; trial < 200; trial++ {
		prev += ID(rng.Int63n(40) + 1)
		got, ok := it2.SeekGE(prev)
		if !ok {
			break
		}
		if got < prev {
			t.Fatalf("monotone SeekGE(%d) went backwards to %d", prev, got)
		}
	}
}

func TestMergeFilterView(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		list := randSorted(rng, rng.Intn(600), 6)
		// Non-decreasing column with duplicates.
		col := make([]ID, rng.Intn(400))
		v := ID(0)
		for i := range col {
			v += ID(rng.Int63n(4))
			col[i] = v
		}
		var want []int
		MergeFilter(col, list, func(i int) { want = append(want, i) })
		var got []int
		MergeFilterView(col, Compress(list).View(), func(i int) { got = append(got, i) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: MergeFilterView = %v, want %v", trial, got, want)
		}
		var gotRaw []int
		MergeFilterView(col, ViewOf(list), func(i int) { gotRaw = append(gotRaw, i) })
		if !reflect.DeepEqual(gotRaw, want) {
			t.Fatalf("trial %d: raw MergeFilterView = %v, want %v", trial, gotRaw, want)
		}
	}
}

// finishPacked encodes b's entries behind a prefix and in front of
// trailing bytes that are not the vector's, and decodes them from there:
// the encoding must delimit itself. It checks EncodedLen on the way.
func finishPacked(t *testing.T, b *PackedBuilder) Packed {
	t.Helper()
	n := b.Len()
	enc := b.Finish([]byte("prefix"))[len("prefix"):]
	if b.Len() != 0 {
		t.Fatal("Finish left entries in the builder")
	}
	if n == 0 {
		if len(enc) != 0 {
			t.Fatalf("an empty vector encoded to %d bytes", len(enc))
		}
		return Packed{}
	}
	p := DecodePacked(append(enc, 0xff, 0xff, 0xff))
	if p.EncodedLen() != len(enc) {
		t.Fatalf("EncodedLen = %d, encoding has %d bytes", p.EncodedLen(), len(enc))
	}
	return p
}

func TestPackedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b, cb PackedBuilder // reused across trials, as the index builds reuse theirs
	for trial := 0; trial < 50; trial++ {
		nKeys := rng.Intn(120)
		keys := randSorted(rng, nKeys, 9)
		lists := make([][]ID, nKeys)
		total := 0
		for i, k := range keys {
			lists[i] = randSorted(rng, rng.Intn(300)+1, 11)
			total += len(lists[i])
			b.Append(k, lists[i])
		}
		p := finishPacked(t, &b)
		if p.Len() != nKeys || p.Total() != total {
			t.Fatalf("trial %d: Len/Total = %d/%d, want %d/%d", trial, p.Len(), p.Total(), nKeys, total)
		}

		// Range reproduces every entry in order.
		i := 0
		p.Range(func(k ID, v View) bool {
			if k != keys[i] {
				t.Fatalf("trial %d: Range key %d = %d, want %d", trial, i, k, keys[i])
			}
			if got := v.AppendTo(nil); !reflect.DeepEqual(got, lists[i]) {
				t.Fatalf("trial %d: Range list %d mismatch", trial, i)
			}
			i++
			return true
		})
		if i != nKeys {
			t.Fatalf("trial %d: Range visited %d, want %d", trial, i, nKeys)
		}

		// A copy assembled from views — compressed payloads taken over
		// as bytes, raw slices encoded — is the same vector.
		i = 0
		p.Range(func(k ID, v View) bool {
			if i%2 == 1 {
				v = ViewOf(lists[i])
			}
			cb.AppendView(k, v)
			i++
			return true
		})
		if c := finishPacked(t, &cb); !reflect.DeepEqual(c, p) {
			t.Fatalf("trial %d: AppendView copy differs from the vector it copied", trial)
		}

		// Find hits every present key and misses absent ones.
		present := make(map[ID]int, nKeys)
		for i, k := range keys {
			present[k] = i
		}
		maxK := ID(10)
		if nKeys > 0 {
			maxK = keys[nKeys-1] + 5
		}
		for probe := ID(0); probe <= maxK; probe++ {
			v, ok := p.Find(probe)
			if idx, want := present[probe]; want != ok {
				t.Fatalf("trial %d: Find(%d) ok = %v, want %v", trial, probe, ok, want)
			} else if ok {
				if got := v.AppendTo(nil); !reflect.DeepEqual(got, lists[idx]) {
					t.Fatalf("trial %d: Find(%d) list mismatch", trial, probe)
				}
			}
		}

		// entry(i) agrees with Range order.
		for i, k := range keys {
			gk, gv := p.entry(i)
			if gk != k {
				t.Fatalf("trial %d: entry(%d) key = %d, want %d", trial, i, gk, k)
			}
			if got := gv.AppendTo(nil); !reflect.DeepEqual(got, lists[i]) {
				t.Fatalf("trial %d: entry(%d) list mismatch", trial, i)
			}
		}
	}
}

func TestVecPackedAccessors(t *testing.T) {
	var b PackedBuilder
	b.Append(2, []ID{10, 20})
	b.Append(5, []ID{7})
	b.Append(9, []ID{1, 2, 3})
	v := FromPacked(finishPacked(t, &b))

	if v.Len() != 3 {
		t.Fatalf("Len = %d", v.Len())
	}
	if got := v.Keys(); !reflect.DeepEqual(got, []ID{2, 5, 9}) {
		t.Fatalf("Keys = %v", got)
	}
	if v.Key(1) != 5 {
		t.Fatalf("Key(1) = %d", v.Key(1))
	}
	l, ok := v.Find(5)
	if !ok || !reflect.DeepEqual(l.IDs(), []ID{7}) {
		t.Fatalf("Find(5) = %v, %v", l, ok)
	}
	if _, ok := v.Find(4); ok {
		t.Fatal("Find(4) should miss")
	}
	if got := v.List(2).IDs(); !reflect.DeepEqual(got, []ID{1, 2, 3}) {
		t.Fatalf("List(2) = %v", got)
	}

	// Mutation unpacks, preserving content.
	v.Insert(7, FromSorted([]ID{42}))
	if v.pk != nil {
		t.Fatal("Insert did not unpack")
	}
	if got := v.Keys(); !reflect.DeepEqual(got, []ID{2, 5, 7, 9}) {
		t.Fatalf("Keys after Insert = %v", got)
	}
	l, _ = v.Find(9)
	if !reflect.DeepEqual(l.IDs(), []ID{1, 2, 3}) {
		t.Fatalf("Find(9) after unpack = %v", l.IDs())
	}
}

func TestCompressedListMutation(t *testing.T) {
	l := FromCompressed(Compress([]ID{3, 8, 12}))
	if !l.Compressed() {
		t.Fatal("list should start compressed")
	}
	if !l.Contains(8) || l.Contains(9) {
		t.Fatal("Contains on compressed list wrong")
	}
	if !l.Insert(9) {
		t.Fatal("Insert(9) reported unchanged")
	}
	if l.Compressed() {
		t.Fatal("Insert did not decompress")
	}
	if got := l.IDs(); !reflect.DeepEqual(got, []ID{3, 8, 9, 12}) {
		t.Fatalf("IDs after Insert = %v", got)
	}
}

func TestCompressSpaceWin(t *testing.T) {
	// A dense list must compress well below 8 bytes/entry.
	ids := make([]ID, 10000)
	for i := range ids {
		ids[i] = ID(i*3 + 1)
	}
	c := Compress(ids)
	if got, raw := c.SizeBytes(), 8*len(ids); got*2 > raw {
		t.Fatalf("compressed %d bytes vs raw %d: less than 2x win", got, raw)
	}
}
