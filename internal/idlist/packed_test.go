package idlist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"testing"
)

// checkPacked encodes keys[i] → lists[i] as a packed vector and holds
// every accessor to the input: Len, Total, Range, the key cursor's
// ascending seeks, Find on every key and on the absent keys beside them,
// a key cursor's Seeks in the order seeks spells (checkSeeks) and
// MergeKeys (checkMergeKeys). A copy rebuilt from the vector's own views — compressed
// ones taken over as bytes, every third one re-encoded from a raw slice —
// must be the same bytes, entry for entry.
func checkPacked(t *testing.T, keys []ID, lists [][]ID, seeks []byte) {
	t.Helper()
	var b PackedBuilder
	total := 0
	for i, k := range keys {
		b.Append(k, lists[i])
		total += len(lists[i])
	}
	enc := b.Finish(nil)
	if len(keys) == 0 {
		if len(enc) != 0 {
			t.Fatalf("an empty vector encoded to %x", enc)
		}
		return
	}
	p := DecodePacked(append(slices.Clone(enc), 0xff, 0xff))
	if p.EncodedLen() != len(enc) || p.Len() != len(keys) || p.Total() != total {
		t.Fatalf("EncodedLen/Len/Total = %d/%d/%d, want %d/%d/%d", p.EncodedLen(), p.Len(), p.Total(), len(enc), len(keys), total)
	}

	i := 0
	p.Range(func(k ID, v View) bool {
		if k != keys[i] || !slices.Equal(v.AppendTo(nil), lists[i]) {
			t.Fatalf("Range entry %d = %d → %v, want %d → %v", i, k, v.AppendTo(nil), keys[i], lists[i])
		}
		if i%3 == 2 {
			v = ViewOf(lists[i])
		}
		b.AppendView(k, v)
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("Range visited %d entries, want %d", i, len(keys))
	}
	if cp := b.Finish(nil); !bytes.Equal(cp, enc) {
		t.Fatalf("the copy assembled from views is %x, the vector %x", cp, enc)
	}

	// Ascending SeekGE sequences: every key with its neighbours (group
	// heads, the gaps between groups), past the last key, every key
	// seeked twice, and sparse strides that jump whole groups.
	var targets []ID
	for _, k := range keys {
		for _, x := range []ID{k - 1, k, k, k + 1} {
			if len(targets) == 0 || x >= targets[len(targets)-1] {
				targets = append(targets, x)
			}
		}
	}
	if last := keys[len(keys)-1]; last < ^ID(0) {
		targets = append(targets, last+1, ^ID(0))
	}
	for _, stride := range []int{1, 3, 7, 4*packedGroup + 1} {
		for first := 0; first < stride && first < len(targets); first++ {
			cur := p.Keys()
			for i := first; i < len(targets); i += stride {
				want, ok := ID(0), false
				j, _ := slices.BinarySearch(keys, targets[i])
				if j < len(keys) {
					want, ok = keys[j], true
				}
				if got, gotOK := cur.SeekGE(targets[i]); got != want || gotOK != ok {
					t.Fatalf("stride %d from %d: SeekGE(%d) = %d,%v; want %d,%v", stride, first, targets[i], got, gotOK, want, ok)
				}
			}
		}
	}

	present := make(map[ID]bool, len(keys))
	for _, k := range keys {
		present[k] = true
	}
	for i, k := range keys {
		if v, ok := p.Find(k); !ok || !slices.Equal(v.AppendTo(nil), lists[i]) {
			t.Fatalf("Find(%d) = %v, %v; want %v", k, v.AppendTo(nil), ok, lists[i])
		}
		for _, probe := range []ID{k - 1, k + 1} {
			if _, ok := p.Find(probe); ok != present[probe] {
				t.Fatalf("Find(%d) found = %v, want %v", probe, ok, present[probe])
			}
		}
	}
	checkSeeks(t, p, keys, lists, seeks)
	checkKernels(t, p, keys, lists, seeks)
	checkMergeKeys(t, p, keys, seeks)
}

// checkMergeKeys merges the vector's keys, both ways round, with its own
// and with those of a vector holding the keys ops picks and the absent
// keys beside them, and holds the keys met, and both cursors' views at
// each, to the keys the two share.
func checkMergeKeys(t *testing.T, p Packed, keys []ID, ops []byte) {
	t.Helper()
	var qb PackedBuilder
	var shared []ID
	prev := ID(0)
	fits := func(k ID) bool { return k-prev < 1<<63 } // PackedBuilder's key-delta limit
	for i, k := range keys {
		if i < len(ops) && ops[i]&1 == 0 && (i+1 == len(keys) || fits(keys[i+1])) {
			continue
		}
		if k > 0 && (i == 0 || keys[i-1] < k-1) && fits(k-1) {
			qb.Append(k-1, []ID{k})
		}
		qb.Append(k, []ID{k})
		shared, prev = append(shared, k), k
	}
	var q Packed // the empty vector has no encoding
	if enc := qb.Finish(nil); len(enc) > 0 {
		q = DecodePacked(enc)
	}
	for _, tc := range []struct {
		q    Packed
		want []ID
	}{{p, keys}, {q, shared}} {
		for _, swap := range []bool{false, true} {
			x, y := p, tc.q
			if swap {
				x, y = y, x
			}
			a, b := x.Keys(), y.Keys()
			var got []ID
			MergeKeys(&a, &b, func(k ID) {
				va, _ := x.Find(k)
				vb, _ := y.Find(k)
				if !slices.Equal(a.View().AppendTo(nil), va.AppendTo(nil)) || !slices.Equal(b.View().AppendTo(nil), vb.AppendTo(nil)) {
					t.Fatalf("MergeKeys at %d: the cursors' views are not their entries'", k)
				}
				got = append(got, k)
			})
			if !slices.Equal(got, tc.want) {
				t.Fatalf("MergeKeys (swap=%v) met %v, want %v", swap, got, tc.want)
			}
		}
	}
}

// checkKernels holds the whole-vector kernels to the input lists:
// RangePairs run to the end and stopped at pair counts ops picks, a
// cursor's Next over every entry, and MarkKeys in steps of the sizes ops
// spells into a bitset that holds the keys below 2^16.
func checkKernels(t *testing.T, p Packed, keys []ID, lists [][]ID, ops []byte) {
	t.Helper()
	var pairs [][2]ID
	for i, k := range keys {
		for _, v := range lists[i] {
			pairs = append(pairs, [2]ID{k, v})
		}
	}
	stops := []int{len(pairs) + 1} // never: the walk gets to the end
	for _, b := range ops[:min(len(ops), 8)] {
		stops = append(stops, 1+int(b)%len(pairs))
	}
	for _, stop := range stops {
		var got [][2]ID
		end := p.RangePairs(func(k, v ID) bool {
			got = append(got, [2]ID{k, v})
			return len(got) < stop
		})
		want := pairs[:min(stop, len(pairs))]
		if !slices.Equal(got, want) || end != (stop > len(pairs)) {
			t.Fatalf("RangePairs stopped at pair %d: %d pairs, end %v; want %d", stop, len(got), end, len(want))
		}
	}

	cur := p.Keys()
	for i := 0; ; i++ {
		k, ok := cur.Next()
		if !ok {
			if i != len(keys) {
				t.Fatalf("Next ended after %d entries, want %d", i, len(keys))
			}
			break
		}
		if k != keys[i] || !slices.Equal(cur.View().AppendTo(nil), lists[i]) {
			t.Fatalf("Next entry %d = %d → %v, want %d → %v", i, k, cur.View().AppendTo(nil), keys[i], lists[i])
		}
	}

	set := make([]uint64, min(keys[len(keys)-1]>>6+1, 1<<10))
	cur = p.Keys()
	marked := 0
	for i := 0; ; i++ {
		n := 1 + i%7
		if len(ops) > 0 {
			n = 1 + int(ops[i%len(ops)])%(2*packedGroup+3)
		}
		m := cur.MarkKeys(set, n)
		if m > n || m < n && marked+m != len(keys) {
			t.Fatalf("MarkKeys(%d) after %d of %d keys moved over %d", n, marked, len(keys), m)
		}
		if marked += m; m == 0 {
			break
		}
	}
	if last, _ := cur.SeekGE(0); marked != len(keys) || last != keys[len(keys)-1] {
		t.Fatalf("MarkKeys marked %d keys and left the cursor on %d, want %d and the last key %d", marked, last, len(keys), keys[len(keys)-1])
	}
	ones := 0
	for _, w := range set {
		ones += bits.OnesCount64(w)
	}
	for _, k := range keys {
		if k>>6 >= ID(len(set)) {
			break
		}
		if set[k>>6]&(1<<(k&63)) == 0 {
			t.Fatalf("MarkKeys left key %d unmarked", k)
		}
		ones--
	}
	if ones != 0 {
		t.Fatalf("MarkKeys marked %d ids that are not keys", ones)
	}
}

// checkSeeks drives one key cursor through a Seek per byte of ops —
// forward, backward, repeated, absent and past the last key, as the byte
// picks — and holds each result, and View after each hit, to the input
// lists and to Find.
func checkSeeks(t *testing.T, p Packed, keys []ID, lists [][]ID, ops []byte) {
	t.Helper()
	cur := p.Keys()
	target := keys[0]
	for step, b := range ops {
		k := keys[int(b>>2)%len(keys)]
		switch b & 3 {
		case 0: // a key of the vector
			target = k
		case 1: // beside one: absent unless its neighbour is a key
			if b&4 != 0 {
				target = k + 1
			} else {
				target = k - 1
			}
		case 2: // past the last key, if there is room
			if last := keys[len(keys)-1]; last+ID(b) > last {
				target = last + ID(b)
			}
		case 3: // the previous target again
		}
		j, want := slices.BinarySearch(keys, target)
		ok := cur.Seek(target)
		fv, fok := p.Find(target)
		if ok != want || fok != want {
			t.Fatalf("seek %d: Seek(%d) = %v, Find found %v; want %v", step, target, ok, fok, want)
		}
		if ok && (!slices.Equal(cur.View().AppendTo(nil), lists[j]) || !slices.Equal(fv.AppendTo(nil), lists[j])) {
			t.Fatalf("seek %d: View after Seek(%d) = %v, Find = %v; want %v", step, target, cur.View().AppendTo(nil), fv.AppendTo(nil), lists[j])
		}
	}
}

// seekOps is the Seek order of the table-driven vectors: every byte once,
// so every kind of seek meets every key position a byte can name.
var seekOps = func() []byte {
	ops := make([]byte, 256)
	for i := range ops {
		ops[i] = byte(i * 97)
	}
	return ops
}()

// packedLists returns a list per key: a singleton where one(i), else
// n ids; ids start high enough for multi-byte varints where wide.
func packedLists(keys []ID, one func(i int) bool, n int, wide bool) [][]ID {
	lists := make([][]ID, len(keys))
	for i := range keys {
		start := ID(i*977 + 1)
		if wide {
			start += 1 << 60
		}
		m := n
		if one(i) {
			m = 1
		}
		for j := 0; j < m; j++ {
			lists[i] = append(lists[i], start+ID(j*(i%5+1)))
		}
	}
	return lists
}

// TestPackedSingletonEntries mixes one-id entries, whose value rides in
// the entry header, with longer ones in every position relative to the
// skip table's 16-entry groups, over dense keys and over key deltas near
// 2^62.
func TestPackedSingletonEntries(t *testing.T) {
	patterns := map[string]func(i, n int) bool{
		"all singletons":       func(i, n int) bool { return true },
		"no singletons":        func(i, n int) bool { return false },
		"group heads":          func(i, n int) bool { return i%packedGroup == 0 },
		"all but group heads":  func(i, n int) bool { return i%packedGroup != 0 },
		"last entry":           func(i, n int) bool { return i == n-1 },
		"alternate":            func(i, n int) bool { return i%2 == 0 },
		"group tails and last": func(i, n int) bool { return i%packedGroup == packedGroup-1 || i == n-1 },
	}
	for _, n := range []int{1, 2, 16, 17, 33} {
		for _, wide := range []bool{false, true} {
			keys := make([]ID, n)
			for i := range keys {
				keys[i] = ID(3*i + 1)
			}
			if wide { // the first key and two deltas near 2^62
				keys[0] = 1<<62 - 1
				for i := 1; i < n; i++ {
					keys[i] = keys[i-1] + ID(i)
					if i == 1 || i == n/2 {
						keys[i] += 1 << 62
					}
				}
			}
			for name, one := range patterns {
				for _, long := range []int{2, BlockSize + 3} {
					t.Run(fmt.Sprintf("%d keys/wide=%v/%s/%d ids", n, wide, name, long), func(t *testing.T) {
						checkPacked(t, keys, packedLists(keys, func(i int) bool { return one(i, n) }, long, wide), seekOps)
					})
				}
			}
		}
	}
}

// TestPackedEncodingBytes pins the entry format on a two-entry vector: a
// one-id entry is its tagged key delta and its value, a longer one keeps
// its length and byte length.
func TestPackedEncodingBytes(t *testing.T) {
	var b PackedBuilder
	b.Append(5, []ID{7})
	b.Append(9, []ID{1, 2})
	want := []byte{
		2, 3, 7, // nKeys, total, dataLen
		5<<1 | 1, 7, // key 5, one id: 7
		4 << 1, 2, 2, 1, 1, // key 9 = 5+4, two ids in two bytes: 1, +1
	}
	if got := b.Finish(nil); !bytes.Equal(got, want) {
		t.Fatalf("encoded %v, want %v", got, want)
	}
}

// TestPackedKeyDeltaLimit: a key delta — the first key included — of
// 2^63 or more does not fit the tagged header, and the builder refuses
// it; one less is accepted.
func TestPackedKeyDeltaLimit(t *testing.T) {
	for _, keys := range [][]ID{{1 << 63}, {1, 1 + 1<<63}, {5, 6, 7 + 1<<63}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("keys %v: no panic", keys)
				}
			}()
			var b PackedBuilder
			for _, k := range keys {
				b.Append(k, []ID{1})
			}
		}()
	}
	checkPacked(t, []ID{1<<63 - 1, 1<<64 - 2}, [][]ID{{3}, {4, 5}}, seekOps)
}

// FuzzPackedVector turns bytes into a key set and list lengths — per
// entry a uvarint key gap (up to 2^62) and a length byte, below 160 a
// one-id list — and holds every accessor of the encoded vector to them,
// the key cursor's SeekGE sequences included (on vectors of up to and of
// more than one skip-table group). The same bytes, read again, are the
// order of a key cursor's Seeks (checkSeeks).
func FuzzPackedVector(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		seeks := data
		var keys []ID
		var lists [][]ID
		var prev ID
		for len(data) >= 2 && len(keys) < 200 {
			g, k := binary.Uvarint(data)
			if k <= 0 || k >= len(data) {
				break
			}
			lb := data[k]
			data = data[k+1:]
			key := prev + 1 + ID(g%(1<<62))
			if key <= prev {
				break // past 2^64
			}
			n := 1
			if lb >= 160 {
				n = int(lb-159) * 3
			}
			list := make([]ID, n)
			for j := range list {
				list[j] = 1 + ID(lb)<<(lb%50) + ID(j*(int(key%5)+1))
			}
			keys, lists, prev = append(keys, key), append(lists, list), key
		}
		checkPacked(t, keys, lists, seeks)
	})
}

// BenchmarkPackedFind looks up keys in random order — half of them
// present — in a vector within one skip-table group and in one of many
// groups.
func BenchmarkPackedFind(b *testing.B) {
	for _, nKeys := range []int{12, 4096} {
		b.Run(fmt.Sprintf("keys=%d", nKeys), func(b *testing.B) {
			keys := make([]ID, nKeys)
			for i := range keys {
				keys[i] = ID(2*i + 10)
			}
			p := DecodePacked(func() []byte {
				var pb PackedBuilder
				for i, k := range packedLists(keys, func(i int) bool { return i%3 != 0 }, 4, false) {
					pb.Append(keys[i], k)
				}
				return pb.Finish(nil)
			}())
			probes := make([]ID, 1024)
			for i := range probes {
				probes[i] = ID(10 + (i*7919)%(2*nKeys))
			}
			b.ResetTimer()
			hits := 0
			for i := 0; i < b.N; i++ {
				if _, ok := p.Find(probes[i%len(probes)]); ok {
					hits++
				}
			}
			if hits == 0 {
				b.Fatal("no probe hit")
			}
		})
	}
}

// BenchmarkPackedKernels times the whole-vector kernels on a vector
// shaped like a semijoin's takesCourse vector: 65,536 keys three ids
// apart, each with a list of three. MarkKeys reports ns per key marked;
// RangePairs and the Range + View.Range walk it replaces, ns per pair.
func BenchmarkPackedKernels(b *testing.B) {
	keys := make([]ID, 1<<16)
	for i := range keys {
		keys[i] = ID(3*i + 1)
	}
	var pb PackedBuilder
	for i, l := range packedLists(keys, func(int) bool { return false }, 3, false) {
		pb.Append(keys[i], l)
	}
	p := DecodePacked(pb.Finish(nil))
	b.Run("MarkKeys", func(b *testing.B) {
		set := make([]uint64, (3<<16)/64+1)
		for i := 0; i < b.N; i++ {
			cur := p.Keys()
			for cur.MarkKeys(set, 1024) > 0 {
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
	})
	var sum ID
	b.Run("RangePairs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.RangePairs(func(k, v ID) bool {
				sum += k ^ v
				return true
			})
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p.Total()), "ns/pair")
	})
	b.Run("RangeView", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Range(func(k ID, v View) bool {
				v.Range(func(x ID) bool {
					sum += k ^ x
					return true
				})
				return true
			})
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p.Total()), "ns/pair")
	})
	if sum == 1 {
		b.Log(sum)
	}
}
