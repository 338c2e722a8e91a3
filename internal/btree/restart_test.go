package btree

// Tests of the compressed leaf's restart points: seeks against the raw
// leaf as oracle, the page budget, the decoder under a fuzzer, and the
// pin a scan holds on its leaf.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"hexastore/internal/iofault"
	"hexastore/internal/pagefile"
)

// pred and succ are k's neighbours in key order (k itself at the ends).
func pred(k Key) Key {
	for i := 2; i >= 0; i-- {
		if k[i] > 0 {
			k[i]--
			return k
		}
		k[i] = ^uint64(0)
	}
	return Key{}
}

func succ(k Key) Key {
	for i := 2; i >= 0; i-- {
		if k[i] < ^uint64(0) {
			k[i]++
			return k
		}
		k[i] = 0
	}
	return MaxKey
}

// scanUpTo collects at most limit keys of [lo, hi].
func scanUpTo(t *testing.T, tr *Tree, lo, hi Key, limit int) []Key {
	t.Helper()
	var out []Key
	if err := tr.Scan(lo, hi, func(k Key) bool {
		out = append(out, k)
		return len(out) < limit
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// compareTrees checks that every read of comp answers as the same read
// of raw: scans from each key of the set, its two neighbours and the two
// ends, to upper bounds a few keys, a restart interval and several
// leaves away; every 1- and 2-component prefix; membership.
func compareTrees(t *testing.T, comp, raw *Tree) {
	t.Helper()
	keys := collect(t, raw, Key{}, MaxKey)
	if uint64(len(keys)) != raw.Len() || comp.Len() != raw.Len() {
		t.Fatalf("raw scan %d keys, raw Len %d, comp Len %d", len(keys), raw.Len(), comp.Len())
	}
	at := func(i int) Key {
		if i < len(keys) {
			return keys[i]
		}
		return MaxKey
	}
	check := func(lo, hi Key, limit int) {
		got, want := scanUpTo(t, comp, lo, hi, limit), scanUpTo(t, raw, lo, hi, limit)
		if !slices.Equal(got, want) {
			t.Fatalf("Scan(%v, %v) limit %d: compressed %d keys %v..., raw %d keys %v...",
				lo, hi, limit, len(got), head(got), len(want), head(want))
		}
	}
	probe := func(lo Key, i int) {
		check(lo, lo, 2)
		check(lo, at(i+3), 8)
		check(lo, at(i+restartEvery+1), 2*restartEvery)
		check(lo, MaxKey, 3)
		if i%16 == 0 {
			check(lo, at(i+2500), 4000)
		}
	}
	probe(Key{}, 0)
	probe(MaxKey, len(keys))
	for i, k := range keys {
		probe(pred(k), i)
		probe(k, i)
		probe(succ(k), i+1)
		for _, q := range []Key{pred(k), k, succ(k)} {
			got, err := comp.Contains(q)
			if err != nil {
				t.Fatal(err)
			}
			if want, _ := raw.Contains(q); got != want {
				t.Fatalf("Contains(%v): compressed %v, raw %v", q, got, want)
			}
		}
	}

	all := func(scan func(fn func(Key) bool) error) []Key {
		var out []Key
		if err := scan(func(k Key) bool { out = append(out, k); return true }); err != nil {
			t.Fatal(err)
		}
		return out
	}
	seen1, seen2 := map[uint64]bool{}, map[[2]uint64]bool{}
	for _, k := range keys {
		for _, a := range []uint64{k[0] - 1, k[0], k[0] + 1} {
			if seen1[a] {
				continue
			}
			seen1[a] = true
			got := all(func(fn func(Key) bool) error { return comp.ScanPrefix1(a, fn) })
			want := all(func(fn func(Key) bool) error { return raw.ScanPrefix1(a, fn) })
			if !slices.Equal(got, want) {
				t.Fatalf("ScanPrefix1(%d): compressed %d keys, raw %d", a, len(got), len(want))
			}
		}
		for _, b := range []uint64{k[1] - 1, k[1], k[1] + 1} {
			if seen2[[2]uint64{k[0], b}] {
				continue
			}
			seen2[[2]uint64{k[0], b}] = true
			got := all(func(fn func(Key) bool) error { return comp.ScanPrefix2(k[0], b, fn) })
			want := all(func(fn func(Key) bool) error { return raw.ScanPrefix2(k[0], b, fn) })
			if !slices.Equal(got, want) {
				t.Fatalf("ScanPrefix2(%d, %d): compressed %d keys, raw %d", k[0], b, len(got), len(want))
			}
		}
	}
}

func head(keys []Key) []Key {
	if len(keys) > 3 {
		return keys[:3]
	}
	return keys
}

// TestSeekMatchesRawLeaves is the differential test of the restart
// seek: key sets chosen to put restart keys, leaf ends and lo in every
// relative position, read through compressed and raw leaves alike, then
// again after random mutations forced re-encodes and bursts.
func TestSeekMatchesRawLeaves(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	type keySet struct {
		name string
		keys []Key
	}
	var shared, distinct []Key
	for i := 0; i < 2000; i++ {
		shared = append(shared, Key{5, 9, uint64(10 + 3*i)})
		distinct = append(distinct, Key{uint64(2 + 7*i), rng.Uint64() >> 20, rng.Uint64() >> 40})
	}
	sets := []keySet{
		{"one key", []Key{{7, 8, 9}}},
		{"zero first", []Key{{0, 0, 0}, {0, 0, 1}, {0, 1, 0}, {1, 0, 0}}},
		{"largest id", []Key{{1, 1, ^uint64(0) - 1}, {1, 1, ^uint64(0)}, MaxKey}},
		{"mixed", randKeys(rng, 2000)},
		{"shared prefix", shared},
		{"distinct head", distinct},
	}
	// Single leaves whose last restart interval is empty, one key long
	// and full.
	for _, n := range []int{restartEvery - 1, restartEvery, restartEvery + 1, 3*restartEvery - 1, 3 * restartEvery, 3*restartEvery + 1} {
		keys := make([]Key, n)
		for i := range keys {
			keys[i] = Key{1, uint64(1 + i/10), uint64(100 + 2*i)}
		}
		sets = append(sets, keySet{fmt.Sprintf("%d keys", n), keys})
	}

	for i, set := range sets {
		keys := set.keys
		rng := rand.New(rand.NewSource(int64(100 + i)))
		t.Run(set.name, func(t *testing.T) {
			t.Parallel()
			comp, raw := newTestTree(t, true), newTestTree(t, false)
			for _, tr := range []*Tree{comp, raw} {
				if err := tr.BulkBuild(keys); err != nil {
					t.Fatal(err)
				}
			}
			if err := comp.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			compareTrees(t, comp, raw)

			// The same random inserts (two in three, near existing keys
			// and far from them) and deletes on both trees.
			for op := 0; op < 2000; op++ {
				k := keys[rng.Intn(len(keys))]
				switch rng.Intn(3) {
				case 0:
					k[2] += uint64(rng.Intn(5))
				case 1:
					k[rng.Intn(3)] = rng.Uint64() >> uint(rng.Intn(64))
				default:
					if _, err := raw.Delete(k); err != nil {
						t.Fatal(err)
					}
					if _, err := comp.Delete(k); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if _, err := raw.Insert(k); err != nil {
					t.Fatal(err)
				}
				if _, err := comp.Insert(k); err != nil {
					t.Fatal(err)
				}
			}
			if err := comp.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			compareTrees(t, comp, raw)
		})
	}
}

// leafCounts returns the key count of every leaf along the chain.
func leafCounts(t *testing.T, tr *Tree) []int {
	t.Helper()
	p, err := tr.findLeaf(Key{})
	if err != nil {
		t.Fatal(err)
	}
	var counts []int
	for {
		counts = append(counts, nodeCount(p.Data()))
		next := leafNext(p.Data())
		tr.pf.Release(p)
		if next == pagefile.NilPage {
			return counts
		}
		if p, err = tr.pf.Get(next); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestartsAddNoPages checks that restart keys and tables are paid
// from the fill slack: BulkBuild closes every leaf exactly where the
// plain delta encoding, with no restart points, crosses 90% of the page.
func TestRestartsAddNoPages(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	// Shaped like one ordering of a dictionary-encoded dataset: many
	// heads of a few keys each, ids up to a few million.
	var keys []Key
	for s := uint64(1); len(keys) < 200000; s += 1 + uint64(rng.Intn(3)) {
		for p := uint64(1); p < 18; p += 1 + uint64(rng.Intn(6)) {
			o := uint64(rng.Intn(1 << 22))
			for n := rng.Intn(4); n >= 0; n-- {
				o += 1 + uint64(rng.Intn(1<<uint(rng.Intn(16))))
				keys = append(keys, Key{s, p, o})
			}
		}
	}

	var want []int
	var prev Key
	plain, start := 0, 0
	for i, k := range keys {
		n := len(appendKeyDelta(nil, prev, k, i == start))
		if plain+n > compLeafCap*9/10 && i > start {
			want = append(want, i-start)
			start, plain = i, len(appendKeyDelta(nil, prev, k, true))
		} else {
			plain += n
		}
		prev = k
	}
	want = append(want, len(keys)-start)

	tr := newTestTree(t, true)
	if err := tr.BulkBuild(keys); err != nil {
		t.Fatal(err)
	}
	if got := leafCounts(t, tr); !slices.Equal(got, want) {
		t.Fatalf("BulkBuild made %d leaves, the plain delta encoding at 90%% fill makes %d", len(got), len(want))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBulkBuildRestartsOutgrowSlack feeds BulkBuild the one key shape
// whose restart points do not fit the fill slack — ten-byte ids one
// apart — and expects leaves that still fit their pages.
func TestBulkBuildRestartsOutgrowSlack(t *testing.T) {
	keys := make([]Key, 5000)
	for i := range keys {
		keys[i] = Key{1 << 63, 1 << 63, 1<<63 + uint64(i)}
	}
	comp, raw := newTestTree(t, true), newTestTree(t, false)
	for _, tr := range []*Tree{comp, raw} {
		if err := tr.BulkBuild(keys); err != nil {
			t.Fatal(err)
		}
	}
	if err := comp.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	compareTrees(t, comp, raw)
}

// compLeafPage encodes keys as a compressed leaf payload.
func compLeafPage(keys []Key) []byte {
	var e leafEncoder
	encodeLeafStream(&e, keys)
	d := make([]byte, pagefile.PayloadSize)
	writeCompLeaf(d, &e)
	return d
}

// TestCheckCompLeafRejects damages a valid leaf in each way the
// validation names and expects an error for every one.
func TestCheckCompLeafRejects(t *testing.T) {
	keys := make([]Key, 3*restartEvery+5)
	for i := range keys {
		keys[i] = Key{3, uint64(i / 7), uint64(1000 + 5*i)}
	}
	valid := compLeafPage(keys)
	if err := checkCompLeaf(valid); err != nil {
		t.Fatal(err)
	}
	streamLen := compLeafStreamLen(valid)
	table := compLeafDataOff + streamLen
	entry := func(d []byte, r int) uint16 { return binary.LittleEndian.Uint16(d[table+2*r:]) }
	damage := map[string]func(d []byte){
		"count above the keys":    func(d []byte) { setNodeCount(d, len(keys)+1) },
		"count below the keys":    func(d []byte) { setNodeCount(d, len(keys)-1) },
		"count needs more table":  func(d []byte) { setNodeCount(d, 60000) },
		"stream length short":     func(d []byte) { binary.LittleEndian.PutUint16(d[8:], uint16(streamLen-1)) },
		"stream length long":      func(d []byte) { binary.LittleEndian.PutUint16(d[8:], uint16(streamLen+1)) },
		"stream length past page": func(d []byte) { binary.LittleEndian.PutUint16(d[8:], pagefile.PayloadSize) },
		"offsets not ascending": func(d []byte) {
			a, b := entry(d, 0), entry(d, 1)
			binary.LittleEndian.PutUint16(d[table:], b)
			binary.LittleEndian.PutUint16(d[table+2:], a)
		},
		"offset out of range":        func(d []byte) { binary.LittleEndian.PutUint16(d[table+4:], uint16(streamLen+40)) },
		"offset off a key boundary":  func(d []byte) { binary.LittleEndian.PutUint16(d[table+2:], entry(d, 1)+1) },
		"offset on the wrong key":    func(d []byte) { binary.LittleEndian.PutUint16(d[table:], entry(d, 1)) },
		"truncated varint":           func(d []byte) { d[compLeafDataOff+streamLen-1] |= 0x80 },
		"keys out of order":          func(d []byte) { d[compLeafDataOff+2] = 0x7f },
		"page shorter than a header": func(d []byte) {},
	}
	for name, mutate := range damage {
		d := slices.Clone(valid)
		mutate(d)
		if name == "page shorter than a header" {
			d = d[:compLeafDataOff-1]
		}
		if err := checkCompLeaf(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzCompLeaf drives the compressed-leaf codec from both ends. Read as
// a list of key deltas, the input becomes a sorted key set that must
// survive encode → validate → decode and be found by every seek. Read
// as a page payload, it must be rejected by checkCompLeaf or else
// behave as a leaf — and neither reading may panic or leave the page.
func FuzzCompLeaf(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 1, 0, 0, 2, 9, 200})
	f.Add(bytes.Repeat([]byte{2, 1, 7}, 3*restartEvery))
	f.Add(compLeafPage([]Key{{1, 2, 3}, {1, 2, 4}, {2, 0, 0}}))
	long := make([]Key, 2*restartEvery+1)
	for i := range long {
		long[i] = Key{9, 9, uint64(i)}
	}
	f.Add(compLeafPage(long)[:600])

	f.Fuzz(func(t *testing.T, data []byte) {
		// As deltas: three bytes a key — which component moves, by how
		// much, shifted how far.
		var keys []Key
		var e leafEncoder
		var k Key
		for i := 0; i+3 <= len(data); i += 3 {
			c := int(data[i] % 3)
			next := k
			next[c] += (uint64(data[i+1]) + 1) << (data[i+2] % 57)
			for j := c + 1; j < 3; j++ {
				next[j] = uint64(data[i+2]) >> uint(j)
			}
			if !Less(k, next) {
				break // the component wrapped around
			}
			before := e
			if e.add(next); e.size() > compLeafCap {
				e = before
				break
			}
			k = next
			keys = append(keys, k)
		}
		d := make([]byte, pagefile.PayloadSize)
		writeCompLeaf(d, &e)
		if err := checkCompLeaf(d); err != nil {
			t.Fatalf("encoded leaf of %d keys rejected: %v", len(keys), err)
		}
		if got := decodeCompLeaf(d, nil); !slices.Equal(got, keys) {
			t.Fatalf("decoded %d keys, encoded %d", len(got), len(keys))
		}
		for i, k := range keys {
			for _, lo := range []Key{pred(k), k, succ(k)} {
				want, _ := slices.BinarySearchFunc(keys, lo, Compare)
				it := seekCompLeaf(d, lo)
				if it.i > want || want-it.i > restartEvery {
					t.Fatalf("seek(%v) starts at key %d, first key >= lo is %d", lo, it.i, want)
				}
				for it.next() && Less(it.k, lo) {
				}
				if want < len(keys) && it.k != keys[want] {
					t.Fatalf("seek(%v) near key %d reached %v, want %v", lo, i, it.k, keys[want])
				}
				if _, member := slices.BinarySearchFunc(keys, lo, Compare); containsCompLeaf(d, lo) != member {
					t.Fatalf("contains(%v) = %v", lo, !member)
				}
			}
		}

		// As a payload, whole and cut short.
		if len(data) > pagefile.PayloadSize {
			data = data[:pagefile.PayloadSize]
		}
		if err := checkCompLeaf(data); err == nil && len(data) < compLeafDataOff {
			t.Fatalf("accepted a %d-byte payload", len(data))
		}
		clear(d)
		copy(d, data)
		if checkCompLeaf(d) != nil {
			return
		}
		got := decodeCompLeaf(d, nil)
		if len(got) != nodeCount(d) || !slices.IsSortedFunc(got, Compare) {
			t.Fatalf("accepted payload decodes to %d keys for count %d, sorted %v", len(got), nodeCount(d), slices.IsSortedFunc(got, Compare))
		}
		for _, k := range got {
			if !containsCompLeaf(d, k) {
				t.Fatalf("accepted payload: key %v not found by seek", k)
			}
		}
	})
}

// TestScanLeavesNothingPinned runs scans that end every way a scan can —
// at the range's end, stopped by fn in the first leaf or leaves later,
// and by a read error at each depth of the descent and along the leaf
// chain — through a 4-page pool, and then proves no page is still
// pinned: Free refuses a pinned page.
func TestScanLeavesNothingPinned(t *testing.T) {
	for _, compress := range []bool{true, false} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			inj := iofault.NewInjector(nil)
			pf, err := pagefile.Create(filepath.Join(t.TempDir(), "t.db"), pagefile.Options{CacheSize: 4, FS: inj})
			if err != nil {
				t.Fatal(err)
			}
			defer pf.Close()
			tr := New(pf, 0, 1)
			tr.SetCompression(compress)
			rng := rand.New(rand.NewSource(24))
			keys := make([]Key, 60000)
			for i := range keys {
				keys[i] = Key{uint64(i / 100), uint64(i % 100), rng.Uint64() >> 30}
			}
			if err := tr.BulkBuild(keys); err != nil {
				t.Fatal(err)
			}
			if pf.NumPages() < 40 {
				t.Fatalf("tree of %d pages does not exceed the pool", pf.NumPages())
			}

			for i := 0; i < 400; i++ {
				lo := keys[rng.Intn(len(keys)/2)]
				stopAfter := []int{1, 2, 50, 3000, len(keys)}[i%5]
				var failAt int64
				if i%2 == 1 {
					// Fail one of the next reads; a scan this long makes
					// more than the pool holds, so the fault is spent.
					stopAfter = len(keys)
					failAt = inj.Count(iofault.OpRead) + 1 + int64(i/2%6)
					inj.AddFault(iofault.Fault{Op: iofault.OpRead, Nth: failAt})
				}
				n := 0
				err := tr.Scan(lo, MaxKey, func(Key) bool { n++; return n < stopAfter })
				switch {
				case failAt == 0 && err != nil:
					t.Fatal(err)
				case failAt != 0 && !errors.Is(err, iofault.ErrInjected):
					t.Fatalf("scan with read %d failing returned %v after %d keys", failAt, err, n)
				}
				if _, err := tr.Contains(lo); err != nil {
					t.Fatal(err)
				}
			}

			for id := 1; id < pf.NumPages(); id++ {
				if err := pf.Free(pagefile.PageID(id)); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
