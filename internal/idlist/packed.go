package idlist

// Packed is the block-compressed rendering of a whole association
// vector: the sorted keys AND their terminal lists, laid out as one
// self-delimiting run of bytes. Where the raw Vec pays a slice header, a
// List allocation, and eight bytes per id, a packed vector pays a couple
// of delta varints per entry — which is what turns the paper's five-fold
// space overhead into roughly one compact copy per ordering — and it
// holds no pointer, so any number of them can sit back to back in one
// buffer the garbage collector never scans (core's index arena).
//
// Encoding:
//
//	uvarint nKeys      number of entries
//	uvarint total      sum of the terminal-list lengths
//	uvarint dataLen    byte length of the entries
//	skip table         only when nKeys > packedGroup: for every
//	                   packedGroup-th entry, its key (8 bytes LE) and its
//	                   byte offset into the entries (4 bytes LE)
//	entries            one per (key, list) pair in ascending key order:
//	    uvarint head       delta<<1 | single, delta = key − previous key
//	                       (the first entry stores the key itself)
//	    single = 1:
//	    uvarint value      the one list value — AppendCompressed's form of
//	                       a one-id list, which delimits itself
//	    single = 0:
//	    uvarint n          terminal-list length
//	    uvarint byteLen    byte length of the list payload that follows
//	    payload            AppendCompressed form of the n list values
//
// Most RDF terminal lists hold one id, so most entries pay two small
// varints and no framing. The skip table makes Find a binary search plus
// a bounded forward walk; byteLen makes the walk skip longer payloads
// without decoding them. Lookups hand out zero-copy Views into the bytes,
// which are immutable, so the views stay valid however the owning store
// evolves (mutation writes new vectors, it never edits one).

import "encoding/binary"

const (
	packedGroup = 16 // entry stride of the packed vector's key skip table
	skipEntry   = 12 // bytes per skip-table entry
)

// Packed is a packed association vector decoded for reading: a small
// value whose slices alias the encoded bytes. The zero value is the empty
// vector.
type Packed struct {
	nKeys int
	total int
	size  int    // byte length of the whole encoding
	skip  []byte // nil when the vector fits in one group
	data  []byte // the entries
}

// DecodePacked reads the header of the packed vector that starts at
// b[0]; b may extend past the vector's end.
func DecodePacked(b []byte) Packed {
	nKeys, pos := uvarintAt(b, 0)
	total, pos := uvarintAt(b, pos)
	dataLen, pos := uvarintAt(b, pos)
	p := Packed{nKeys: int(nKeys), total: int(total)}
	if p.nKeys > packedGroup {
		n := (p.nKeys + packedGroup - 1) / packedGroup * skipEntry
		p.skip = b[pos : pos+n]
		pos += n
	}
	p.size = pos + int(dataLen)
	p.data = b[pos:p.size]
	return p
}

// EncodedLen returns the byte length of the vector's encoding — header,
// skip table and entries. The empty vector has no encoding: 0.
func (p Packed) EncodedLen() int { return p.size }

// PackedBuilder accumulates (key, sorted list) entries in ascending key
// order and writes the packed vector into a buffer of the caller's.
// Finish leaves it empty but keeps its scratch space, so encoding a run
// of vectors allocates nothing per vector.
type PackedBuilder struct {
	nKeys   int
	total   int
	prevKey ID
	skip    []byte
	data    []byte
	list    []byte // one list's payload, between AppendCompressed and appendEntry
}

// Append adds an entry. Keys must arrive strictly increasing, less than
// 2^63 apart (the first key less than 2^63), and vals strictly
// increasing; dense dictionary ids keep all of it, so violations panic.
func (b *PackedBuilder) Append(key ID, vals []ID) {
	b.list = AppendCompressed(b.list[:0], vals)
	b.appendEntry(key, len(vals), b.list, nil)
}

// AppendView adds an entry whose list is v. A compressed view — an entry
// of another packed vector, say — is copied as the bytes it already is,
// with no decode and re-encode; a raw view is encoded like Append's slice.
func (b *PackedBuilder) AppendView(key ID, v View) {
	if v.isRaw {
		b.Append(key, v.raw)
		return
	}
	b.appendEntry(key, v.c.n, v.c.skip, v.c.data)
}

// appendEntry writes one entry whose n-value list payload is the
// concatenation of p1 and p2.
func (b *PackedBuilder) appendEntry(key ID, n int, p1, p2 []byte) {
	if b.nKeys > 0 && key <= b.prevKey {
		panic("idlist: PackedBuilder key out of order")
	}
	d := uint64(key - b.prevKey)
	if d >= 1<<63 {
		panic("idlist: PackedBuilder key delta ≥ 2^63")
	}
	if b.nKeys%packedGroup == 0 {
		b.skip = binary.LittleEndian.AppendUint64(b.skip, uint64(key))
		b.skip = binary.LittleEndian.AppendUint32(b.skip, uint32(len(b.data)))
	}
	if n == 1 {
		b.data = binary.AppendUvarint(b.data, d<<1|1)
	} else {
		b.data = binary.AppendUvarint(b.data, d<<1)
		b.data = binary.AppendUvarint(b.data, uint64(n))
		b.data = binary.AppendUvarint(b.data, uint64(len(p1)+len(p2)))
	}
	b.data = append(b.data, p1...)
	b.data = append(b.data, p2...)
	b.prevKey = key
	b.nKeys++
	b.total += n
}

// Len returns the number of entries appended so far.
func (b *PackedBuilder) Len() int { return b.nKeys }

// Finish appends the encoding of the entries added since the last Finish
// (nothing, if none) to dst and empties the builder.
func (b *PackedBuilder) Finish(dst []byte) []byte {
	if b.nKeys > 0 {
		dst = binary.AppendUvarint(dst, uint64(b.nKeys))
		dst = binary.AppendUvarint(dst, uint64(b.total))
		dst = binary.AppendUvarint(dst, uint64(len(b.data)))
		if b.nKeys > packedGroup {
			dst = append(dst, b.skip...)
		}
		dst = append(dst, b.data...)
	}
	*b = PackedBuilder{skip: b.skip[:0], data: b.data[:0], list: b.list[:0]}
	return dst
}

// Len returns the number of keys.
func (p Packed) Len() int { return p.nKeys }

// Total returns the sum of terminal-list lengths — the number of index
// entries the vector holds.
func (p Packed) Total() int { return p.total }

// uvarintAt is binary.Uvarint with a fast path for the one-byte values
// that dominate delta streams.
func uvarintAt(b []byte, pos int) (uint64, int) {
	if v := b[pos]; v < 0x80 {
		return uint64(v), pos + 1
	}
	v, k := binary.Uvarint(b[pos:])
	return v, pos + k
}

// headerAt decodes only the entry header at byte offset pos (whose key
// delta is relative to prevKey): the key, the list length, the body
// byte range, and the offset of the next entry. Walks over non-matching
// entries stay header-only — no view construction, no inner skip-walk;
// a one-id entry's body is its one varint.
func (p Packed) headerAt(pos int, prevKey ID) (key ID, n, bodyStart, next int) {
	h, pos := uvarintAt(p.data, pos)
	key = prevKey + ID(h>>1)
	if h&1 != 0 {
		_, next = uvarintAt(p.data, pos)
		return key, 1, pos, next
	}
	nn, pos := uvarintAt(p.data, pos)
	bl, pos := uvarintAt(p.data, pos)
	return key, int(nn), pos, pos + int(bl)
}

// group returns the key and the entries offset of skip-table group g.
func (p Packed) group(g int) (key ID, off int) {
	e := p.skip[g*skipEntry : g*skipEntry+skipEntry]
	return ID(binary.LittleEndian.Uint64(e)), int(binary.LittleEndian.Uint32(e[8:]))
}

// groupFor returns the last skip-table group at or after from whose head
// is at most key; from−1 when group from's head is already past key.
func (p Packed) groupFor(key ID, from int) int {
	lo, hi := from, len(p.skip)/skipEntry
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if k, _ := p.group(mid); k <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Find returns the terminal-list view for key. The view aliases the
// encoded bytes — zero copy.
func (p Packed) Find(key ID) (View, bool) {
	if p.nKeys == 0 {
		return View{}, false
	}
	first, pos, prev := 0, 0, ID(0)
	if p.skip != nil {
		g := p.groupFor(key, 0)
		if g < 0 {
			return View{}, false
		}
		first = g * packedGroup
		prev, pos = p.group(g) // group head: absolute key from the skip table
	}
	end := first + packedGroup
	if end > p.nKeys {
		end = p.nKeys
	}
	for i := first; i < end; i++ {
		k, n, bodyStart, next := p.headerAt(pos, prev)
		if i == first && p.skip != nil {
			// Entry key deltas chain across all the entries; the decoded
			// delta at a group head is relative to the previous group's
			// last key, so substitute the skip table's absolute key.
			k = prev
		}
		if k == key {
			return MakeCompressed(n, p.data[bodyStart:next]).View(), true
		}
		if k > key {
			return View{}, false
		}
		prev = k
		pos = next
	}
	return View{}, false
}

// Range streams every (key, list view) pair in ascending key order
// until fn returns false.
func (p Packed) Range(fn func(key ID, v View) bool) {
	pos := 0
	prev := ID(0)
	for i := 0; i < p.nKeys; i++ {
		k, n, bodyStart, next := p.headerAt(pos, prev)
		if !fn(k, MakeCompressed(n, p.data[bodyStart:next]).View()) {
			return
		}
		prev = k
		pos = next
	}
}

// RangePairs streams every (key, list value) pair in ascending order
// until fn returns false, and reports whether it got to the end. It reads
// each entry header in place and builds no view: a one-id entry hands its
// value straight to fn, and a longer list's values go to fn as they are
// decoded — which measured faster than decoding a block into a buffer
// first, whose zeroing a small vector pays on every walk.
func (p Packed) RangePairs(fn func(key, v ID) bool) bool {
	pos, key := 0, ID(0)
	for i := 0; i < p.nKeys; i++ {
		h, at := uvarintAt(p.data, pos)
		key += ID(h >> 1)
		if h&1 != 0 {
			v, next := uvarintAt(p.data, at)
			if !fn(key, ID(v)) {
				return false
			}
			pos = next
			continue
		}
		n, at := uvarintAt(p.data, at)
		bl, at := uvarintAt(p.data, at)
		pos = at + int(bl)
		data := MakeCompressed(int(n), p.data[at:pos]).data
		v := ID(0)
		for off := 0; off < len(data); {
			var d uint64
			d, off = uvarintAt(data, off)
			v += ID(d)
			if !fn(key, v) {
				return false
			}
		}
	}
	return true
}

// entry returns the i-th entry (0-based) by walking forward from the
// nearest skip-table group — O(packedGroup) header decodes.
func (p Packed) entry(i int) (key ID, v View) {
	first, pos, prev := 0, 0, ID(0)
	if p.skip != nil {
		first = i / packedGroup * packedGroup
		prev, pos = p.group(i / packedGroup)
	}
	for j := first; ; j++ {
		k, n, bodyStart, next := p.headerAt(pos, prev)
		if j == first && p.skip != nil {
			k = prev
		}
		if j == i {
			return k, MakeCompressed(n, p.data[bodyStart:next]).View()
		}
		prev = k
		pos = next
	}
}

// KeyCursor walks the entries of a packed vector in key order: the
// vector's half of a merge join whose other half is a sorted column, and
// the lookup a join step repeats row after row. It reads entry headers
// only, jumps through the skip table over whole groups, and hands out the
// terminal list of the entry it is on.
type KeyCursor struct {
	p    Packed
	i    int // index of the current entry; −1 before the first
	key  ID  // the current entry's key
	n    int // the current entry's list length
	body int // byte offset of the current entry's list
	pos  int // byte offset of the entry after the current one
}

// Keys returns a cursor positioned before the first key.
func (p Packed) Keys() KeyCursor { return KeyCursor{p: p, i: -1} }

// SeekGE moves the cursor to the first key ≥ k at or after its current
// key and returns it, ok=false when no such key exists (the cursor then
// stays on the last key). The cursor stays on the key it returns, so
// seeking it again returns it again; seeks must not go backwards.
func (c *KeyCursor) SeekGE(k ID) (ID, bool) {
	if c.i >= 0 && c.key >= k {
		return c.key, true
	}
	p := &c.p
	i, key, n, body, pos := c.i, c.key, c.n, c.body, c.pos
	if p.skip != nil {
		// A later group that starts at or below k: jump to the last such
		// one. Its head's delta is relative to the entry before it, which
		// the jump skips, so the skip table's absolute key stands in.
		if g := i/packedGroup + 1; g*packedGroup < p.nKeys {
			if head, _ := p.group(g); head <= k {
				g = p.groupFor(k, g+1)
				var off int
				key, off = p.group(g)
				i = g * packedGroup
				_, n, body, pos = p.headerAt(off, 0)
			}
		}
	}
	// The walk keeps the cursor in locals and stores it once.
	for last := p.nKeys - 1; i < last && (i < 0 || key < k); i++ {
		key, n, body, pos = p.headerAt(pos, key)
	}
	c.i, c.key, c.n, c.body, c.pos = i, key, n, body, pos
	if i < 0 || key < k {
		return 0, false
	}
	return key, true
}

// Seek moves the cursor to the first key ≥ k and reports whether that
// key is k, whose terminal list View then returns. Seeks may come in any
// order: from the entry the cursor is on it walks forward as SeekGE
// does, and a key behind that entry restarts it from the top, where the
// skip table's search takes over — so no seek costs more than a Find.
func (c *KeyCursor) Seek(k ID) bool {
	if c.i >= 0 && k < c.key {
		c.i, c.key, c.pos = -1, 0, 0 // back to the top
	}
	key, ok := c.SeekGE(k)
	return ok && key == k
}

// Next moves the cursor to the entry after the one it is on — the first,
// before any — and returns its key; ok=false when the cursor is on the
// last entry, where it then stays.
func (c *KeyCursor) Next() (ID, bool) {
	if c.i >= c.p.nKeys-1 {
		return 0, false
	}
	c.key, c.n, c.body, c.pos = c.p.headerAt(c.pos, c.key)
	c.i++
	return c.key, true
}

// MarkKeys moves the cursor over the next n entries at most and sets bit
// k of bits (bit k%64 of word k/64) for the key k of each; a key at or
// past the bitset's end is passed over unmarked. It returns how many
// entries it moved over — fewer than n only at the last entry, 0 once the
// cursor is on it. It reads entry headers only, so a bitset of a whole
// vector's keys is built in steps the caller can check cancellation
// between.
func (c *KeyCursor) MarkKeys(bits []uint64, n int) int {
	p := &c.p
	i, key, ln, body, pos := c.i, c.key, c.n, c.body, c.pos
	end := min(p.nKeys-1, i+n)
	moved := end - i
	for ; i < end; i++ {
		key, ln, body, pos = p.headerAt(pos, key)
		if w := key >> 6; w < ID(len(bits)) {
			bits[w] |= 1 << (key & 63)
		}
	}
	c.i, c.key, c.n, c.body, c.pos = i, key, ln, body, pos
	return moved
}

// Len returns the number of keys of the cursor's vector.
func (c *KeyCursor) Len() int { return c.p.nKeys }

// Total returns the sum of the terminal-list lengths of the cursor's
// vector.
func (c *KeyCursor) Total() int { return c.p.total }

// View returns the terminal list of the entry the cursor is on, as a
// zero-copy view; the cursor must be on an entry (a seek returned ok).
func (c *KeyCursor) View() View {
	return MakeCompressed(c.n, c.p.data[c.body:c.pos]).View()
}

// AppendKeys appends every key in ascending order to dst.
func (p Packed) AppendKeys(dst []ID) []ID {
	p.Range(func(k ID, _ View) bool {
		dst = append(dst, k)
		return true
	})
	return dst
}
