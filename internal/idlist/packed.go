package idlist

// Packed is the block-compressed rendering of a whole association
// vector: the sorted keys AND their terminal lists, laid out as one
// self-delimiting run of bytes. Where the raw Vec pays a slice header, a
// List allocation, and eight bytes per id, a packed vector pays a few
// bits per key and a few bytes per list — which is what turns the paper's
// five-fold space overhead into roughly one compact copy per ordering —
// and it holds no pointer, so any number of them can sit back to back in
// one buffer the garbage collector never scans (core's index arena).
//
// The entries are cut into groups of packedGroup, and each group is laid
// out column by column, as PAX lays out a page: the keys first, then the
// one-id lists' values, then the longer lists' framing and payloads. So a
// walk that needs only keys — a seek, a semijoin's bitset, a merge of two
// vectors' keys — reads the key column and never decodes list framing.
//
// Encoding:
//
//	uvarint nKeys<<1|one   one = 1: every terminal list holds one id
//	uvarint total          sum of the list lengths; only when one = 0
//	uvarint dataLen        byte length of the groups
//	uvarint head           the first key, group 0's head
//	skip table             only when nKeys > packedGroup, for groups
//	                       1..G−1 (group 0 starts the groups):
//	    hw, ow    1 byte each, the two columns' bit widths; hw is 32,
//	              or 64 when the last head − head passes 32 bits
//	    heads     each group's head key − head, hw bits each
//	    offsets   each group's byte offset into the groups, ow bits each
//	groups                 one per packedGroup entries in ascending key
//	                       order; of m entries (fewer only in the last):
//	    mask      ⌈m/8⌉ bytes LE, bit i set: entry i's list holds one
//	              id; only when one = 0 (else every bit is set)
//	    kw        1 byte, the key column's bit width; only when m > 1
//	    keys      key − head of entries 1..m−1, kw bits each: frame of
//	              reference, as PFOR packs a block
//	    s = the number of one-id entries; when s > 0:
//	    uvarint base  the least of their values
//	    vw        1 byte, the value column's bit width; only when s > 1
//	    values    value − base of each, in entry order, vw bits each
//	    t = m − s longer lists; when t > 0:
//	    nw, ow    1 byte each, the next two columns' bit widths
//	    lens      each list's length, nw bits each
//	    ends      each payload's end, as a byte offset from the first
//	              payload, ow bits each
//	    payloads  each list's AppendCompressed form, back to back
//
// Each column starts on a byte and packs its fields LSB first, at widths
// of at most 56 bits or of exactly 64 (see width), so any field is one
// 8-byte load. Most RDF terminal lists hold one id, so most groups are a
// key column and a value column of a few bits per entry and a few bytes
// of widths. A seek is a search of the skip table's heads — whole words,
// so the search compares them without unpacking — and then of at most
// packedGroup key offsets; a one-id entry's list is one field of the
// value column, and a longer one's payload is found from two fields of
// ends. Lookups hand out zero-copy Views into the bytes, which are
// immutable, so the views stay valid however the owning store evolves
// (mutation writes new vectors, it never edits one).

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

const packedGroup = 16 // entries per group, and the skip table's stride

// Packed is a packed association vector decoded for reading: a small
// value whose slices alias the encoded bytes. The zero value is the empty
// vector.
type Packed struct {
	nKeys  int
	total  int
	one    bool   // every list holds one id: the groups carry no mask
	head   ID     // the first key
	size   int    // byte length of the whole encoding
	skip   []byte // the skip table's columns; nil for one group
	hw, ow uint   // bit widths of the skip table's heads and offsets
	offs   uint   // bit offset of the skip table's offsets
	data   []byte // the groups
}

// DecodePacked reads the header of the packed vector that starts at
// b[0]; b may extend past the vector's end.
func DecodePacked(b []byte) Packed {
	h, pos := uvarintAt(b, 0)
	p := Packed{nKeys: int(h >> 1), total: int(h >> 1), one: h&1 != 0}
	if !p.one {
		var total uint64
		total, pos = uvarintAt(b, pos)
		p.total = int(total)
	}
	dataLen, pos := uvarintAt(b, pos)
	head, pos := uvarintAt(b, pos)
	p.head = ID(head)
	if g := p.groups() - 1; g > 0 {
		p.hw, p.ow = uint(b[pos]), uint(b[pos+1])
		pos += 2
		n := columnLen(g, p.hw)
		p.offs = uint(n) * 8
		n += columnLen(g, p.ow)
		p.skip = b[pos : pos+n]
		pos += n
	}
	p.size = pos + int(dataLen)
	p.data = b[pos:p.size]
	return p
}

// EncodedLen returns the byte length of the vector's encoding — header,
// skip table and groups. The empty vector has no encoding: 0.
func (p Packed) EncodedLen() int { return p.size }

// Len returns the number of keys.
func (p Packed) Len() int { return p.nKeys }

// Total returns the sum of terminal-list lengths — the number of index
// entries the vector holds.
func (p Packed) Total() int { return p.total }

// groups returns the number of groups.
func (p *Packed) groups() int { return (p.nKeys + packedGroup - 1) / packedGroup }

// headOf returns the head key of group g.
func (p *Packed) headOf(g int) ID {
	if g == 0 {
		return p.head
	}
	return p.head + ID(p.rel(g))
}

// groupFor returns the last group at or after from whose head is at most
// key; from−1 when group from's head is already past key, which group
// from−1's, for from > 0, must not be.
func (p *Packed) groupFor(key ID, from int) int {
	if key < p.head {
		return from - 1
	}
	t := uint64(key - p.head)
	lo, hi := max(from, 1)-1, p.groups() // head(lo) ≤ key < head(hi)
	if last := hi - 1; last > lo {
		l := p.rel(last)
		if l <= t {
			return last
		}
		// Dictionary ids spread a vector's keys evenly, mostly: guess
		// between the heads of lo and last, and gallop from the guess to
		// bracket the answer.
		base := uint64(0)
		if lo > 0 {
			base = p.rel(lo)
		}
		g := lo + int(float64(t-base)/float64(l-base)*float64(last-lo))
		if g = min(g, last-1); g > lo {
			if p.rel(g) <= t {
				lo = g
				step := 1
				for ; lo+step < hi && p.rel(lo+step) <= t; step <<= 1 {
					lo += step
				}
				hi = min(hi, lo+step)
			} else {
				hi = g
				step := 1
				for ; hi-step > lo && p.rel(hi-step) > t; step <<= 1 {
					hi -= step
				}
				lo = max(lo, hi-step)
			}
		}
	}
	// Branch-free: lo ends on the last head ≤ key.
	for n := hi - lo; n > 1; {
		half := n >> 1
		if p.rel(lo+half) <= t {
			lo += half
		}
		n -= half
	}
	return lo
}

// rel returns group g's head − the first key, for g > 0.
func (p *Packed) rel(g int) uint64 {
	if p.hw == 32 {
		return uint64(binary.LittleEndian.Uint32(p.skip[(g-1)*4:]))
	}
	return binary.LittleEndian.Uint64(p.skip[(g-1)*8:])
}

// group is one group's header, decoded: its entries, its head key, and
// where in Packed.data its columns start and how wide their fields are.
type group struct {
	first, m               int    // index of the first entry; entries
	ones                   uint32 // bit e: entry e's list holds one id
	head, next, base       ID     // the head key; the next group's (or ^0); the value column's base
	kw, vw, nw, ow         uint   // field widths of keys, values, lens, ends
	keys, vals, lens, ends uint   // bit offsets of the columns
	body                   int    // byte offset of the payloads
}

// keyColumn returns group g's head key, key width and the bit offset of
// its key column: all a walk over its keys needs.
func (p *Packed) keyColumn(g int) (head ID, kw, keys uint) {
	head, pos := p.head, 0
	if g > 0 {
		head += ID(p.rel(g))
		pos = int(field(p.skip, p.offs+uint(g-1)*p.ow, p.ow))
	}
	m := min(packedGroup, p.nKeys-g*packedGroup)
	if !p.one {
		pos += maskLen(m)
	}
	if m > 1 {
		kw = uint(p.data[pos])
		pos++
	}
	return head, kw, uint(pos) * 8
}

// load decodes the header of group g into gr.
func (p *Packed) load(gr *group, g int) {
	d := p.data
	gr.first = g * packedGroup
	gr.m = min(packedGroup, p.nKeys-gr.first)
	gr.head, gr.kw, gr.keys = p.keyColumn(g)
	gr.next = ^ID(0)
	if g+1 < p.groups() {
		gr.next = p.headOf(g + 1)
	}
	pos := int(gr.keys / 8)
	gr.ones = 1<<gr.m - 1
	if !p.one {
		at := pos - maskLen(gr.m)
		if gr.m > 1 {
			at--
		}
		gr.ones = uint32(d[at])
		if gr.m > 8 {
			gr.ones |= uint32(d[at+1]) << 8
		}
	}
	pos += columnLen(gr.m-1, gr.kw)
	gr.vw = 0
	s := bits.OnesCount32(gr.ones)
	if s > 0 {
		var base uint64
		base, pos = uvarintAt(d, pos)
		gr.base = ID(base)
		if s > 1 {
			gr.vw = uint(d[pos])
			pos++
		}
		gr.vals = uint(pos) * 8
		pos += columnLen(s, gr.vw)
	}
	if t := gr.m - s; t > 0 {
		gr.nw, gr.ow = uint(d[pos]), uint(d[pos+1])
		pos += 2
		gr.lens = uint(pos) * 8
		pos += columnLen(t, gr.nw)
		gr.ends = uint(pos) * 8
		gr.body = pos + columnLen(t, gr.ow)
	}
}

// columnLen returns the byte length of a column of n fields of w bits.
func columnLen(n int, w uint) int { return (n*int(w) + 7) >> 3 }

// width returns the field width of a column whose largest field is x:
// its bit length, or 64 past 56 bits. A field then never straddles more
// than one word boundary's worth of bytes: at most 56 bits from any bit
// offset, or 64 from a byte boundary, fit one 8-byte load.
func width(x uint64) uint {
	if w := uint(bits.Len64(x)); w <= 56 {
		return w
	}
	return 64
}

// field returns the w-bit field at bit offset bit of b (w ≤ 56, or 64
// at a byte boundary: see width). A field ends inside b, and a vector's
// bytes are immutable up to their capacity (arena segments and builder
// output alike), so field loads the eight bytes the field starts in —
// past b's length where the capacity allows — and masks the rest off;
// only within eight bytes of the capacity's end does it gather bytes one
// at a time.
func field(b []byte, bit, w uint) uint64 {
	var x uint64
	if i := bit >> 3; i+8 <= uint(cap(b)) {
		x = binary.LittleEndian.Uint64(b[i : i+8])
	} else {
		for j := len(b) - 1; j >= int(i); j-- {
			x = x<<8 | uint64(b[j])
		}
	}
	return x >> (bit & 7) & (1<<w - 1)
}

// unpack reads len(dst) consecutive w-bit fields of b, the first at bit
// offset bit, into dst: field's work, in one loop that shifts each field
// out of a word it reloads only when the word runs short.
func unpack(dst []uint64, b []byte, bit, w uint) {
	if len(dst) == 0 || w > 56 || (bit+uint(len(dst))*w)>>3+8 > uint(cap(b)) {
		for k := range dst {
			dst[k] = field(b, bit+uint(k)*w, w)
		}
		return
	}
	mask := uint64(1)<<w - 1
	var word uint64
	var have uint // bits of word still unread
	for k := range dst {
		if have < w {
			i := bit >> 3
			word, have = binary.LittleEndian.Uint64(b[i:i+8])>>(bit&7), 64-bit&7
		}
		dst[k] = word & mask
		word >>= w
		have -= w
		bit += w
	}
}

// key returns the key of entry e.
func (g *group) key(d []byte, e int) ID {
	if e == 0 {
		return g.head
	}
	return g.head + ID(field(d, g.keys+uint(e-1)*g.kw, g.kw))
}

// search returns the first entry at or after from whose key is at least
// k, and that key; ok=false when every one from there is below k.
func (g *group) search(d []byte, from int, k ID) (e int, key ID, ok bool) {
	if k <= g.head {
		return 0, g.head, true // from is 0: a later entry has a key below k
	}
	t := uint64(k - g.head)
	lo := max(from, 1) - 1 // an entry below k
	if lo+1 == g.m {
		return 0, 0, false
	}
	if off := field(d, g.keys+uint(lo)*g.kw, g.kw); off >= t {
		return lo + 1, g.head + ID(off), true // the next entry, as a forward walk mostly finds
	}
	// lo ends on the last entry below k, branch-free.
	lo++
	for n := g.m - lo; n > 1; {
		half := n >> 1
		if field(d, g.keys+uint(lo+half-1)*g.kw, g.kw) < t {
			lo += half
		}
		n -= half
	}
	if lo+1 == g.m {
		return 0, 0, false
	}
	return lo + 1, g.key(d, lo+1), true
}

// list returns the length and the payload byte range of longer list j
// of the group, counted among its longer lists.
func (g *group) list(d []byte, j int) (n, start, end int) {
	n = int(field(d, g.lens+uint(j)*g.nw, g.nw))
	if j == 0 {
		end = int(field(d, g.ends, g.ow))
	} else if g.ow <= 28 {
		se := field(d, g.ends+uint(j-1)*g.ow, 2*g.ow) // both ends in one load
		start, end = int(se&(1<<g.ow-1)), int(se>>g.ow)
	} else {
		start = int(field(d, g.ends+uint(j-1)*g.ow, g.ow))
		end = int(field(d, g.ends+uint(j)*g.ow, g.ow))
	}
	return n, g.body + start, g.body + end
}

// view returns entry e's terminal list.
func (g *group) view(d []byte, e int) (v View) {
	r := bits.OnesCount32(g.ones & (1<<e - 1))
	if g.ones>>e&1 != 0 {
		v.one, v.kind = g.base+ID(field(d, g.vals+uint(r)*g.vw, g.vw)), viewOne
		return v
	}
	n, start, end := g.list(d, e-r)
	v.c = MakeCompressed(n, d[start:end])
	return v
}

// listLen returns the length of entry e's terminal list.
func (g *group) listLen(d []byte, e int) int {
	if g.ones>>e&1 != 0 {
		return 1
	}
	j := e - bits.OnesCount32(g.ones&(1<<e-1))
	return int(field(d, g.lens+uint(j)*g.nw, g.nw))
}

// PackedBuilder accumulates (key, sorted list) entries in ascending key
// order and writes the packed vector into a buffer of the caller's. It
// encodes each group as it fills, so what it holds is about the vector's
// encoding. Finish leaves it empty but keeps its scratch space, so
// encoding a run of vectors allocates nothing per vector.
type PackedBuilder struct {
	group [packedGroup]entry // the group being filled, m entries
	m     int
	lists []byte // that group's longer lists' payloads, back to back
	n     int    // entries appended
	multi int    // entries whose list does not hold one id
	total int    // sum of the list lengths
	first ID     // the first key
	last  ID     // the last key
	data  []byte // the groups encoded so far, each with its mask
	heads []uint64
	offs  []uint64 // the skip table, for groups 1 on
	col   []uint64 // one column's fields
}

// entry is one appended entry: its key, its list's length n, and the
// list's one value when n is 1, else the end of its payload in lists.
type entry struct {
	key ID
	n   int
	val ID
}

// Append adds an entry. Keys must arrive strictly increasing, less than
// 2^63 apart (the first key less than 2^63), and vals strictly
// increasing; dense dictionary ids keep all of it, so violations panic.
func (b *PackedBuilder) Append(key ID, vals []ID) {
	if len(vals) == 1 {
		b.add(key, 1, vals[0])
		return
	}
	b.lists = AppendCompressed(b.lists, vals)
	b.add(key, len(vals), ID(len(b.lists)))
}

// AppendView adds an entry whose list is v. A compressed view — an entry
// of another packed vector, say — is copied as the bytes it already is,
// with no decode and re-encode; a raw view is encoded like Append's slice.
func (b *PackedBuilder) AppendView(key ID, v View) {
	switch {
	case v.kind == viewRaw:
		b.Append(key, v.raw)
	case v.kind == viewOne:
		b.add(key, 1, v.one)
	case v.c.n == 1:
		val, _ := uvarintAt(v.c.data, 0)
		b.add(key, 1, ID(val))
	default:
		b.lists = append(append(b.lists, v.c.skip...), v.c.data...)
		b.add(key, v.c.n, ID(len(b.lists)))
	}
}

// add appends the entry of key, whose list has n values: the value when
// n is 1, else the end of its payload in b.lists.
func (b *PackedBuilder) add(key ID, n int, val ID) {
	prev := ID(0)
	if b.n > 0 {
		if prev = b.last; key <= prev {
			panic("idlist: PackedBuilder key out of order")
		}
	}
	if key-prev >= 1<<63 {
		panic("idlist: PackedBuilder key delta ≥ 2^63")
	}
	if b.n == 0 {
		b.first = key
	}
	b.group[b.m] = entry{key, n, val}
	b.m++
	b.n++
	b.last = key
	if n != 1 {
		b.multi++
	}
	b.total += n
	if b.m == packedGroup {
		b.flushGroup()
	}
}

// Len returns the number of entries appended so far.
func (b *PackedBuilder) Len() int { return b.n }

// maskLen returns the byte length of the mask of a group of m entries.
func maskLen(m int) int { return 1 + (m-1)>>3 }

// Finish appends the encoding of the entries added since the last Finish
// (nothing, if none) to dst and empties the builder.
func (b *PackedBuilder) Finish(dst []byte) []byte {
	if b.n > 0 {
		if b.m > 0 {
			b.flushGroup()
		}
		// Every group was written with its mask. When every list holds
		// one id the vector carries none: each full group loses two
		// bytes, the last its own mask, and the offsets move up.
		one := b.multi == 0
		groups, lastMask := len(b.offs)+1, maskLen(b.n-len(b.offs)*packedGroup)
		dataLen := len(b.data)
		if one {
			dataLen -= 2*len(b.offs) + lastMask
			for g := range b.offs {
				b.offs[g] -= uint64(2 * (g + 1))
			}
		}
		h := uint64(b.n) << 1
		if one {
			h |= 1
		}
		dst = binary.AppendUvarint(dst, h)
		if !one {
			dst = binary.AppendUvarint(dst, uint64(b.total))
		}
		dst = binary.AppendUvarint(dst, uint64(dataLen))
		dst = binary.AppendUvarint(dst, uint64(b.first))
		if g := len(b.heads); g > 0 {
			hw, ow := uint(32), width(b.offs[g-1])
			if b.heads[g-1] >= 1<<32 {
				hw = 64
			}
			dst = appendColumn(append(dst, byte(hw), byte(ow)), b.heads, hw)
			dst = appendColumn(dst, b.offs, ow)
		}
		if !one {
			dst = append(dst, b.data...)
		} else {
			for g, start := 0, 0; g < groups; g++ {
				end, mask := len(b.data), lastMask
				if g+1 < groups {
					end, mask = int(b.offs[g])+2*(g+1), 2
				}
				dst = append(dst, b.data[start+mask:end]...)
				start = end
			}
		}
	}
	b.n, b.multi, b.total = 0, 0, 0
	b.data, b.heads, b.offs = b.data[:0], b.heads[:0], b.offs[:0]
	return dst
}

// flushGroup appends the group being filled to b.data, with its mask,
// and starts the next.
func (b *PackedBuilder) flushGroup() {
	es := b.group[:b.m]
	if b.n > b.m { // not the first group: it needs a skip-table entry
		b.heads = append(b.heads, uint64(es[0].key-b.first))
		b.offs = append(b.offs, uint64(len(b.data)))
	}
	var ones uint32
	vmin, vmax := ^ID(0), ID(0)
	nmax := 0
	for e, en := range es {
		if en.n == 1 {
			ones |= 1 << e
			vmin, vmax = min(vmin, en.val), max(vmax, en.val)
		} else {
			nmax = max(nmax, en.n)
		}
	}
	d := append(b.data, byte(ones))
	if len(es) > 8 {
		d = append(d, byte(ones>>8))
	}
	head := es[0].key
	if len(es) > 1 {
		kw := width(uint64(es[len(es)-1].key - head))
		b.col = b.col[:0]
		for _, en := range es[1:] {
			b.col = append(b.col, uint64(en.key-head))
		}
		d = appendColumn(append(d, byte(kw)), b.col, kw)
	}
	if s := bits.OnesCount32(ones); s > 0 {
		d = binary.AppendUvarint(d, uint64(vmin))
		if s > 1 {
			vw := width(uint64(vmax - vmin))
			b.col = b.col[:0]
			for _, en := range es {
				if en.n == 1 {
					b.col = append(b.col, uint64(en.val-vmin))
				}
			}
			d = appendColumn(append(d, byte(vw)), b.col, vw)
		}
	}
	if ones != 1<<len(es)-1 {
		b.col = b.col[:0]
		for _, en := range es {
			if en.n != 1 {
				b.col = append(b.col, uint64(en.n))
			}
		}
		nw, ow := width(uint64(nmax)), width(uint64(len(b.lists)))
		d = appendColumn(append(d, byte(nw), byte(ow)), b.col, nw)
		b.col = b.col[:0]
		for _, en := range es {
			if en.n != 1 {
				b.col = append(b.col, uint64(en.val))
			}
		}
		d = appendColumn(d, b.col, ow)
		d = append(d, b.lists...)
	}
	b.data, b.m, b.lists = d, 0, b.lists[:0]
}

// appendColumn appends fields, w bits each (every field below 2^w), LSB
// first, in ⌈len·w/8⌉ bytes.
func appendColumn(dst []byte, fields []uint64, w uint) []byte {
	if w == 0 {
		return dst
	}
	at := len(dst)
	n := columnLen(len(fields), w)
	dst = slices.Grow(dst, n)[:at+n]
	col := dst[at:]
	clear(col)
	for i, x := range fields {
		bit := uint(i) * w
		p, s := bit>>3, bit&7
		col[p] |= byte(x << s)
		for x >>= 8 - s; x != 0; x >>= 8 {
			p++
			col[p] |= byte(x)
		}
	}
	return dst
}

// uvarintAt is binary.Uvarint with a fast path for the one-byte values
// that dominate delta streams.
func uvarintAt(b []byte, pos int) (uint64, int) {
	if v := b[pos]; v < 0x80 {
		return uint64(v), pos + 1
	}
	v, k := binary.Uvarint(b[pos:])
	return v, pos + k
}

// Find returns the terminal-list view for key. The view aliases the
// encoded bytes — zero copy.
func (p Packed) Find(key ID) (View, bool) {
	c := p.Keys()
	if c.Seek(key) {
		return c.View(), true
	}
	return View{}, false
}

// Range streams every (key, list view) pair in ascending key order
// until fn returns false.
func (p Packed) Range(fn func(key ID, v View) bool) {
	var gr group
	var offs [packedGroup]uint64 // the group's key offsets; offs[0] is 0
	for g := 0; g < p.groups(); g++ {
		p.load(&gr, g)
		unpack(offs[1:gr.m], p.data, gr.keys, gr.kw)
		for e, off := range offs[:gr.m] {
			if !fn(gr.head+ID(off), gr.view(p.data, e)) {
				return
			}
		}
	}
}

// RangePairs streams every (key, list value) pair in ascending order
// until fn returns false, and reports whether it got to the end. It reads
// the columns in place and builds no view: a one-id entry hands its value
// field straight to fn, and a longer list's values go to fn as they are
// decoded — which measured faster than decoding a block into a buffer
// first, whose zeroing a small vector pays on every walk.
func (p Packed) RangePairs(fn func(key, v ID) bool) bool {
	d := p.data
	var gr group
	var offs, vals [packedGroup]uint64 // a group's key offsets (offs[0] is 0) and one-id values
	for g := 0; g < p.groups(); g++ {
		p.load(&gr, g)
		unpack(offs[1:gr.m], d, gr.keys, gr.kw)
		unpack(vals[:bits.OnesCount32(gr.ones)], d, gr.vals, gr.vw)
		v1, j := 0, 0
		for e, off := range offs[:gr.m] {
			key := gr.head + ID(off)
			if gr.ones>>e&1 != 0 {
				if !fn(key, gr.base+ID(vals[v1])) {
					return false
				}
				v1++
				continue
			}
			n, start, end := gr.list(d, j)
			j++
			data := MakeCompressed(n, d[start:end]).data
			v := ID(0)
			for at := 0; at < len(data); {
				var delta uint64
				delta, at = uvarintAt(data, at)
				v += ID(delta)
				if !fn(key, v) {
					return false
				}
			}
		}
	}
	return true
}

// KeyCursor walks the entries of a packed vector in key order: the
// vector's half of a merge join whose other half is a sorted column, and
// the lookup a join step repeats row after row. It holds the header of
// the group it is in, reads the key column only, jumps through the skip
// table over whole groups, and hands out the terminal list of the entry
// it is on.
type KeyCursor struct {
	p   Packed
	g   group // the current entry's group; zero before the first entry
	i   int   // index of the current entry; −1 before the first
	key ID    // the current entry's key
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
	if p.nKeys == 0 {
		return 0, false
	}
	from := 0 // the entry of c.g the search starts at
	if c.i < 0 {
		if g := max(p.groupFor(k, 0), 0); c.g.m == 0 || g != c.g.first/packedGroup {
			p.load(&c.g, g)
		}
	} else if next := c.g.first/packedGroup + 1; c.g.next <= k && next < p.groups() {
		// A later group starts at or below k: the last such one, which
		// a forward walk mostly finds to be the next.
		g := next
		if next+1 < p.groups() && p.headOf(next+1) <= k {
			g = p.groupFor(k, next+2)
		}
		p.load(&c.g, g)
	} else {
		from = c.i - c.g.first + 1
	}
	for {
		if e, key, ok := c.g.search(p.data, from, k); ok {
			c.i, c.key = c.g.first+e, key
			return key, true
		}
		// Every key of the group from there is below k; the next group's
		// head, if there is one, is above it.
		next := c.g.first/packedGroup + 1
		if next == p.groups() {
			c.i, c.key = p.nKeys-1, c.g.key(p.data, c.g.m-1)
			return 0, false
		}
		p.load(&c.g, next)
		from = 0
	}
}

// Seek moves the cursor to the first key ≥ k and reports whether that
// key is k, whose terminal list View then returns. Seeks may come in any
// order: from the entry the cursor is on it walks forward as SeekGE
// does, and a key behind that entry restarts it from the top, where the
// skip table's search takes over — so no seek costs more than a Find.
func (c *KeyCursor) Seek(k ID) bool {
	if c.i >= 0 && k < c.key {
		c.i = -1 // back to the top
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
	c.i++
	e := c.i - c.g.first
	if uint(e) >= uint(c.g.m) {
		c.p.load(&c.g, c.i/packedGroup)
		e = c.i % packedGroup
	}
	c.key = c.g.key(c.p.data, e)
	return c.key, true
}

// MarkKeys moves the cursor over the next n entries at most and sets bit
// k of bits (bit k%64 of word k/64) for the key k of each; a key at or
// past the bitset's end is passed over unmarked. It returns how many
// entries it moved over — fewer than n only at the last entry, 0 once the
// cursor is on it. It reads the key columns only, so a bitset of a whole
// vector's keys is built in steps the caller can check cancellation
// between.
func (c *KeyCursor) MarkKeys(bits []uint64, n int) int {
	p := &c.p
	end := min(p.nKeys-1, c.i+n)
	if end <= c.i {
		return 0
	}
	// Keys ascend, so the bits of one word are gathered in acc and stored
	// once.
	var offs [packedGroup]uint64 // a group's keys − its head; offs[0] is 0
	w, acc := ID(len(bits)), uint64(0)
	for i := c.i + 1; i <= end; {
		g := i / packedGroup
		head, kw, keys := p.keyColumn(g)
		first := g * packedGroup
		e, last := i-first, min(end-first, packedGroup-1)
		from := max(e, 1)
		unpack(offs[from:last+1], p.data, keys+uint(from-1)*kw, kw)
		for _, off := range offs[e : last+1] {
			key := head + ID(off)
			if key>>6 != w {
				if w < ID(len(bits)) {
					bits[w] |= acc
				}
				w, acc = key>>6, 0
			}
			acc |= 1 << (key & 63)
		}
		i = first + last + 1
	}
	if w < ID(len(bits)) {
		bits[w] |= acc
	}
	moved := end - c.i
	if g := end / packedGroup; c.g.m == 0 || c.g.first != g*packedGroup {
		p.load(&c.g, g)
	}
	c.i, c.key = end, c.g.key(p.data, end-c.g.first)
	return moved
}

// Len returns the number of keys of the cursor's vector.
func (c *KeyCursor) Len() int { return c.p.nKeys }

// Total returns the sum of the terminal-list lengths of the cursor's
// vector.
func (c *KeyCursor) Total() int { return c.p.total }

// View returns the terminal list of the entry the cursor is on, as a
// zero-copy view; the cursor must be on an entry (a seek returned ok).
func (c *KeyCursor) View() View { return c.g.view(c.p.data, c.i-c.g.first) }

// ListLen returns the length of the terminal list of the entry the
// cursor is on — View().Len() without building the view.
func (c *KeyCursor) ListLen() int { return c.g.listLen(c.p.data, c.i-c.g.first) }

// MergeKeys merge-joins the keys of two packed vectors, whose cursors
// start before their first keys, calling fn once per key both hold, in
// ascending order, with both cursors on it: fn may read either entry's
// View but must not move them. A cursor steps with Next after a match and
// skips forward with SeekGE, through the skip table, to the other's key
// after a miss: the paper's §4.2 merge of two sorted vectors, in place.
func MergeKeys(a, b *KeyCursor, fn func(ID)) {
	ka, ok := a.Next()
	for ok {
		var kb ID
		if kb, ok = b.SeekGE(ka); !ok {
			return
		}
		if kb == ka {
			fn(ka)
			ka, ok = a.Next()
		} else {
			ka, ok = a.SeekGE(kb)
		}
	}
}
