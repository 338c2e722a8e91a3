package idlist

// Packed is the block-compressed rendering of a whole association
// vector: the sorted keys AND their terminal lists, laid out in one
// contiguous byte blob. Where the raw Vec pays a slice header, a List
// allocation, and eight bytes per id, a Packed pays a couple of delta
// varints per entry — which is what turns the paper's five-fold space
// overhead into roughly one compact copy per ordering.
//
// Blob layout — a sequence of entries, one per (key, list) pair in
// ascending key order:
//
//	uvarint keyDelta   key − previous key (the first entry stores the
//	                   key itself)
//	uvarint n          terminal-list length
//	uvarint byteLen    byte length of the list payload that follows
//	payload            AppendCompressed form of the n list values
//
// A skip table of every packedGroup-th key (and its byte offset) makes
// Find a binary search plus a bounded forward walk; byteLen makes the
// walk skip list payloads without decoding them. Lookups hand out
// zero-copy Views into the blob; Packed is immutable, so the views stay
// valid however the owning store evolves (mutation replaces packed
// structures, it never edits them).

import (
	"encoding/binary"
	"slices"
)

// packedGroup is the entry stride of the packed vector's key skip table.
const packedGroup = 16

// Packed is an immutable packed association vector.
type Packed struct {
	nKeys int
	total int // sum of terminal-list lengths
	data  []byte
	// Skip table: first key and byte offset of every packedGroup-th
	// entry. Nil when the vector fits in one group — the common case on
	// real RDF data, where most heads have a handful of keys; a blob
	// that small is walked from offset zero, and dropping the two skip
	// slices saves two allocations per vector.
	skipKey []ID
	skipOff []uint32
}

// PackedBuilder accumulates (key, sorted list) entries in ascending key
// order and produces a Packed.
type PackedBuilder struct {
	p       Packed
	prevKey ID
}

// Append adds an entry. Keys must arrive strictly increasing and vals
// strictly increasing; both are the invariants every index build in
// this repository already maintains, so violations panic.
func (b *PackedBuilder) Append(key ID, vals []ID) {
	b.appendEntry(key, len(vals), AppendCompressed(nil, vals), nil)
}

// AppendView adds an entry whose list is v. A compressed view — an entry
// of another Packed, say — is copied as the bytes it already is, with no
// decode and re-encode; a raw view is encoded like Append's slice.
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
	if b.p.nKeys > 0 && key <= b.prevKey {
		panic("idlist: PackedBuilder key out of order")
	}
	if b.p.nKeys%packedGroup == 0 {
		b.p.skipKey = append(b.p.skipKey, key)
		b.p.skipOff = append(b.p.skipOff, uint32(len(b.p.data)))
	}
	b.p.data = binary.AppendUvarint(b.p.data, uint64(key-b.prevKey))
	b.p.data = binary.AppendUvarint(b.p.data, uint64(n))
	b.p.data = binary.AppendUvarint(b.p.data, uint64(len(p1)+len(p2)))
	b.p.data = append(b.p.data, p1...)
	b.p.data = append(b.p.data, p2...)
	b.prevKey = key
	b.p.nKeys++
	b.p.total += n
}

// Grow reserves room for n more blob bytes, for callers that know
// roughly how large the vector will be.
func (b *PackedBuilder) Grow(n int) { b.p.data = slices.Grow(b.p.data, n) }

// Len returns the number of entries appended so far.
func (b *PackedBuilder) Len() int { return b.p.nKeys }

// Finish returns the packed vector. The builder must not be reused.
func (b *PackedBuilder) Finish() *Packed {
	p := b.p
	if p.nKeys <= packedGroup {
		p.skipKey, p.skipOff = nil, nil
	}
	b.p = Packed{}
	return &p
}

// Len returns the number of keys.
func (p *Packed) Len() int {
	if p == nil {
		return 0
	}
	return p.nKeys
}

// Total returns the sum of terminal-list lengths — the number of index
// entries the vector holds.
func (p *Packed) Total() int {
	if p == nil {
		return 0
	}
	return p.total
}

// SizeBytes returns the in-memory footprint of the blob and skip table.
func (p *Packed) SizeBytes() int {
	if p == nil {
		return 0
	}
	return len(p.data) + len(p.skipKey)*8 + len(p.skipOff)*4
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

// headerAt decodes only the entry header at byte offset pos (whose key
// delta is relative to prevKey): the key, the list length, the body
// byte range, and the offset of the next entry. Walks over non-matching
// entries stay header-only — no view construction, no inner skip-walk.
func (p *Packed) headerAt(pos int, prevKey ID) (key ID, n, bodyStart, next int) {
	d, pos := uvarintAt(p.data, pos)
	nn, pos := uvarintAt(p.data, pos)
	bl, pos := uvarintAt(p.data, pos)
	return prevKey + ID(d), int(nn), pos, pos + int(bl)
}

// entryAt decodes the entry at byte offset pos (whose key delta is
// relative to prevKey) and returns the key, the list view, and the
// offset of the next entry.
func (p *Packed) entryAt(pos int, prevKey ID) (key ID, v View, next int) {
	key, n, bodyStart, next := p.headerAt(pos, prevKey)
	return key, MakeCompressed(n, p.data[bodyStart:next]).View(), next
}

// groupFor returns the skip-table group whose key range contains key.
func (p *Packed) groupFor(key ID) int {
	lo, hi := 0, len(p.skipKey)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if p.skipKey[mid] <= key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Find returns the terminal-list view for key. The view aliases the
// blob — zero copy.
func (p *Packed) Find(key ID) (View, bool) {
	if p == nil || p.nKeys == 0 {
		return View{}, false
	}
	first, pos, prev := 0, 0, ID(0)
	if p.skipKey != nil {
		g := p.groupFor(key)
		if g < 0 {
			return View{}, false
		}
		first = g * packedGroup
		pos = int(p.skipOff[g])
		prev = p.skipKey[g] // group head: absolute key from the skip table
	}
	end := first + packedGroup
	if end > p.nKeys {
		end = p.nKeys
	}
	for i := first; i < end; i++ {
		k, n, bodyStart, next := p.headerAt(pos, prev)
		if i == first && p.skipKey != nil {
			// Entry key deltas chain across the whole blob; the decoded
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
func (p *Packed) Range(fn func(key ID, v View) bool) {
	if p == nil {
		return
	}
	pos := 0
	prev := ID(0)
	for i := 0; i < p.nKeys; i++ {
		k, v, next := p.entryAt(pos, prev)
		if !fn(k, v) {
			return
		}
		prev = k
		pos = next
	}
}

// entry returns the i-th entry (0-based) by walking forward from the
// nearest skip-table group — O(packedGroup) header decodes.
func (p *Packed) entry(i int) (key ID, v View) {
	first, pos, prev := 0, 0, ID(0)
	if p.skipKey != nil {
		g := i / packedGroup
		first = g * packedGroup
		pos = int(p.skipOff[g])
		prev = p.skipKey[g]
	}
	for j := first; ; j++ {
		k, n, bodyStart, next := p.headerAt(pos, prev)
		if j == first && p.skipKey != nil {
			k = prev
		}
		if j == i {
			return k, MakeCompressed(n, p.data[bodyStart:next]).View()
		}
		prev = k
		pos = next
	}
}

// AppendKeys appends every key in ascending order to dst.
func (p *Packed) AppendKeys(dst []ID) []ID {
	p.Range(func(k ID, _ View) bool {
		dst = append(dst, k)
		return true
	})
	return dst
}
