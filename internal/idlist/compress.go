package idlist

// This file implements the block-compressed posting-list representation:
// a sorted ID list stored as delta-encoded varints in blocks of
// BlockSize values, with a skip table of block maxima for lists longer
// than one block. It is the space answer to the paper's acknowledged
// worst-case five-fold index expansion (§4.1): the sextuple index keeps
// its merge-join structure, but the sorted runs it is made of shrink to
// a couple of bytes per entry, and the skip table lets merge-joins jump
// whole blocks without decoding them.
//
// Layout of the serialized payload (what AppendCompressed emits):
//
//	[skip section, only when n > BlockSize]
//	  per block: uvarint(last − previous block's last), uvarint(block
//	  byte length)
//	[delta blocks]
//	  values v0 < v1 < … < v(n-1) as the flat uvarint stream v0, v1-v0,
//	  v2-v1, …; block b covers values [b·BlockSize, (b+1)·BlockSize).
//
// The skip section is consumed by walking it in place — a Compressed
// never materializes index arrays, so constructing a view of a list
// embedded in a larger blob (a packed vector, a B+-tree leaf) costs
// zero allocations. Skip walks are sequential, which is exactly the
// access pattern of merges; point probes pay O(#blocks) varint header
// decodes, cheap against the decode of the one block they then search.
//
// A Compressed is immutable once built. A store that changes writes new
// bytes and never edits old ones, so readers holding a Compressed — or a
// zero-copy View into a packed vector blob — always see a consistent
// image.

import (
	"encoding/binary"
	"math/bits"
)

// BlockSize is the number of IDs per compression block.
const BlockSize = 128

// Compressed is an immutable sorted ID list in delta+varint block form.
// The zero value is an empty list. Compressed is a value type: views
// into packed vector blobs are constructed on the fly without copying
// or allocating.
type Compressed struct {
	n    int
	skip []byte // skip section (nil when n <= BlockSize)
	data []byte // flat uvarint delta stream (blocks region)
}

// Compress encodes a strictly increasing slice. It panics on unsorted
// input for the same reason FromSorted does: a silently broken order
// would corrupt every merge-join downstream.
func Compress(ids []ID) Compressed {
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			panic("idlist: Compress input not strictly increasing")
		}
	}
	return MakeCompressed(len(ids), AppendCompressed(nil, ids))
}

// AppendCompressed appends the serialized payload of a sorted,
// strictly-increasing id slice to dst and returns the extended slice.
// The payload is self-contained given the value count. It is the wire
// form used inside packed vector blobs and compressed B+-tree leaves as
// well as by MakeCompressed.
func AppendCompressed(dst []byte, ids []ID) []byte {
	if len(ids) > BlockSize {
		var blockBuf []byte
		prevLast := ID(0)
		prev := ID(0)
		for start := 0; start < len(ids); start += BlockSize {
			end := min(start+BlockSize, len(ids))
			blockStart := len(blockBuf)
			for _, v := range ids[start:end] {
				blockBuf = binary.AppendUvarint(blockBuf, uint64(v-prev))
				prev = v
			}
			last := ids[end-1]
			dst = binary.AppendUvarint(dst, uint64(last-prevLast))
			dst = binary.AppendUvarint(dst, uint64(len(blockBuf)-blockStart))
			prevLast = last
		}
		return append(dst, blockBuf...)
	}
	prev := ID(0)
	for _, v := range ids {
		dst = binary.AppendUvarint(dst, uint64(v-prev))
		prev = v
	}
	return dst
}

// MakeCompressed wraps a payload produced by AppendCompressed for n
// values. The result aliases payload — zero copy, zero allocation.
func MakeCompressed(n int, payload []byte) Compressed {
	if n == 0 {
		return Compressed{}
	}
	if n <= BlockSize {
		return Compressed{n: n, data: payload}
	}
	pos := skipLen(payload, 2*((n+BlockSize-1)/BlockSize))
	return Compressed{n: n, skip: payload[:pos], data: payload[pos:]}
}

// skipLen returns the byte length of the skip section that starts
// payload: its uvarints (two per block) end where the uvarints-th byte
// with a clear high bit does. It counts those bytes eight at a time
// without decoding a value, so a view of a long list costs a few word
// reads, not a varint decode per block.
func skipLen(payload []byte, uvarints int) int {
	pos := 0
	for ; pos+8 <= len(payload); pos += 8 {
		ends := ^binary.LittleEndian.Uint64(payload[pos:]) & 0x8080808080808080
		if c := bits.OnesCount64(ends); c < uvarints {
			uvarints -= c
			continue
		}
		for ; uvarints > 1; uvarints-- {
			ends &= ends - 1 // drop the ends before the last one
		}
		return pos + bits.TrailingZeros64(ends)/8 + 1
	}
	for ; pos < len(payload); pos++ {
		if payload[pos] < 0x80 {
			if uvarints--; uvarints == 0 {
				return pos + 1
			}
		}
	}
	return pos
}

// Len returns the number of IDs.
func (c Compressed) Len() int { return c.n }

// SizeBytes returns the byte length of the compressed payload.
func (c Compressed) SizeBytes() int { return len(c.skip) + len(c.data) }

// blockCursor walks the skip section sequentially, yielding per block
// its value range end ("last") and data byte range. For single-block
// lists it degenerates to one step covering all of data.
type blockCursor struct {
	c       Compressed
	idx     int // next block index
	skipPos int
	dataOff int
	base    ID // last value of the previous block
}

// next advances to the following block, returning its bounds; ok is
// false past the last block. base is the delta base (previous block's
// last value), last the block's final value.
func (bc *blockCursor) next() (start, end int, base, last ID, ok bool) {
	c := bc.c
	if c.skip == nil {
		if bc.idx > 0 || c.n == 0 {
			return 0, 0, 0, 0, false
		}
		bc.idx = 1
		return 0, len(c.data), 0, 0, true // last unknown; single block
	}
	if bc.skipPos >= len(c.skip) {
		return 0, 0, 0, 0, false
	}
	d, k := binary.Uvarint(c.skip[bc.skipPos:])
	bc.skipPos += k
	bl, k2 := binary.Uvarint(c.skip[bc.skipPos:])
	bc.skipPos += k2
	start = bc.dataOff
	end = start + int(bl)
	base = bc.base
	last = base + ID(d)
	bc.dataOff = end
	bc.base = last
	bc.idx++
	return start, end, base, last, true
}

// decodeRange decodes the delta stream in data[start:end] with the
// given base into dst (reset to length zero first).
func (c Compressed) decodeRange(start, end int, base ID, dst []ID) []ID {
	dst = dst[:0]
	v := base
	for pos := start; pos < end; {
		d, k := uint64(c.data[pos]), 1
		if d >= 0x80 {
			d, k = binary.Uvarint(c.data[pos:])
		}
		pos += k
		v += ID(d)
		dst = append(dst, v)
	}
	return dst
}

// Contains reports whether id is in the list, decoding at most one
// block; blocks whose maximum is below id are skipped via the skip
// section without decoding.
func (c Compressed) Contains(id ID) bool {
	if c.n == 0 {
		return false
	}
	if c.skip == nil { // one block: decode up to id, no scratch
		v := ID(0)
		for pos := 0; pos < len(c.data); {
			d, k := uint64(c.data[pos]), 1
			if d >= 0x80 {
				d, k = binary.Uvarint(c.data[pos:])
			}
			pos += k
			if v += ID(d); v >= id {
				return v == id
			}
		}
		return false
	}
	var scratch [BlockSize]ID
	bc := blockCursor{c: c}
	for {
		start, end, base, last, ok := bc.next()
		if !ok {
			return false
		}
		if c.skip != nil && last < id {
			continue
		}
		if c.skip != nil && last == id {
			return true
		}
		vals := c.decodeRange(start, end, base, scratch[:0])
		i := searchIDs(vals, id)
		return i < len(vals) && vals[i] == id
	}
}

// AppendTo appends every value in ascending order to dst and returns
// the extended slice — the decompression primitive.
func (c Compressed) AppendTo(dst []ID) []ID {
	v := ID(0)
	for pos := 0; pos < len(c.data); {
		d, k := uint64(c.data[pos]), 1
		if d >= 0x80 {
			d, k = binary.Uvarint(c.data[pos:])
		}
		pos += k
		v += ID(d)
		dst = append(dst, v)
	}
	return dst
}

// Range streams every value in ascending order until fn returns false.
func (c Compressed) Range(fn func(ID) bool) {
	v := ID(0)
	for pos := 0; pos < len(c.data); {
		d, k := uint64(c.data[pos]), 1
		if d >= 0x80 {
			d, k = binary.Uvarint(c.data[pos:])
		}
		pos += k
		v += ID(d)
		if !fn(v) {
			return
		}
	}
}

// Iter is a streaming cursor over a Compressed with skip-section seeks.
type Iter struct {
	bc   blockCursor
	pos  int // index within vals
	vals []ID
	buf  [BlockSize]ID
}

// Iter returns a cursor positioned before the first value.
func (c Compressed) Iter() Iter { return Iter{bc: blockCursor{c: c}} }

// loadNext decodes the next block into the scratch buffer; false at
// the end of the list.
func (it *Iter) loadNext() bool {
	start, end, base, _, ok := it.bc.next()
	if !ok {
		return false
	}
	it.vals = it.bc.c.decodeRange(start, end, base, it.buf[:0])
	it.pos = 0
	return true
}

// Next returns the next value, or ok=false at the end.
func (it *Iter) Next() (ID, bool) {
	for it.pos >= len(it.vals) {
		if !it.loadNext() {
			return 0, false
		}
	}
	v := it.vals[it.pos]
	it.pos++
	return v, true
}

// SeekGE advances to the smallest value >= id at or after the current
// position and returns it, or ok=false when no such value exists.
// Blocks wholly below id are skipped without decoding; seeks must be
// monotone (the cursor never moves backwards).
func (it *Iter) SeekGE(id ID) (ID, bool) {
	// Already-decoded block: search its remainder first.
	if it.pos < len(it.vals) && it.vals[len(it.vals)-1] >= id {
		i := it.pos + searchIDs(it.vals[it.pos:], id)
		it.pos = i + 1
		return it.vals[i], true
	}
	it.pos = len(it.vals) // exhaust current block
	for {
		start, end, base, last, ok := it.bc.next()
		if !ok {
			return 0, false
		}
		if it.bc.c.skip != nil && last < id {
			continue // skip the block without decoding
		}
		it.vals = it.bc.c.decodeRange(start, end, base, it.buf[:0])
		i := searchIDs(it.vals, id)
		if i == len(it.vals) {
			continue // single-block case with id past the end
		}
		it.pos = i + 1
		return it.vals[i], true
	}
}

// View is a read-only view of a sorted ID list: a raw slice, a
// compressed block list, or the one id of a packed vector's one-id entry.
// It is the value handed across layer boundaries (store → batch engine,
// main store → delta overlay) so that compressed backends can serve
// candidate lists zero-copy while raw backends keep their slice form.
type View struct {
	raw  []ID
	c    Compressed
	one  ID
	kind viewKind
}

// viewKind says which of View's forms holds the list.
type viewKind uint8

const (
	viewCompressed viewKind = iota // c; the zero View is the empty list
	viewRaw                        // raw
	viewOne                        // the one id one
)

// ViewOf wraps a sorted slice (not copied; the caller must keep it
// immutable for the view's lifetime).
func ViewOf(ids []ID) View { return View{raw: ids, kind: viewRaw} }

// View returns c as a View.
func (c Compressed) View() View { return View{c: c} }

// Len returns the number of values.
func (v View) Len() int {
	switch v.kind {
	case viewRaw:
		return len(v.raw)
	case viewOne:
		return 1
	}
	return v.c.n
}

// Contains reports whether id is in the list.
func (v View) Contains(id ID) bool {
	switch v.kind {
	case viewRaw:
		return ContainsSorted(v.raw, id)
	case viewOne:
		return id == v.one
	}
	return v.c.Contains(id)
}

// AppendTo appends every value in ascending order to dst.
func (v View) AppendTo(dst []ID) []ID {
	switch v.kind {
	case viewRaw:
		return append(dst, v.raw...)
	case viewOne:
		return append(dst, v.one)
	}
	return v.c.AppendTo(dst)
}

// Range streams every value in ascending order until fn returns false.
func (v View) Range(fn func(ID) bool) {
	switch v.kind {
	case viewRaw:
		for _, id := range v.raw {
			if !fn(id) {
				return
			}
		}
	case viewOne:
		fn(v.one)
	default:
		v.c.Range(fn)
	}
}

// MergeFilterView merge-joins a non-decreasing binding column against a
// sorted candidate view, calling keep with the index of every column
// entry present in the view, in ascending index order. Raw views take
// the slice gallop (MergeFilter); compressed views advance block by
// block, skipping — without decoding — every block whose maximum is
// below the column's current value, and galloping the column past each
// block's range. This is the batch engine's merge-intersect step over
// compressed storage.
func MergeFilterView(col []ID, v View, keep func(i int)) {
	switch v.kind {
	case viewRaw:
		MergeFilter(col, v.raw, keep)
		return
	case viewOne:
		for i := Gallop(col, 0, v.one); i < len(col) && col[i] == v.one; i++ {
			keep(i)
		}
		return
	}
	c := v.c
	if c.n == 0 || len(col) == 0 {
		return
	}
	if c.skip == nil { // one block: merge as it decodes, no scratch
		i, val := 0, ID(0)
		for pos := 0; pos < len(c.data) && i < len(col); {
			d, k := uint64(c.data[pos]), 1
			if d >= 0x80 {
				d, k = binary.Uvarint(c.data[pos:])
			}
			pos += k
			val += ID(d)
			if col[i] < val {
				i = Gallop(col, i+1, val)
			}
			for ; i < len(col) && col[i] == val; i++ {
				keep(i)
			}
		}
		return
	}
	var scratch [BlockSize]ID
	i := 0
	bc := blockCursor{c: c}
	for i < len(col) {
		start, end, base, last, ok := bc.next()
		if !ok {
			return
		}
		if c.skip != nil && last < col[i] {
			continue // whole block below the column cursor: skip, no decode
		}
		vals := c.decodeRange(start, end, base, scratch[:0])
		j := 0
		for i < len(col) && j < len(vals) {
			switch {
			case col[i] < vals[j]:
				i = Gallop(col, i+1, vals[j])
			case col[i] > vals[j]:
				j = Gallop(vals, j+1, col[i])
			default:
				val := vals[j]
				for i < len(col) && col[i] == val {
					keep(i)
					i++
				}
				j++
			}
		}
	}
}
