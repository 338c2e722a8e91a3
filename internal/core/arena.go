package core

// The packed index layout: one arena per head position.
//
// The six orderings pair up by the position of their head — S holds spo
// and sop, P holds pso and pos, O holds osp and ops — and each pair has
// one arena. A head's record in it is the head's two vectors back to
// back, first ordering first, each the self-delimiting bytes idlist.Packed
// describes: a header, a skip table of group heads and offsets, and
// groups of 16 entries laid out by column (key offsets, one-id values,
// the longer lists' lengths, ends and payloads). The second is found by
// skipping the first's EncodedLen, a header read. The two vectors of a
// record index the same triples, so a head has both or neither. An arena keeps its records in a short list of immutable
// segments and finds a head's record through a directory indexed by the
// head's id:
//
//	segments   pointer-free []byte, so the garbage collector never scans
//	           them; their concatenation is the arena's logical byte
//	           space. A bulk build writes one; a Patch appends one with
//	           the records it re-encoded and shares the older ones.
//	directory  dictionary ids are dense, so it is an array: chunks of
//	           dirChunk uint32 slots, slot = 1 + logical offset of the
//	           head's record, 0 (or a nil chunk) = head absent. A
//	           position with 18 heads costs one chunk, not a slot per
//	           term. Patch copies the chunk-pointer slice (8 bytes per
//	           dirChunk ids of the id space — why head ids must stay
//	           dictionary-dense) and only the chunks it writes to.
//	counters   what Stats and IndexBytes report without a walk.
//
// A record a Patch replaces stays in its segment as dead bytes; when they
// pass a quarter of the arena, or the segment list passes maxSegments,
// seal rewrites the arena into one segment. A published arena is never
// written again, so readers of an older store keep their image.

import (
	"math"
	"slices"

	"hexastore/internal/idlist"
)

const (
	dirChunk    = 1024 // directory slots per chunk
	deadDivisor = 4    // rewrite when dead bytes pass 1/deadDivisor of the arena
	maxSegments = 16   // rewrite when the segment list passes this
)

// segment is an immutable run of records; start is the logical offset of
// b[0].
type segment struct {
	start uint32
	b     []byte
}

type arena struct {
	segs []segment
	dir  []*[dirChunk]uint32

	heads       int    // occupied directory slots
	vecEntries  [2]int // Σ vector lengths, per half
	listEntries int    // Σ terminal-list lengths of either half
	chunks      int    // non-nil directory chunks
	size        int64  // logical bytes: Σ len(segment)
	dead        int64  // bytes of size no slot leads to anymore

	// Between fork and seal: pb collects the entries of the two vectors
	// the next set writes, and own is 1 + the index of the one directory
	// chunk private to this arena — every other chunk may be shared with
	// the arena it was forked from. Writers set heads in ascending order,
	// so a chunk once left is never written again.
	pb  [2]idlist.PackedBuilder
	own int
}

// record returns the bytes from the start of head's record to its
// segment's end, nil when head is absent.
func (a *arena) record(head ID) []byte {
	if c := head / dirChunk; c < ID(len(a.dir)) && a.dir[c] != nil {
		if slot := a.dir[c][head%dirChunk]; slot != 0 {
			return a.at(slot - 1)
		}
	}
	return nil
}

// halves decodes the two vectors of the record that starts at rec[0].
func halves(rec []byte) [2]idlist.Packed {
	first := idlist.DecodePacked(rec)
	return [2]idlist.Packed{first, idlist.DecodePacked(rec[first.EncodedLen():])}
}

// at returns the bytes from logical offset off to its segment's end.
func (a *arena) at(off uint32) []byte {
	i := len(a.segs) - 1
	for off < a.segs[i].start {
		i--
	}
	return a.segs[i].b[off-a.segs[i].start:]
}

// rangeHeads calls fn for every head in ascending id order until it
// returns false.
func (a *arena) rangeHeads(fn func(head ID) bool) {
	for c, chunk := range a.dir {
		if chunk == nil {
			continue
		}
		for i, slot := range chunk {
			if slot != 0 && !fn(ID(c*dirChunk+i)) {
				return
			}
		}
	}
}

// fork returns an arena sharing a's segments and directory chunks, with
// a new last segment open for set to append to.
func (a *arena) fork() arena {
	out := *a
	out.segs = append(slices.Clip(a.segs), segment{start: uint32(a.size)})
	out.dir = slices.Clone(a.dir)
	out.own = 0
	return out
}

// set makes the two vectors pb holds head's record (pb empty: head has
// none), appending it to the open segment and emptying pb. Heads must
// arrive in ascending order.
func (a *arena) set(head ID) {
	if (a.pb[0].Len() == 0) != (a.pb[1].Len() == 0) {
		panic("core: the two vectors of a record must be empty together")
	}
	seg := &a.segs[len(a.segs)-1]
	at := len(seg.b)
	seg.b = a.pb[1].Finish(a.pb[0].Finish(seg.b))
	a.put(head, at)
}

// put makes the record that starts at byte at of the open segment head's
// — no record, if the segment ends there — and counts it.
func (a *arena) put(head ID, at int) {
	seg := a.segs[len(a.segs)-1].b
	if rec := a.record(head); rec != nil {
		old := halves(rec)
		a.heads--
		a.vecEntries[0] -= old[0].Len()
		a.vecEntries[1] -= old[1].Len()
		a.listEntries -= old[0].Total()
		a.dead += int64(old[0].EncodedLen() + old[1].EncodedLen())
	} else if at == len(seg) {
		return
	}
	c := int(head / dirChunk)
	if c+1 < a.own {
		panic("core: arena heads set out of order")
	}
	if c >= len(a.dir) {
		a.dir = append(a.dir, make([]*[dirChunk]uint32, c+1-len(a.dir))...)
	}
	if c+1 != a.own {
		if a.dir[c] == nil {
			a.dir[c] = new([dirChunk]uint32)
			a.chunks++
		} else {
			cp := *a.dir[c]
			a.dir[c] = &cp
		}
		a.own = c + 1
	}
	slot := &a.dir[c][head%dirChunk]
	*slot = 0
	if at == len(seg) {
		return
	}
	if a.size+int64(len(seg)-at) > math.MaxUint32 {
		panic("core: an index arena passed 4 GiB")
	}
	rec := halves(seg[at:])
	a.heads++
	a.vecEntries[0] += rec[0].Len()
	a.vecEntries[1] += rec[1].Len()
	a.listEntries += rec[0].Total()
	*slot = uint32(a.size) + 1
	a.size += int64(len(seg) - at)
}

// seal closes the open segment — cut to size, dropped if nothing was
// set — and applies the rewrite rule.
func (a *arena) seal() {
	a.pb = [2]idlist.PackedBuilder{}
	if last := &a.segs[len(a.segs)-1]; len(last.b) == 0 {
		a.segs = a.segs[:len(a.segs)-1]
	} else if len(last.b) < cap(last.b) {
		last.b = slices.Clone(last.b)
	}
	if a.dead*deadDivisor > a.size || len(a.segs) > maxSegments {
		a.rewrite()
	}
}

// rewrite copies the live records into a single new segment behind a new
// directory, in head order.
func (a *arena) rewrite() {
	b := make([]byte, 0, a.size-a.dead)
	dir := make([]*[dirChunk]uint32, len(a.dir))
	a.chunks = 0
	a.rangeHeads(func(head ID) bool {
		c := head / dirChunk
		if dir[c] == nil {
			dir[c] = new([dirChunk]uint32)
			a.chunks++
		}
		dir[c][head%dirChunk] = uint32(len(b)) + 1
		rec := a.record(head)
		v := halves(rec)
		b = append(b, rec[:v[0].EncodedLen()+v[1].EncodedLen()]...)
		return true
	})
	a.segs, a.dir = []segment{{b: b}}, dir
	a.size, a.dead = int64(len(b)), 0
}

// bytes returns the heap bytes of the segments and the directory.
func (a *arena) bytes() int64 {
	n := int64(cap(a.segs))*32 + int64(cap(a.dir))*8 + int64(a.chunks)*dirChunk*4
	for _, s := range a.segs {
		n += int64(cap(s.b))
	}
	return n
}
