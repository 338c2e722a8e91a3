package delta

import "sort"

// chunkRows is the most rows one chunk of a run holds. It bounds what a
// write copies per row it lands on (one chunk, 3 KiB) and what a read
// concatenates per chunk boundary its range crosses.
const chunkRows = 128

// run is one sorted delta ordering as a persistent value: a directory of
// immutable, non-empty, sorted chunks of at most chunkRows rows, in row
// order. apply returns a successor that shares every chunk the batch
// does not land in, so a write costs the directory plus the chunks it
// touches — not the delta — and a reader holding the predecessor keeps
// reading exactly what it pinned. The zero value is the empty run.
type run struct {
	chunks [][][3]ID
	n      int // total rows
}

func (r run) len() int { return r.n }

// bound returns the position (chunk index, offset inside it) of the first
// row whose k-element prefix is >= pre, or > pre when strict. A position
// past the last row is (len(chunks), 0).
func (r run) bound(k int, pre [3]ID, strict bool) (int, int) {
	after := func(row [3]ID) bool {
		c := cmpPrefix(row, pre, k)
		return c > 0 || (c == 0 && !strict)
	}
	ci := sort.Search(len(r.chunks), func(i int) bool {
		c := r.chunks[i]
		return after(c[len(c)-1])
	})
	if ci == len(r.chunks) {
		return ci, 0
	}
	c := r.chunks[ci]
	return ci, sort.Search(len(c), func(i int) bool { return after(c[i]) })
}

// contains reports whether the run holds exactly row.
func (r run) contains(row [3]ID) bool {
	ci, off := r.bound(3, row, false)
	return ci < len(r.chunks) && r.chunks[ci][off] == row
}

// between returns the number of rows from position (lc, lo) up to, not
// including, position (hc, ho).
func (r run) between(lc, lo, hc, ho int) int {
	if lc == hc {
		return ho - lo
	}
	n := len(r.chunks[lc]) - lo + ho
	for _, c := range r.chunks[lc+1 : hc] {
		n += len(c)
	}
	return n
}

// count returns the number of rows whose first k elements equal pre[:k].
func (r run) count(k int, pre [3]ID) int {
	lc, lo := r.bound(k, pre, false)
	hc, ho := r.bound(k, pre, true)
	return r.between(lc, lo, hc, ho)
}

// slice returns the rows whose first k elements equal pre[:k] as one
// contiguous sorted slice the caller must not modify: a subslice of the
// chunk when the range lies inside one, a fresh concatenation when it
// crosses a chunk boundary. k == 0 is the whole run.
func (r run) slice(k int, pre [3]ID) [][3]ID {
	lc, lo := r.bound(k, pre, false)
	hc, ho := r.bound(k, pre, true)
	switch {
	case lc == len(r.chunks):
		return nil
	case lc == hc:
		return r.chunks[lc][lo:ho]
	case hc == lc+1 && ho == 0:
		return r.chunks[lc][lo:]
	}
	out := make([][3]ID, 0, r.between(lc, lo, hc, ho))
	out = append(out, r.chunks[lc][lo:]...)
	for _, c := range r.chunks[lc+1 : hc] {
		out = append(out, c...)
	}
	if hc < len(r.chunks) {
		out = append(out, r.chunks[hc][:ho]...)
	}
	return out
}

// all returns every row of the run, as slice does.
func (r run) all() [][3]ID { return r.slice(0, [3]ID{}) }

// apply returns the run with the sorted rows ins spliced in and the
// sorted rows del dropped; a row in both is dropped, an ins row already
// present is kept once, a del row not present is ignored. Every batch
// row belongs to the last chunk that starts at or before it (rows below
// the first chunk to the first): only those chunks are rewritten, each
// into pieces of at most chunkRows rows, and everything else is shared
// with r, which is left untouched.
func (r run) apply(ins, del [][3]ID) run {
	if len(ins) == 0 && len(del) == 0 {
		return r
	}
	// Capacity for the worst case: every chunk an insert lands in splits
	// once more than its share of the inserted rows needs.
	out := make([][][3]ID, 0, len(r.chunks)+len(ins)/chunkRows+min(len(ins), len(r.chunks)+1))
	n := r.n
	ci := 0 // chunks before ci are already in out
	for len(ins) > 0 || len(del) > 0 {
		first := del
		if len(del) == 0 || (len(ins) > 0 && cmpPrefix(ins[0], del[0], 3) < 0) {
			first = ins
		}
		t := ci + sort.Search(len(r.chunks)-ci, func(i int) bool {
			return cmpPrefix(r.chunks[ci+i][0], first[0], 3) > 0
		}) - 1
		if t < ci {
			t = ci
		}
		var base [][3]ID
		ni, nd := len(ins), len(del)
		if t < len(r.chunks) {
			out = append(out, r.chunks[ci:t]...)
			base = r.chunks[t]
		}
		if t+1 < len(r.chunks) {
			next := r.chunks[t+1][0]
			ni = sort.Search(len(ins), func(i int) bool { return cmpPrefix(ins[i], next, 3) >= 0 })
			nd = sort.Search(len(del), func(i int) bool { return cmpPrefix(del[i], next, 3) >= 0 })
		}
		merged := mergeRows(base, ins[:ni], del[:nd])
		n += len(merged) - len(base)
		out = appendChunks(out, merged)
		ins, del = ins[ni:], del[nd:]
		ci = t + 1
	}
	if ci < len(r.chunks) {
		out = append(out, r.chunks[ci:]...)
	}
	return run{chunks: out, n: n}
}

// mergeRows returns (base ∪ ins) \ del as a fresh sorted slice; all three
// inputs are sorted and duplicate-free, and none is modified. The rows of
// base between two batch rows are copied in one piece, so a small batch
// into a full chunk costs a few searches and a copy, not a row-by-row
// merge.
func mergeRows(base, ins, del [][3]ID) [][3]ID {
	out := make([][3]ID, 0, len(base)+len(ins))
	for len(ins) > 0 || len(del) > 0 {
		drop := len(ins) == 0 || (len(del) > 0 && cmpPrefix(del[0], ins[0], 3) <= 0)
		var row [3]ID
		if drop {
			row, del = del[0], del[1:]
		} else {
			row, ins = ins[0], ins[1:]
		}
		n := sort.Search(len(base), func(i int) bool { return cmpPrefix(base[i], row, 3) >= 0 })
		out = append(out, base[:n]...)
		base = base[n:]
		if len(base) > 0 && base[0] == row {
			base = base[1:]
		}
		if !drop {
			out = append(out, row)
		} else if len(ins) > 0 && ins[0] == row {
			ins = ins[1:] // inserted and deleted by one batch: dropped
		}
	}
	return append(out, base...)
}

// appendChunks appends rows to the directory as evenly sized pieces of
// at most chunkRows rows (none when rows is empty). The pieces alias
// rows, which the caller hands over.
func appendChunks(dir [][][3]ID, rows [][3]ID) [][][3]ID {
	pieces := (len(rows) + chunkRows - 1) / chunkRows
	for ; pieces > 0; pieces-- {
		size := (len(rows) + pieces - 1) / pieces
		dir = append(dir, rows[:size:size])
		rows = rows[size:]
	}
	return dir
}
