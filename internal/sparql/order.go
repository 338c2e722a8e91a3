package sparql

// ORDER BY. Result rows are never moved while they are collected: each
// row carries its sort keys (one sortKey per ORDER BY variable, computed
// once per distinct id) and its emit sequence number, and the final
// order is one sort of a row permutation on (keys, sequence) — the
// sequence makes ties keep emit order, as a stable sort would. With a
// LIMIT only the first offset+limit rows of that order can be returned,
// so collection keeps just those in a bounded max-heap and rejects every
// other candidate on one comparison with the heap's root, before its
// projected ids are even copied.

import (
	"cmp"
	"slices"
	"strconv"
	"strings"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/rdf"
)

// sortKey is a term prepared for ordering comparisons: its numeric
// value, when it has one, is parsed once instead of inside every
// comparison. bound is false for an unbound OPTIONAL variable.
type sortKey struct {
	term  rdf.Term
	num   numVal
	bound bool
}

// numVal is the outcome of strconv.ParseFloat on a term's value.
type numVal struct {
	f  float64
	ok bool
}

func newSortKey(t rdf.Term) sortKey {
	k := sortKey{term: t, bound: true}
	if startsNumber(t.Value) {
		k.num = parseNum(t.Value)
	}
	return k
}

// startsNumber reports whether s begins like something ParseFloat could
// accept. Every http IRI is turned away here on its first byte — without
// the error ParseFloat would allocate to say so.
func startsNumber(s string) bool {
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case c >= '0' && c <= '9', c == '+', c == '-', c == '.',
		c == 'i', c == 'I', c == 'n', c == 'N': // inf, nan
		return true
	}
	return false
}

func parseNum(s string) numVal {
	f, err := strconv.ParseFloat(s, 64)
	return numVal{f, err == nil}
}

// termReader turns ids into terms for one goroutine of an evaluation —
// the evaluator's own for ORDER BY keys, one per executor for
// FILTERs — through a snapshot of the dictionary's term
// table, so a decode is an index and a slice with no lock, no
// allocation and no per-query table to fill. The evaluator's snapshot,
// refreshed once the evaluation ends, is the term table its result keeps. nums
// memoizes the numeric parse FILTER and ORDER BY compare on; decoded
// counts decodes for the trace and /metrics.
type termReader struct {
	snap    dictionary.Snapshot
	nums    map[core.ID]numVal
	decoded int
}

func newTermReader(d *dictionary.Dictionary) termReader {
	return termReader{snap: d.Snapshot()}
}

// keyOf returns the sort key of the term behind id — the unbound key
// for None. FILTER comparisons and ORDER BY share it: a value is parsed
// once however many rows carry it. Values that cannot be numbers are not
// remembered — there is nothing to save.
func (tr *termReader) keyOf(id core.ID) (sortKey, error) {
	if id == core.None {
		return sortKey{}, nil
	}
	tr.decoded++
	t, err := tr.snap.Decode(id)
	if err != nil {
		return sortKey{}, err
	}
	k := sortKey{term: t, bound: true}
	if !startsNumber(t.Value) {
		return k, nil
	}
	n, ok := tr.nums[id]
	if !ok {
		if tr.nums == nil {
			tr.nums = make(map[core.ID]numVal)
		}
		n = parseNum(t.Value)
		tr.nums[id] = n
	}
	k.num = n
	return k, nil
}

// compareSortKeys orders two bound keys numerically when both are
// numbers, by their N-Triples rendering otherwise.
func compareSortKeys(a, b sortKey) int {
	if a.num.ok && b.num.ok {
		return compareFloats(a.num.f, b.num.f)
	}
	return compareRendered(a.term, b.term)
}

// compareFloats is the three-way comparison FILTER and ORDER BY have
// always used: a NaN is neither less nor greater, so it compares equal
// to everything (cmp.Compare would sort it first).
func compareFloats(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// compareRendered is strings.Compare(a.String(), b.String()) without
// building either string: the renderings differ in their first byte when
// the kinds differ, and otherwise are the values between one shared
// prefix and one shared closing byte. Literals that need escaping take
// the slow path.
func compareRendered(a, b rdf.Term) int {
	if a.Kind != b.Kind {
		return cmp.Compare(renderedFirst(a.Kind), renderedFirst(b.Kind))
	}
	var closing byte
	switch a.Kind {
	case rdf.IRI:
		closing = '>'
	case rdf.Literal:
		if strings.ContainsAny(a.Value, "\"\\\n\r\t") || strings.ContainsAny(b.Value, "\"\\\n\r\t") {
			return strings.Compare(a.String(), b.String())
		}
		closing = '"'
	default:
		return strings.Compare(a.Value, b.Value)
	}
	x, y := a.Value, b.Value
	n := min(len(x), len(y))
	if c := strings.Compare(x[:n], y[:n]); c != 0 || len(x) == len(y) {
		return c
	}
	// One value is a proper prefix of the other: the shorter rendering's
	// closing byte meets the longer one's next value byte. When those are
	// equal the shorter rendering is a prefix of the longer.
	if len(x) < len(y) {
		if closing > y[n] {
			return 1
		}
		return -1
	}
	if closing > x[n] {
		return -1
	}
	return 1
}

// renderedFirst is the first byte of a term's N-Triples rendering.
func renderedFirst(k rdf.TermKind) byte {
	switch k {
	case rdf.IRI:
		return '<'
	case rdf.Literal:
		return '"'
	case rdf.Blank:
		return '_'
	default:
		return '!'
	}
}

// compareRowKeys orders two rows' key tuples under the query's ORDER BY:
// an unbound key sorts before a bound one, DESC reverses a key.
func (ev *evaluator) compareRowKeys(a, b []sortKey) int {
	for i, k := range ev.q.OrderBy {
		var c int
		switch x, y := a[i], b[i]; {
		case x.bound != y.bound:
			c = 1
			if y.bound {
				c = -1
			}
		case x.bound:
			c = compareSortKeys(x, y)
		}
		if c != 0 {
			if k.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// rowKeys returns the stored key tuple of collected row r.
func (ev *evaluator) rowKeys(r int) []sortKey {
	nk := len(ev.q.OrderBy)
	return ev.orderKeys[r*nk : (r+1)*nk]
}

// compareRows orders collected rows a and b in the final order: by their
// keys, then by emit sequence.
func (ev *evaluator) compareRows(a, b int) int {
	if c := ev.compareRowKeys(ev.rowKeys(a), ev.rowKeys(b)); c != 0 {
		return c
	}
	return cmp.Compare(ev.orderSeq[a], ev.orderSeq[b])
}

// heapify arranges the collected rows (exactly topK of them) into a
// max-heap of row indices: heap[0] is the row that sorts last.
func (ev *evaluator) heapify() {
	ev.heap = make([]int, ev.res.n)
	for i := range ev.heap {
		ev.heap[i] = i
	}
	for i := len(ev.heap)/2 - 1; i >= 0; i-- {
		ev.siftDown(i)
	}
}

func (ev *evaluator) siftDown(i int) {
	h := ev.heap
	for {
		child := 2*i + 1
		if child >= len(h) {
			return
		}
		if r := child + 1; r < len(h) && ev.compareRows(h[child], h[r]) < 0 {
			child = r
		}
		if ev.compareRows(h[i], h[child]) >= 0 {
			return
		}
		h[i], h[child] = h[child], h[i]
		i = child
	}
}

// sortRows puts the collected rows in ORDER BY order and applies OFFSET
// and LIMIT, copying only the returned rows into the final id array.
func (ev *evaluator) sortRows() {
	res := ev.res
	perm := make([]int, res.n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, ev.compareRows)
	lo, hi := window(res.n, ev.q.Offset, ev.q.Limit)
	nc := len(res.Vars)
	ids := make([]core.ID, (hi-lo)*nc)
	for i, p := range perm[lo:hi] {
		copy(ids[i*nc:(i+1)*nc], res.ids[p*nc:(p+1)*nc])
	}
	res.ids, res.n = ids, hi-lo
}

// window returns the row range [lo, hi) that OFFSET and LIMIT (NoLimit:
// none) select out of n rows.
func window(n, offset, limit int) (lo, hi int) {
	lo = min(offset, n)
	hi = n
	if limit != NoLimit && lo+limit < hi {
		hi = lo + limit
	}
	return lo, hi
}
