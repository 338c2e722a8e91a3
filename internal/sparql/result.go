package sparql

import (
	"slices"
	"unsafe"

	"hexastore/internal/rdf"
)

// Row is one query solution as a map: variable name → bound term.
// Variables that occur only in OPTIONAL groups may be absent.
type Row map[string]rdf.Term

// Result holds the solutions of a query as one flat, row-major array of
// terms: row i occupies cells [i·len(Vars), (i+1)·len(Vars)), one cell
// per projection variable in Vars order, and the zero Term marks a
// variable left unbound by an OPTIONAL group. Read it with Len and At.
// The evaluator builds nothing else — no map per row — and the result
// cache hands the same immutable array to every hit, so treat Vars and
// the cells as read-only.
//
// Rows is a compatibility view of the same solutions, one map per row,
// filled by the exported Exec*/Eval* entry points (not by
// Planner.EvalColumnar). For ASK queries IsAsk is true, Answer carries
// the boolean result, and there are no rows.
type Result struct {
	Vars   []string
	Rows   []Row
	IsAsk  bool
	Answer bool

	cells []rdf.Term
	n     int // row count; kept apart from cells because a row may have no columns
}

// Len returns the number of solutions.
func (r *Result) Len() int { return r.n }

// At returns the term bound to Vars[col] in solution row; the zero Term
// (IsZero) when the variable is unbound there.
func (r *Result) At(row, col int) rdf.Term { return r.cells[row*len(r.Vars)+col] }

// fillRows builds the Rows compatibility view from the cells.
func (r *Result) fillRows() {
	if r.n == 0 {
		r.Rows = nil
		return
	}
	nc := len(r.Vars)
	r.Rows = make([]Row, r.n)
	for i := range r.Rows {
		row := make(Row, nc)
		for c, t := range r.cells[i*nc : (i+1)*nc] {
			if !t.IsZero() {
				row[r.Vars[c]] = t
			}
		}
		r.Rows[i] = row
	}
}

// SortRows orders rows lexicographically by the projection variables,
// for deterministic presentation. The sorted cells are a fresh array, so
// sorting a result served from the cache leaves the cached body alone.
func (r *Result) SortRows() {
	nc := len(r.Vars)
	perm := make([]int, r.n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortStableFunc(perm, func(a, b int) int {
		for c := 0; c < nc; c++ {
			if d := compareRendered(r.cells[a*nc+c], r.cells[b*nc+c]); d != 0 {
				return d
			}
		}
		return 0
	})
	cells := make([]rdf.Term, len(r.cells))
	for i, p := range perm {
		copy(cells[i*nc:(i+1)*nc], r.cells[p*nc:(p+1)*nc])
	}
	r.cells = cells
	if r.Rows != nil {
		r.fillRows()
	}
}

// resultEntryOverhead is what one result-cache entry retains besides the
// body and its key: the Result header, the LRU node and list element,
// and its share of the index map.
const resultEntryOverhead = 256

// resultFootprint is the number of bytes a cached result retains: the
// cell array at its capacity (a cell is a kind plus a string header; the
// string bytes themselves belong to the dictionary) and the variable
// names. It sizes the result cache's byte cap and is what a filling
// query's memory meter is charged.
func resultFootprint(r *Result) int64 {
	size := int64(cap(r.cells)) * int64(unsafe.Sizeof(rdf.Term{}))
	for _, v := range r.Vars {
		size += int64(unsafe.Sizeof(v)) + int64(len(v))
	}
	return size
}
