package sparql

import (
	"slices"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/rdf"
)

// Row is one query solution as a map: variable name → bound term.
// Variables that occur only in OPTIONAL groups may be absent.
type Row map[string]rdf.Term

// Result holds the solutions of a query as one flat, row-major array of
// dictionary ids: row i occupies cells [i·len(Vars), (i+1)·len(Vars)),
// one cell per projection variable in Vars order, and None marks a
// variable left unbound by an OPTIONAL group. A term a query computes (an
// aggregate's count) is a cell that names an entry of a small side table
// of computed terms. Ids become terms only when read: At decodes one
// cell, AppendCells hands a block of cells to a serializer. Both decode
// through the dictionary's term table (a dictionary.View) as it stood
// when the
// evaluation ended — a frozen snapshot that covers every id of the
// answer, since ids are assigned append-only and never reused — so the
// result never refreshes it and may be read from any number of
// goroutines. The result cache hands the same immutable cells, side
// table and snapshot to every hit, so treat Vars and the cells as
// read-only.
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

	ids      []core.ID
	n        int             // row count; kept apart from ids because a row may have no columns
	terms    dictionary.View // the frozen term table the ids decode through
	computed []rdf.Term      // the terms of computed cells (computedID)
}

// computedID marks a cell that holds entry id&^computedID of the
// result's computed terms; the dictionary never assigns an id this
// large.
const computedID core.ID = 1 << 63

// term decodes a cell; the zero Term for an unbound one.
func (r *Result) term(id core.ID) rdf.Term {
	switch {
	case id == core.None:
		return rdf.Term{}
	case id&computedID != 0:
		return r.computed[id&^computedID]
	}
	return r.terms.Term(id)
}

// Len returns the number of solutions.
func (r *Result) Len() int { return r.n }

// At returns the term bound to Vars[col] in solution row; the zero Term
// (IsZero) when the variable is unbound there. Its decodes are not
// counted in hex_sparql_terms_decoded_total: a cell read is too small to
// pay a shared counter's update, and one cached result may be read cell
// by cell from many goroutines at once.
func (r *Result) At(row, col int) rdf.Term {
	return r.term(r.ids[row*len(r.Vars)+col])
}

// Cell is one answer cell as a serializer reads it: the bound term's
// value, aliasing the dictionary's bytes, and its kind and JSON-plain
// bit. Bound is false for an unbound cell.
type Cell struct {
	Value string
	Meta  dictionary.Meta
	Bound bool
}

// AppendCells appends the cells of rows [lo, hi) to dst, row-major. It
// is a serializer's gather: one pass over a block's ids, whose
// term-table loads do not depend on each other, before any byte is
// written — where decoding cell by cell pays each cache miss in turn.
func (r *Result) AppendCells(dst []Cell, lo, hi int) []Cell {
	nc := len(r.Vars)
	cells := r.ids[lo*nc : hi*nc]
	base := len(dst)
	dst = slices.Grow(dst, len(cells))[:base+len(cells)]
	decoded := 0
	for i, id := range cells {
		var c Cell
		switch {
		case id == core.None:
		case id&computedID != 0:
			t := r.computed[id&^computedID]
			c = Cell{Value: t.Value, Meta: dictionary.MetaOf(t.Kind, t.Value), Bound: true}
			decoded++
		default:
			c.Value, c.Meta = r.terms.At(id)
			c.Bound = true
			decoded++
		}
		dst[base+i] = c
	}
	termsDecodedTotal.Add(int64(decoded))
	return dst
}

// fillRows builds the Rows compatibility view from the cells.
func (r *Result) fillRows() {
	if r.n == 0 {
		r.Rows = nil
		return
	}
	nc := len(r.Vars)
	r.Rows = make([]Row, r.n)
	decoded := 0
	for i := range r.Rows {
		row := make(Row, nc)
		for c, id := range r.ids[i*nc : (i+1)*nc] {
			if id != core.None {
				row[r.Vars[c]] = r.term(id)
				decoded++
			}
		}
		r.Rows[i] = row
	}
	termsDecodedTotal.Add(int64(decoded))
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
			if d := compareRendered(r.term(r.ids[a*nc+c]), r.term(r.ids[b*nc+c])); d != 0 {
				return d
			}
		}
		return 0
	})
	ids := make([]core.ID, len(r.ids))
	for i, p := range perm {
		copy(ids[i*nc:(i+1)*nc], r.ids[p*nc:(p+1)*nc])
	}
	r.ids = ids
	if r.Rows != nil {
		r.fillRows()
	}
}
