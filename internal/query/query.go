// Package query provides query processing over the in-memory Hexastore:
// triple patterns, the paper's flagship join strategies (§4.2), and path
// expression evaluation (§4.3).
//
// The package works on dictionary-encoded IDs over a sealed core.Store,
// reading its index vectors directly; SPARQL querying over any Graph
// backend is package sparql's job.
package query

import (
	"hexastore/internal/core"
	"hexastore/internal/idlist"
)

// ID is a dictionary-encoded resource identifier.
type ID = core.ID

// None is the wildcard marker in patterns.
const None = core.None

// Pattern is a triple pattern; None in a position means unbound.
type Pattern struct {
	S, P, O ID
}

// Bound returns the number of bound positions (0–3).
func (p Pattern) Bound() int {
	n := 0
	if p.S != None {
		n++
	}
	if p.P != None {
		n++
	}
	if p.O != None {
		n++
	}
	return n
}

// Engine evaluates patterns, joins and path expressions over the index
// vectors of an in-memory Hexastore.
type Engine struct {
	store *core.Store
}

// NewEngine returns an engine over the in-memory store st.
func NewEngine(st *core.Store) *Engine { return &Engine{store: st} }

// Match streams the triples matching pat. A sealed store cannot fail,
// so the error is always nil.
func (e *Engine) Match(pat Pattern, fn func(s, p, o ID) bool) error {
	e.store.Match(pat.S, pat.P, pat.O, fn)
	return nil
}

// Count returns the number of triples matching pat, read off the index
// without a scan. The error is always nil.
func (e *Engine) Count(pat Pattern) (int, error) {
	return e.store.Count(pat.S, pat.P, pat.O), nil
}

// SubjectsRelatedToBothObjects returns the subjects related — by any
// property — to both o1 and o2. This is the paper's §4.2 showcase
// ("reduction of unions and joins"): the Hexastore answers it by linearly
// merge-joining the two subject vectors in osp indexing, where
// property-oriented schemes must union over every property table.
func (e *Engine) SubjectsRelatedToBothObjects(o1, o2 ID) *idlist.List {
	v1 := e.store.Head(core.OSP, o1).Keys()
	v2 := e.store.Head(core.OSP, o2).Keys()
	var out []ID
	idlist.MergeKeys(&v1, &v2, func(s ID) { out = append(out, s) })
	return idlist.FromSorted(out)
}

// RelatedResources returns every (property, subject) pair pointing at
// object o — "a list of subjects or properties related to a given
// object", the functionality §3 argues no prior scheme provides
// directly. The ops index supplies it as a single vector walk.
func (e *Engine) RelatedResources(o ID, fn func(p, s ID) bool) {
	e.store.Head(core.OPS, o).RangePairs(fn)
}
