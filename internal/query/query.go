// Package query provides query processing over a Hexastore: triple
// patterns, the paper's flagship join strategies (§4.2), and path
// expression evaluation (§4.3).
//
// The package works on dictionary-encoded IDs; string-level querying is
// provided by package sparql on top of this one. An Engine evaluates
// against any graph.Graph backend; when the backend is the in-memory
// sextuple-indexed core.Store, the engine additionally uses vector-level
// index access for constant-time selectivity estimates and the paper's
// merge-join path algorithms.
package query

import (
	"hexastore/internal/core"
	"hexastore/internal/graph"
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

// Engine evaluates queries against a Graph backend.
type Engine struct {
	g graph.Graph
	// store is the in-memory Hexastore behind g, when there is one; it
	// enables exact selectivity estimates and vector-level merge joins.
	store *core.Store
	// sorted is the backend's sorted-list capability, when it has one;
	// it gives non-memory backends (the disk store) scan-free
	// selectivity answers for the 2- and 3-bound pattern shapes.
	sorted graph.SortedSource
}

// NewEngine returns an engine over the in-memory store st.
func NewEngine(st *core.Store) *Engine {
	return NewGraphEngine(graph.Memory(st))
}

// NewGraphEngine returns an engine over any Graph backend. Index-aware
// fast paths activate automatically when g is backed by a core.Store.
func NewGraphEngine(g graph.Graph) *Engine {
	e := &Engine{g: g}
	if st, ok := graph.Unwrap(g).(*core.Store); ok {
		e.store = st
	}
	if ss, ok := graph.AsSortedSource(g); ok {
		e.sorted = ss
	}
	return e
}

// Store returns the in-memory Hexastore behind the engine, or nil when
// the engine runs over a different backend.
func (e *Engine) Store() *core.Store { return e.store }

// Sorted returns the backend's SortedSource capability, or nil.
func (e *Engine) Sorted() graph.SortedSource { return e.sorted }

// Graph returns the backend the engine evaluates against.
func (e *Engine) Graph() graph.Graph { return e.g }

// Match streams the triples matching pat.
func (e *Engine) Match(pat Pattern, fn func(s, p, o ID) bool) error {
	return e.g.Match(pat.S, pat.P, pat.O, fn)
}

// Count returns the number of triples matching pat.
func (e *Engine) Count(pat Pattern) (int, error) {
	return e.g.Count(pat.S, pat.P, pat.O)
}

// Selectivity estimates the result cardinality of pat. On a memory
// backend it never scans: exact for 2–3 bound positions (terminal-list
// lengths), vector length × average for 1 bound, store size for 0
// bound. On a SortedSource backend (the disk store) the 3-bound shape
// is one existence probe, the 2-bound shape one counting prefix scan,
// and the sparser shapes fall back to the store size, never a full
// scan. Other backends answer with an exact Count (a full scan);
// backend errors degrade to 0. Used by the sparql planner to order
// patterns.
func (e *Engine) Selectivity(pat Pattern) int {
	st := e.store
	if st == nil && e.sorted != nil {
		switch pat.Bound() {
		case 3:
			ok, err := e.g.Has(pat.S, pat.P, pat.O)
			if err != nil {
				return 0
			}
			if ok {
				return 1
			}
			return 0
		case 2:
			// A counting prefix scan — same I/O as fetching the sorted
			// list but without materializing it.
			n, err := e.g.Count(pat.S, pat.P, pat.O)
			if err != nil {
				return 0
			}
			return n
		default:
			return e.g.Len()
		}
	}
	if st == nil {
		n, err := e.g.Count(pat.S, pat.P, pat.O)
		if err != nil {
			return 0
		}
		return n
	}
	// One index computation, no scan.
	return st.PatternCardinality(pat.S, pat.P, pat.O)
}

// SubjectsRelatedToBothObjects returns the subjects related — by any
// property — to both o1 and o2. This is the paper's §4.2 showcase
// ("reduction of unions and joins"): the Hexastore answers it by linearly
// merge-joining the two subject vectors in osp indexing, where
// property-oriented schemes must union over every property table. Other
// backends collect the two subject sets by pattern matching; a backend
// error truncates the result.
func (e *Engine) SubjectsRelatedToBothObjects(o1, o2 ID) *idlist.List {
	if e.store != nil {
		v1 := e.store.Head(core.OSP, o1)
		v2 := e.store.Head(core.OSP, o2)
		if v1.Len() == 0 || v2.Len() == 0 {
			return &idlist.List{}
		}
		return idlist.Intersect(v1.KeyList(), v2.KeyList())
	}
	return idlist.Intersect(e.subjectsOf(o1), e.subjectsOf(o2))
}

// subjectsOf returns the distinct subjects related to object o.
func (e *Engine) subjectsOf(o ID) *idlist.List {
	var b idlist.Builder
	e.g.Match(None, None, o, func(s, _, _ ID) bool {
		b.Add(s)
		return true
	})
	return b.Finish()
}

// RelatedResources returns every (property, subject) pair pointing at
// object o — "a list of subjects or properties related to a given
// object", the functionality §3 argues no prior scheme provides
// directly. The ops index supplies it as a single vector walk on the
// memory backend; other backends stream the same pairs in their own
// index order.
func (e *Engine) RelatedResources(o ID, fn func(p, s ID) bool) {
	if e.store != nil {
		stop := false
		e.store.Head(core.OPS, o).Range(func(p ID, subjs *idlist.List) bool {
			subjs.Range(func(s ID) bool {
				if !fn(p, s) {
					stop = true
				}
				return !stop
			})
			return !stop
		})
		return
	}
	e.g.Match(None, None, o, func(s, p, _ ID) bool {
		return fn(p, s)
	})
}
