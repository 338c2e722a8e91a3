// Package core implements the Hexastore of Weiss, Karras and Bernstein
// (VLDB 2008): an in-memory RDF store that materializes all 3! = 6
// orderings of the triple elements — spo, sop, pso, pos, osp, ops.
//
// Each index associates a head resource with a sorted vector of
// second-position keys; each vector entry holds a sorted terminal list of
// third-position resources. The packed layout (arena.go) stores the two
// orderings that share a head position — spo and sop, pso and pos, osp
// and ops — in one record per head, each vector delta+varint encoded with
// its terminal lists inline. The paper's §4.1 layout instead shares one
// physical terminal list between the two orderings that end in the same
// element (spo & pso, sop & osp, pos & ops), which is where its worst-case
// five-fold space bound comes from; Stats counts entries that way and
// EstimateRawIndexBytes prices that layout.
//
// A Store is immutable once Builder.Build, Restore or Patch returns it, so
// every read is lock-free and every view it hands out stays valid for as
// long as it is held. Writes go through a new store: Patch folds sorted
// adds and deletes into one that shares every untouched record with the
// old (the delta overlay's compaction).
package core

import (
	"hexastore/internal/dictionary"
	"hexastore/internal/idlist"
)

// ID is a dictionary-encoded resource identifier.
type ID = dictionary.ID

// None is the wildcard / unbound marker in pattern lookups.
const None = dictionary.None

// Index names one of the six materialized orderings.
type Index uint8

// The six orderings, named by the order of precedence of the triple
// elements (paper §4.1).
const (
	SPO Index = iota
	SOP
	PSO
	POS
	OSP
	OPS
)

// String returns the lower-case acronym of the ordering.
func (ix Index) String() string {
	switch ix {
	case SPO:
		return "spo"
	case SOP:
		return "sop"
	case PSO:
		return "pso"
	case POS:
		return "pos"
	case OSP:
		return "osp"
	case OPS:
		return "ops"
	default:
		return "invalid"
	}
}

// AllIndexes lists the six orderings in declaration order.
var AllIndexes = [6]Index{SPO, SOP, PSO, POS, OSP, OPS}

// Store is a sealed Hexastore: safe for concurrent readers without
// locking, and never mutated. The zero value is not usable; call New or
// build one with a Builder.
type Store struct {
	dict *dictionary.Dictionary

	// The six orderings, one arena per head position — S, P, O at ix/2 —
	// whose records hold a head's vectors of both orderings (arena.go).
	arenas [3]arena

	size int
}

// New returns an empty store with its own private dictionary.
func New() *Store { return NewShared(dictionary.New()) }

// NewShared returns an empty store using dict, so that several stores
// (e.g. a Hexastore and the COVP baselines) can be compared on identical
// keys.
func NewShared(dict *dictionary.Dictionary) *Store { return &Store{dict: dict} }

// Dictionary returns the store's dictionary.
func (st *Store) Dictionary() *dictionary.Dictionary { return st.dict }

// arena returns the arena that holds ordering ix: its head position's.
func (st *Store) arena(ix Index) *arena { return &st.arenas[ix/2] }

// vec returns head's packed vector in ordering ix — half ix%2 of its
// record — or the empty vector.
func (st *Store) vec(ix Index, head ID) idlist.Packed {
	rec := st.arena(ix).record(head)
	if rec == nil {
		return idlist.Packed{}
	}
	pk := idlist.DecodePacked(rec)
	if ix%2 == 1 {
		pk = idlist.DecodePacked(rec[pk.EncodedLen():])
	}
	return pk
}

// terminalView returns the terminal list of a pattern with exactly two
// bound positions — the sorted candidate values of the one None position:
// objects of ⟨s,p,·⟩ from spo, properties of ⟨s,·,o⟩ from sop, subjects
// of ⟨·,p,o⟩ from pos. It panics on any other pattern shape.
func (st *Store) terminalView(s, p, o ID) idlist.View {
	var v idlist.View
	switch {
	case s != None && p != None && o == None:
		v, _ = st.vec(SPO, s).Find(p)
	case s != None && p == None && o != None:
		v, _ = st.vec(SOP, s).Find(o)
	case s == None && p != None && o != None:
		v, _ = st.vec(POS, p).Find(o)
	default:
		panic("core: a terminal list needs exactly two bound positions")
	}
	return v
}

// Len returns the number of distinct triples in the store.
func (st *Store) Len() int { return st.size }

// Has reports whether the triple ⟨s,p,o⟩ is present.
func (st *Store) Has(s, p, o ID) bool {
	v, ok := st.vec(SPO, s).Find(p)
	return ok && v.Contains(o)
}

// Head returns the vector for head in ordering ix, empty if head does not
// occur in that position. For example, Head(SPO, s) is the sorted
// property vector of subject s, and each vector entry's list holds the
// objects of ⟨s, p, ·⟩. The vector is read in place from the immutable
// arena bytes: its KeyCursor steps and seeks the keys, and Find and the
// cursor hand out each entry's list as a zero-copy View.
func (st *Store) Head(ix Index, head ID) idlist.Packed { return st.vec(ix, head) }

// Heads returns the number of distinct head resources in ordering ix
// (e.g. Heads(PSO) is the number of distinct properties).
func (st *Store) Heads(ix Index) int { return st.arena(ix).heads }

// HeadIDs returns the head resources of ordering ix, ascending.
func (st *Store) HeadIDs(ix Index) []ID {
	out := make([]ID, 0, st.arena(ix).heads)
	st.arena(ix).rangeHeads(func(id ID) bool {
		out = append(out, id)
		return true
	})
	return out
}

// find returns the terminal list under key in head's vector of ix as a
// zero-copy View of the arena bytes, empty when there is none.
func (st *Store) find(ix Index, head, key ID) idlist.View {
	v, _ := st.vec(ix, head).Find(key)
	return v
}

// Objects returns the sorted object list of ⟨s, p, ·⟩, empty if none.
func (st *Store) Objects(s, p ID) idlist.View { return st.find(SPO, s, p) }

// Subjects returns the sorted subject list of ⟨·, p, o⟩, empty if none.
func (st *Store) Subjects(p, o ID) idlist.View { return st.find(POS, p, o) }

// Properties returns the sorted property list of ⟨s, ·, o⟩, empty if none.
func (st *Store) Properties(s, o ID) idlist.View { return st.find(SOP, s, o) }

// PatternCardinality returns the exact number of triples matching
// ⟨s,p,o⟩ (None = wildcard) without scanning triples: terminal-list
// lengths for 2–3 bound positions, a vector's running total for 1, the
// store size for 0. It is the selectivity primitive the query engine
// orders patterns with.
func (st *Store) PatternCardinality(s, p, o ID) int {
	switch {
	case s != None && p != None && o != None:
		if st.Has(s, p, o) {
			return 1
		}
		return 0
	case s != None && p != None, s != None && o != None, p != None && o != None:
		return st.terminalView(s, p, o).Len()
	case s != None:
		return st.vec(SPO, s).Total()
	case p != None:
		return st.vec(PSO, p).Total()
	case o != None:
		return st.vec(OSP, o).Total()
	default:
		return st.size
	}
}

// AppendSorted appends the sorted candidate values of the single None
// position of a 2-bound pattern to dst and returns the extended slice.
func (st *Store) AppendSorted(dst []ID, s, p, o ID) []ID {
	return st.terminalView(s, p, o).AppendTo(dst)
}

// SortedListView returns a zero-copy view of the sorted candidate values
// of a 2-bound pattern's free position: the immutable arena bytes
// themselves, which the batch engine merges against with block skipping
// and no materialization.
func (st *Store) SortedListView(s, p, o ID) idlist.View { return st.terminalView(s, p, o) }

// KeyCursor returns a forward cursor over the values position keyPos
// (0 = S, 1 = P, 2 = O) takes in the triples whose position headPos is
// head: the sorted keys of head's vector in the ordering headed by
// headPos and keyed by keyPos, e.g. the properties of subject s for
// (0, 1, s) from spo. It reads the immutable arena bytes in place and
// panics when the two positions are the same.
func (st *Store) KeyCursor(headPos, keyPos int, head ID) idlist.KeyCursor {
	if headPos == keyPos {
		panic("core: a key cursor needs two different positions")
	}
	return st.vec(keyedBy[headPos][keyPos], head).Keys()
}

// keyedBy[h][k] is the ordering headed by position h and keyed by
// position k (the diagonal is unused).
var keyedBy = [3][3]Index{
	{SPO, SPO, SOP},
	{PSO, PSO, POS},
	{OSP, OPS, OPS},
}

// SortedPairs streams the values of the two free positions of a
// 1-bound pattern — (p,o) for ⟨s,·,·⟩, (s,o) for ⟨·,p,·⟩, (s,p) for
// ⟨·,·,o⟩ — ordered by the first free position ascending and the second
// ascending within it. Iteration stops early when fn returns false. It
// panics unless exactly one position is bound.
func (st *Store) SortedPairs(s, p, o ID, fn func(a, b ID) bool) {
	switch {
	case s != None && p == None && o == None:
		st.vec(SPO, s).RangePairs(fn)
	case s == None && p != None && o == None:
		st.vec(PSO, p).RangePairs(fn)
	case s == None && p == None && o != None:
		st.vec(OSP, o).RangePairs(fn)
	default:
		panic("core: SortedPairs needs exactly one bound position")
	}
}
