// Package core implements the Hexastore of Weiss, Karras and Bernstein
// (VLDB 2008): an in-memory RDF store that materializes all 3! = 6
// orderings of the triple elements — spo, sop, pso, pos, osp, ops.
//
// Each index associates a head resource with a sorted vector of
// second-position keys; each vector entry points to a sorted terminal
// list of third-position resources. Following §4.1 of the paper, the
// three index pairs that end in the same element share a single physical
// copy of their terminal lists:
//
//	spo & pso share the object  lists, keyed by (subject, property)
//	sop & osp share the property lists, keyed by (subject, object)
//	pos & ops share the subject lists, keyed by (property, object)
//
// This sharing yields the paper's worst-case five-fold (not six-fold)
// space bound relative to a plain triples table.
package core

import (
	"strconv"
	"sync"
	"sync/atomic"

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

// Vec is a sorted association vector of an index; see idlist.Vec.
type Vec = idlist.Vec

// pairKey identifies a shared terminal list by its two leading resources.
type pairKey struct{ a, b ID }

// Store is a Hexastore. The zero value is not usable; call New.
//
// Store is safe for concurrent use: reads take a shared lock, mutations an
// exclusive one. Lists and slices returned by accessors alias internal
// storage and are valid until the next mutation; callers must not modify
// them.
type Store struct {
	mu   sync.RWMutex
	dict *dictionary.Dictionary

	// Shared terminal lists (single physical copies, §4.1).
	objLists  map[pairKey]*idlist.List // (s,p) → sorted objects
	propLists map[pairKey]*idlist.List // (s,o) → sorted properties
	subjLists map[pairKey]*idlist.List // (p,o) → sorted subjects

	// Six head indices (raw layout).
	idx [6]map[ID]*Vec

	// Six head indices in the block-compressed layout: one arena per head
	// position (arena.go) — S, P, O at ix/2 — whose records hold a head's
	// vectors of both orderings, every vector packed delta+varint bytes
	// (idlist.Packed) holding its keys and terminal lists together. When
	// compressed is set the arenas carry the store's whole content, idx
	// and the three pair maps above are empty, and 2-bound lookups go
	// through the packed vectors. Bulk builders set it; the first direct
	// Add/Remove clears it by decompressing the whole store (see
	// decompressLocked).
	arenas     [3]arena
	compressed bool

	size int

	// version counts content mutations (successful Add/Remove calls). It
	// backs the graph.Epocher capability: result caches key on it, so it
	// must change whenever query answers can change.
	version atomic.Uint64

	advisor Advisor
}

// Epoch returns the store's content-version token (see graph.Epocher).
func (s *Store) Epoch() string {
	return "m" + strconv.FormatUint(s.version.Load(), 10)
}

// New returns an empty Hexastore with its own private dictionary.
func New() *Store { return NewShared(dictionary.New()) }

// NewShared returns an empty Hexastore using dict, so that several stores
// (e.g. a Hexastore and the COVP baselines) can be compared on identical
// keys.
func NewShared(dict *dictionary.Dictionary) *Store {
	s := &Store{
		dict:      dict,
		objLists:  make(map[pairKey]*idlist.List),
		propLists: make(map[pairKey]*idlist.List),
		subjLists: make(map[pairKey]*idlist.List),
	}
	for i := range s.idx {
		s.idx[i] = make(map[ID]*Vec)
	}
	return s
}

// Dictionary returns the store's dictionary.
func (s *Store) Dictionary() *dictionary.Dictionary { return s.dict }

// Compressed reports whether the store currently uses the
// block-compressed index layout.
func (s *Store) Compressed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.compressed
}

// decompressLocked converts a block-compressed store to the raw
// shared-terminal-list layout in place: the triple set is decoded from
// the packed spo vectors and the six indexes are rebuilt with the bulk
// fill. The arena segments themselves are never mutated, so zero-copy
// views handed out before the conversion keep reading a consistent
// (pre-mutation) image. Caller holds st.mu exclusively.
//
// This is the write-path escape hatch: direct Add/Remove on a
// compressed store pays one O(n) conversion and then proceeds on the
// raw layout. Live-update workloads should mutate through the delta
// overlay instead, which never touches a bulk-built main.
func (st *Store) decompressLocked() {
	if !st.compressed {
		return
	}
	ts := make([][3]ID, 0, st.size)
	st.arena(SPO).rangeHeads(func(s ID) bool {
		st.vec(SPO, s).Range(func(p ID, v idlist.View) bool {
			v.Range(func(o ID) bool {
				ts = append(ts, [3]ID{s, p, o})
				return true
			})
			return true
		})
		return true
	})
	st.arenas = [3]arena{}
	fillStore(st, ts, 1, false)
}

// arena returns the arena that holds ordering ix: its head position's.
func (st *Store) arena(ix Index) *arena { return &st.arenas[ix/2] }

// vec returns head's packed vector in ordering ix — half ix%2 of its
// record — or the empty vector; caller holds st.mu.
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

// rangeHeadLocked streams the (key, terminal-list view) pairs of head's
// vector in ix, whichever layout the store is in; caller holds st.mu.
func (st *Store) rangeHeadLocked(ix Index, head ID, fn func(ID, idlist.View) bool) {
	if st.compressed {
		st.vec(ix, head).Range(fn)
		return
	}
	st.idx[ix][head].RangeViews(fn)
}

// terminalViewLocked returns the terminal-list view of a pattern with
// exactly two bound positions in the compressed layout; the caller
// holds st.mu and has checked st.compressed.
func (st *Store) terminalViewLocked(s, p, o ID) idlist.View {
	var v idlist.View
	switch {
	case s != None && p != None && o == None:
		v, _ = st.vec(SPO, s).Find(p)
	case s != None && p == None && o != None:
		v, _ = st.vec(SOP, s).Find(o)
	case s == None && p != None && o != None:
		v, _ = st.vec(POS, p).Find(o)
	default:
		panic("core: terminal view needs exactly two bound positions")
	}
	return v
}

// Len returns the number of distinct triples in the store.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.size
}

// Add inserts the triple ⟨s,p,o⟩, updating all six indices. It reports
// whether the store changed (false if the triple was already present).
// Insertion touches every index, which the paper (§4.2) notes is the
// scheme's main write-path cost.
func (st *Store) Add(s, p, o ID) bool {
	if s == None || p == None || o == None {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.decompressLocked()

	ol, olNew := getOrCreate(st.objLists, pairKey{s, p})
	if !ol.Insert(o) {
		return false // triple already present; nothing else to do
	}
	pl, plNew := getOrCreate(st.propLists, pairKey{s, o})
	pl.Insert(p)
	sl, slNew := getOrCreate(st.subjLists, pairKey{p, o})
	sl.Insert(s)

	if olNew {
		st.headVec(SPO, s).Insert(p, ol)
		st.headVec(PSO, p).Insert(s, ol)
	}
	if plNew {
		st.headVec(SOP, s).Insert(o, pl)
		st.headVec(OSP, o).Insert(s, pl)
	}
	if slNew {
		st.headVec(POS, p).Insert(o, sl)
		st.headVec(OPS, o).Insert(p, sl)
	}
	st.size++
	st.version.Add(1)
	return true
}

// Remove deletes the triple ⟨s,p,o⟩ from all six indices, pruning vectors
// and terminal lists that become empty. It reports whether the store
// changed.
func (st *Store) Remove(s, p, o ID) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.decompressLocked()

	ol := st.objLists[pairKey{s, p}]
	if ol == nil || !ol.Remove(o) {
		return false
	}
	if ol.Len() == 0 {
		delete(st.objLists, pairKey{s, p})
		st.dropVecKey(SPO, s, p)
		st.dropVecKey(PSO, p, s)
	}
	if pl := st.propLists[pairKey{s, o}]; pl != nil {
		pl.Remove(p)
		if pl.Len() == 0 {
			delete(st.propLists, pairKey{s, o})
			st.dropVecKey(SOP, s, o)
			st.dropVecKey(OSP, o, s)
		}
	}
	if sl := st.subjLists[pairKey{p, o}]; sl != nil {
		sl.Remove(s)
		if sl.Len() == 0 {
			delete(st.subjLists, pairKey{p, o})
			st.dropVecKey(POS, p, o)
			st.dropVecKey(OPS, o, p)
		}
	}
	st.size--
	st.version.Add(1)
	return true
}

// Has reports whether the triple ⟨s,p,o⟩ is present.
func (st *Store) Has(s, p, o ID) bool {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.compressed {
		v, ok := st.vec(SPO, s).Find(p)
		return ok && v.Contains(o)
	}
	return st.objLists[pairKey{s, p}].Contains(o)
}

// headVec returns (creating if needed) the vector for head in index ix.
func (st *Store) headVec(ix Index, head ID) *Vec {
	v := st.idx[ix][head]
	if v == nil {
		v = &Vec{}
		st.idx[ix][head] = v
	}
	return v
}

// dropVecKey removes key from head's vector in ix, deleting the vector if
// it becomes empty.
func (st *Store) dropVecKey(ix Index, head, key ID) {
	v := st.idx[ix][head]
	if v == nil {
		return
	}
	v.Remove(key)
	if v.Len() == 0 {
		delete(st.idx[ix], head)
	}
}

func getOrCreate(m map[pairKey]*idlist.List, k pairKey) (l *idlist.List, created bool) {
	l = m[k]
	if l == nil {
		l = &idlist.List{}
		m[k] = l
		created = true
	}
	return l, created
}

// Head returns the vector for head in ordering ix, or nil if head does
// not occur in that position. For example, Head(SPO, s) is the sorted
// property vector of subject s, and each vector entry's list holds the
// objects of ⟨s, p, ·⟩. On a compressed store the returned Vec is a
// freshly materialized wrapper around the immutable packed bytes (its
// accessors stay zero-copy).
func (st *Store) Head(ix Index, head ID) *Vec {
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.advisor.hit(ix)
	if st.compressed {
		if pk := st.vec(ix, head); pk.Len() > 0 {
			return idlist.FromPacked(pk)
		}
		return nil
	}
	return st.idx[ix][head]
}

// Heads returns the number of distinct head resources in ordering ix
// (e.g. Heads(PSO) is the number of distinct properties).
func (st *Store) Heads(ix Index) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.compressed {
		return st.arena(ix).heads
	}
	return len(st.idx[ix])
}

// HeadIDs returns the head resources of ordering ix, ascending on a
// compressed store.
func (st *Store) HeadIDs(ix Index) []ID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.compressed {
		out := make([]ID, 0, st.arena(ix).heads)
		st.arena(ix).rangeHeads(func(id ID) bool {
			out = append(out, id)
			return true
		})
		return out
	}
	out := make([]ID, 0, len(st.idx[ix]))
	for id := range st.idx[ix] {
		out = append(out, id)
	}
	return out
}

// Objects returns the sorted object list of ⟨s, p, ·⟩, or nil. On a
// compressed store the returned list is a zero-copy view of the packed
// spo vector rather than shared raw storage.
func (st *Store) Objects(s, p ID) *idlist.List {
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.advisor.hit(SPO)
	if st.compressed {
		if v, ok := st.vec(SPO, s).Find(p); ok {
			return idlist.ListOf(v)
		}
		return nil
	}
	return st.objLists[pairKey{s, p}]
}

// Subjects returns the sorted subject list of ⟨·, p, o⟩, or nil.
func (st *Store) Subjects(p, o ID) *idlist.List {
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.advisor.hit(POS)
	if st.compressed {
		if v, ok := st.vec(POS, p).Find(o); ok {
			return idlist.ListOf(v)
		}
		return nil
	}
	return st.subjLists[pairKey{p, o}]
}

// Properties returns the sorted property list of ⟨s, ·, o⟩, or nil.
func (st *Store) Properties(s, o ID) *idlist.List {
	st.mu.RLock()
	defer st.mu.RUnlock()
	st.advisor.hit(SOP)
	if st.compressed {
		if v, ok := st.vec(SOP, s).Find(o); ok {
			return idlist.ListOf(v)
		}
		return nil
	}
	return st.propLists[pairKey{s, o}]
}

// TerminalList returns the shared terminal list of a pattern with
// exactly two bound positions — the sorted candidate values of the one
// None position: Objects for ⟨s,p,·⟩, Properties for ⟨s,·,o⟩, Subjects
// for ⟨·,p,o⟩. It panics if the pattern does not have exactly one free
// position. Like the per-shape accessors, the returned list aliases
// store-internal storage and is valid until the next mutation.
func (st *Store) TerminalList(s, p, o ID) *idlist.List {
	switch {
	case s != None && p != None && o == None:
		return st.Objects(s, p)
	case s != None && p == None && o != None:
		return st.Properties(s, o)
	case s == None && p != None && o != None:
		return st.Subjects(p, o)
	default:
		panic("core: TerminalList needs exactly two bound positions")
	}
}

// terminalListLocked is TerminalList without locking or advisor hits;
// the caller must hold st.mu.
func (st *Store) terminalListLocked(s, p, o ID) *idlist.List {
	switch {
	case s != None && p != None && o == None:
		return st.objLists[pairKey{s, p}]
	case s != None && p == None && o != None:
		return st.propLists[pairKey{s, o}]
	case s == None && p != None && o != None:
		return st.subjLists[pairKey{p, o}]
	default:
		panic("core: terminal list needs exactly two bound positions")
	}
}

// PatternCardinality returns the exact number of triples matching
// ⟨s,p,o⟩ (None = wildcard) without scanning triples: terminal-list
// lengths for 2–3 bound positions, a vector walk summing list lengths
// for 1, the store size for 0. The whole computation happens under one
// read-lock acquisition, so — unlike summing over lists returned by
// Head/Objects, which alias store internals and are only valid until
// the next mutation — it is safe to call concurrently with writers.
// It is the selectivity primitive the SPARQL planner orders patterns
// with while updates may be in flight.
func (st *Store) PatternCardinality(s, p, o ID) int {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.compressed {
		return st.patternCardinalityCompressedLocked(s, p, o)
	}
	switch {
	case s != None && p != None && o != None:
		if st.objLists[pairKey{s, p}].Contains(o) {
			return 1
		}
		return 0
	case s != None && p != None:
		st.advisor.hit(SPO)
		return st.objLists[pairKey{s, p}].Len()
	case s != None && o != None:
		st.advisor.hit(SOP)
		return st.propLists[pairKey{s, o}].Len()
	case p != None && o != None:
		st.advisor.hit(POS)
		return st.subjLists[pairKey{p, o}].Len()
	case s != None:
		st.advisor.hit(SPO)
		return vecSumLocked(st.idx[SPO][s])
	case p != None:
		st.advisor.hit(PSO)
		return vecSumLocked(st.idx[PSO][p])
	case o != None:
		st.advisor.hit(OSP)
		return vecSumLocked(st.idx[OSP][o])
	default:
		return st.size
	}
}

// patternCardinalityCompressedLocked answers PatternCardinality from
// the packed vectors; caller holds st.mu with st.compressed set.
func (st *Store) patternCardinalityCompressedLocked(s, p, o ID) int {
	switch {
	case s != None && p != None && o != None:
		v, ok := st.vec(SPO, s).Find(p)
		if ok && v.Contains(o) {
			return 1
		}
		return 0
	case s != None && p != None:
		st.advisor.hit(SPO)
		return st.terminalViewLocked(s, p, o).Len()
	case s != None && o != None:
		st.advisor.hit(SOP)
		return st.terminalViewLocked(s, p, o).Len()
	case p != None && o != None:
		st.advisor.hit(POS)
		return st.terminalViewLocked(s, p, o).Len()
	case s != None:
		st.advisor.hit(SPO)
		return st.vec(SPO, s).Total()
	case p != None:
		st.advisor.hit(PSO)
		return st.vec(PSO, p).Total()
	case o != None:
		st.advisor.hit(OSP)
		return st.vec(OSP, o).Total()
	default:
		return st.size
	}
}

// vecSumLocked sums the terminal-list lengths of v; the caller must
// hold st.mu.
func vecSumLocked(v *Vec) int {
	n := 0
	v.RangeViews(func(_ ID, view idlist.View) bool {
		n += view.Len()
		return true
	})
	return n
}

// AppendSorted appends the sorted candidate values of the single None
// position of a 2-bound pattern to dst and returns the extended slice.
// Unlike TerminalList, the copy is taken under the read lock, so the
// result stays valid across concurrent mutations — this is the accessor
// the SPARQL batch engine reads candidate lists through.
func (st *Store) AppendSorted(dst []ID, s, p, o ID) []ID {
	st.mu.RLock()
	defer st.mu.RUnlock()
	switch {
	case o == None:
		st.advisor.hit(SPO)
	case p == None:
		st.advisor.hit(SOP)
	default:
		st.advisor.hit(POS)
	}
	if st.compressed {
		return st.terminalViewLocked(s, p, o).AppendTo(dst)
	}
	return st.terminalListLocked(s, p, o).AppendTo(dst)
}

// SortedListView returns a read-only view of the sorted candidate
// values of a 2-bound pattern's free position, and reports whether the
// view is zero-copy. On a compressed store the view aliases the
// immutable arena bytes — safe across concurrent mutations, which
// write new vectors rather than editing them — so the batch
// engine can merge against it with block skipping and no
// materialization. On a raw store ok is false: raw lists alias mutable
// storage, and callers should fall back to the copying AppendSorted.
func (st *Store) SortedListView(s, p, o ID) (idlist.View, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if !st.compressed {
		return idlist.View{}, false
	}
	switch {
	case o == None:
		st.advisor.hit(SPO)
	case p == None:
		st.advisor.hit(SOP)
	default:
		st.advisor.hit(POS)
	}
	return st.terminalViewLocked(s, p, o), true
}

// SortedPairs streams the values of the two free positions of a
// 1-bound pattern — (p,o) for ⟨s,·,·⟩, (s,o) for ⟨·,p,·⟩, (s,p) for
// ⟨·,·,o⟩ — ordered by the first free position ascending and the second
// ascending within it, holding the read lock for the duration like
// Match. Iteration stops early when fn returns false. It panics unless
// exactly one position is bound.
func (st *Store) SortedPairs(s, p, o ID, fn func(a, b ID) bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	var ix Index
	var head ID
	switch {
	case s != None && p == None && o == None:
		ix, head = SPO, s
	case s == None && p != None && o == None:
		ix, head = PSO, p
	case s == None && p == None && o != None:
		ix, head = OSP, o
	default:
		panic("core: SortedPairs needs exactly one bound position")
	}
	st.advisor.hit(ix)
	stop := false
	st.rangeHeadLocked(ix, head, func(key ID, view idlist.View) bool {
		view.Range(func(member ID) bool {
			if !fn(key, member) {
				stop = true
			}
			return !stop
		})
		return !stop
	})
}
