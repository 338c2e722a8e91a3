package graph

import (
	"cmp"
	"slices"

	"hexastore/internal/core"
	"hexastore/internal/idlist"
)

// SortedSource is sorted access to a Graph: the sorted ID lists behind
// a pattern match, which is what turns the SPARQL evaluator's joins into
// the paper's linear merge-joins (§4.2). Every Graph has it through
// SortedOf: an index-backed backend serves it from its sorted storage,
// and any other graph (the flat triples-table baseline, a test fake with
// only the seven Graph methods) through an adapter that collects Match
// output and sorts it.
//
// Both built-in index-backed stores provide it: the in-memory Hexastore
// decodes its packed terminal lists, and the disk store materializes
// lists from one ordered prefix scan of the right B+-tree. Both append
// into the caller's buffer, so a reused scratch slice makes the steady
// state allocation-free — and the results stay valid across concurrent
// mutations.
//
// Implementations must additionally be safe for concurrent readers: the
// batch engine's intra-query parallelism has several workers fetch
// candidate lists simultaneously, each into its own buffer (the sealed
// memory store needs no lock for it; the disk store runs one independent
// prefix scan per call over its internally locked buffer pool).
//
// Use SortedOf to obtain it, or AsSortedSource to ask whether the
// backend itself has it; the concrete Graph value may be a wrapper
// around the capable store.
type SortedSource interface {
	// AppendSortedList appends the sorted candidate values of the
	// single None position of a 2-bound pattern to dst and returns the
	// extended slice: objects of ⟨s,p,·⟩, properties of ⟨s,·,o⟩, or
	// subjects of ⟨·,p,o⟩.
	AppendSortedList(dst []ID, s, p, o ID) ([]ID, error)
	// SortedPairs streams the values of the two free positions of a
	// 1-bound pattern, ordered by the first free position (in S,P,O
	// position order) ascending and the second ascending within it:
	// (p,o) pairs for ⟨s,·,·⟩, (s,o) for ⟨·,p,·⟩, (s,p) for ⟨·,·,o⟩.
	// Iteration stops early when fn returns false.
	SortedPairs(s, p, o ID, fn func(a, b ID) bool) error
}

// AsSortedSource returns the backend's own SortedSource behind g, if
// any: g itself when it implements the capability (the disk store, the
// delta overlay), or an adapter when g wraps the in-memory Hexastore.
// Readers that only need sorted lists use SortedOf.
func AsSortedSource(g Graph) (SortedSource, bool) {
	if ss, ok := g.(SortedSource); ok {
		return ss, true
	}
	if st, ok := Unwrap(g).(*core.Store); ok {
		return coreSorted{st}, true
	}
	return nil, false
}

// SortedOf returns sorted access to g: the backend's own SortedSource
// when it has one (AsSortedSource), and otherwise an adapter that
// collects each pattern's Match output and sorts it. It is the one place
// a graph that implements only the seven Graph methods gets sorted
// lists, so every reader above it has one access path.
func SortedOf(g Graph) SortedSource {
	if ss, ok := AsSortedSource(g); ok {
		return ss
	}
	return matchSorted{g}
}

// matchSorted is the SortedSource of a graph without one: every call
// collects the pattern's matches and sorts them, so it costs a sort per
// call where an index-backed store reads a list it keeps sorted. Its
// output is a function of Match alone, which keeps the flat baseline a
// trivially correct oracle for the merge-join engine.
type matchSorted struct{ g Graph }

func (m matchSorted) AppendSortedList(dst []ID, s, p, o ID) ([]ID, error) {
	free := slices.Index([]ID{s, p, o}, None)
	start := len(dst)
	err := m.g.Match(s, p, o, func(ms, mp, mo ID) bool {
		dst = append(dst, [3]ID{ms, mp, mo}[free])
		return true
	})
	slices.Sort(dst[start:])
	return dst, err
}

func (m matchSorted) SortedPairs(s, p, o ID, fn func(a, b ID) bool) error {
	free := make([]int, 0, 2)
	for j, v := range [3]ID{s, p, o} {
		if v == None {
			free = append(free, j)
		}
	}
	var pairs [][2]ID
	if err := m.g.Match(s, p, o, func(ms, mp, mo ID) bool {
		t := [3]ID{ms, mp, mo}
		pairs = append(pairs, [2]ID{t[free[0]], t[free[1]]})
		return true
	}); err != nil {
		return err
	}
	slices.SortFunc(pairs, func(x, y [2]ID) int {
		return cmp.Or(cmp.Compare(x[0], y[0]), cmp.Compare(x[1], y[1]))
	})
	for _, pr := range pairs {
		if !fn(pr[0], pr[1]) {
			break
		}
	}
	return nil
}

// coreSorted adapts the in-memory Hexastore's sorted accessors to the
// SortedSource and ViewSource shapes.
type coreSorted struct{ st *core.Store }

func (cs coreSorted) AppendSortedList(dst []ID, s, p, o ID) ([]ID, error) {
	return cs.st.AppendSorted(dst, s, p, o), nil
}

func (cs coreSorted) SortedPairs(s, p, o ID, fn func(a, b ID) bool) error {
	cs.st.SortedPairs(s, p, o, fn)
	return nil
}

func (cs coreSorted) SortedListView(s, p, o ID) (idlist.View, bool, error) {
	return cs.st.SortedListView(s, p, o), true, nil
}

func (cs coreSorted) KeyCursor(headPos, keyPos int, head ID) idlist.KeyCursor {
	return cs.st.KeyCursor(headPos, keyPos, head)
}

// KeySource is an optional refinement of SortedSource: a cursor over the
// sorted values position keyPos (0 = S, 1 = P, 2 = O) takes in the
// triples whose position headPos is head — the keys of one vector, the
// store picking the ordering that holds those values as keys — which
// hands out, for the key it is on, the sorted values of the third
// position: the terminal list, zero-copy. It is what lets a batch-engine
// step that reads one list per row walk one vector instead of looking a
// record up per row, and a GROUP BY or DISTINCT on one variable walk a
// vector a group at a time. Only the sealed memory store offers it (an
// overlay with nothing pending serves its snapshots from that store): the
// SortedSource that AsSortedSource, and so SortedOf, returns for such a
// backend implements it, so find it by a type assertion on that value.
type KeySource interface {
	KeyCursor(headPos, keyPos int, head ID) idlist.KeyCursor
}

// ViewSource is an optional refinement of SortedSource: candidate
// lists handed out as read-only views instead of copied slices. A
// block-compressed backend returns zero-copy views of its immutable
// packed blobs, which lets the batch engine's merge-intersect steps
// skip whole blocks via the skip table instead of materializing the
// list; ok=false on a call means the backend cannot serve that pattern
// zero-copy (e.g. a disk-backed overlay) and the caller should fall back
// to the copying AppendSortedList.
//
// Implementations must be safe for concurrent readers, like
// SortedSource. Views returned with ok=true must stay consistent
// across concurrent mutations — compressed backends satisfy this
// because mutation replaces immutable structures rather than editing
// them.
type ViewSource interface {
	SortedListView(s, p, o ID) (v idlist.View, ok bool, err error)
}

// AsViewSource returns the ViewSource behind g, if any: g itself when
// it implements the capability (the delta overlay), or an adapter when
// g wraps the in-memory Hexastore.
func AsViewSource(g Graph) (ViewSource, bool) {
	if vs, ok := g.(ViewSource); ok {
		return vs, true
	}
	if st, ok := Unwrap(g).(*core.Store); ok {
		return coreSorted{st}, true
	}
	return nil, false
}
