package delta

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
	"hexastore/internal/idlist"
)

// ID is a dictionary-encoded resource identifier.
type ID = dictionary.ID

// None is the wildcard / unbound marker in pattern lookups.
const None = dictionary.None

// permOf maps each of the six orderings to the (s,p,o) positions of its
// key elements, mirroring the index layouts of the core and disk stores.
var permOf = [6][3]int{
	core.SPO: {0, 1, 2},
	core.SOP: {0, 2, 1},
	core.PSO: {1, 0, 2},
	core.POS: {1, 2, 0},
	core.OSP: {2, 0, 1},
	core.OPS: {2, 1, 0},
}

// permute reorders a canonical (s,p,o) triple into ordering ix.
func permute(ix core.Index, t [3]ID) [3]ID {
	p := permOf[ix]
	return [3]ID{t[p[0]], t[p[1]], t[p[2]]}
}

// unpermute recovers the canonical (s,p,o) triple from a row of ordering ix.
func unpermute(ix core.Index, k [3]ID) [3]ID {
	p := permOf[ix]
	var t [3]ID
	t[p[0]], t[p[1]], t[p[2]] = k[0], k[1], k[2]
	return t
}

// cmpPrefix lexicographically compares the first k elements of row
// against pre.
func cmpPrefix(row, pre [3]ID, k int) int {
	for j := 0; j < k; j++ {
		if row[j] != pre[j] {
			if row[j] < pre[j] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// rowsContain reports whether the sorted rows hold exactly row.
func rowsContain(rows [][3]ID, row [3]ID) bool {
	i := sort.Search(len(rows), func(i int) bool { return cmpPrefix(rows[i], row, 3) >= 0 })
	return i < len(rows) && rows[i] == row
}

// treeUndo is the MVCC compensation hook for disk mains, whose six
// B+-trees are merged in place (unlike the memory main, which
// compaction replaces wholesale). Every state carries the treeUndo node
// of its epoch; the node is an empty promise until a merge folds a
// delta into the shared trees, at which point the compactor publishes —
// BEFORE touching the first tree — an undoRec describing exactly what
// will be applied. A state whose node carries a record recovers its
// original main image by reading the trees through the record: merged
// adds are subtracted, merged deletes resurrected. Records chain (next
// epoch's node), so a snapshot pinned across several compactions stays
// exact. Publication-before-mutation plus the disk store's internal
// lock make the compensation race-free: any reader that observed a
// merge mutation is guaranteed to observe the record when it loads the
// chain after its scan.
type treeUndo struct {
	rec atomic.Pointer[undoRec]
}

// undoRec is one published merge: the delta that was (or is being)
// folded into the trees, in all six orderings, plus the next epoch.
type undoRec struct {
	adds, dels [6]run
	next       *treeUndo
}

// undoChain collects the merges applied to the trees since this state
// was created, oldest first. Empty in the steady state (no merge in
// flight and none since the state's epoch).
func (st *state) undoChain() []*undoRec {
	if st.undo == nil {
		return nil
	}
	var chain []*undoRec
	for u := st.undo; u != nil; {
		r := u.rec.Load()
		if r == nil {
			break
		}
		chain = append(chain, r)
		u = r.next
	}
	return chain
}

// layeredMainHas recovers the pre-merge verdict for triple t from the
// current tree verdict by undoing each chained merge, newest first (an
// older merge's verdict overrides a newer one's, since it is undone
// later).
func layeredMainHas(chain []*undoRec, treeHas bool, t [3]ID) bool {
	v := treeHas
	for i := len(chain) - 1; i >= 0; i-- {
		switch {
		case chain[i].adds[core.SPO].contains(t):
			v = false // merged add: the pre-merge main lacked it
		case chain[i].dels[core.SPO].contains(t):
			v = true // merged delete: the pre-merge main held it
		}
	}
	return v
}

// compensatedRows materializes the main rows matching the pattern in
// ordering ix, corrected through the undo chain. The chain is loaded
// AFTER the tree scan: the disk store's lock orders any observed merge
// mutation before the compactor's record publication becomes visible,
// so a scan that saw half a merge always sees the record that undoes
// it. With an empty chain the scan itself was merge-free and is
// returned as is.
func (st *state) compensatedRows(ix core.Index, pre [3]ID, k int, s, p, o ID) ([][3]ID, error) {
	var rows [][3]ID
	if err := st.main.Match(s, p, o, func(ms, mp, mo ID) bool {
		rows = append(rows, permute(ix, [3]ID{ms, mp, mo}))
		return true
	}); err != nil {
		return nil, err
	}
	chain := st.undoChain()
	if len(chain) == 0 {
		return rows, nil
	}
	less := func(i, j int) bool { return cmpPrefix(rows[i], rows[j], 3) < 0 }
	if !sort.SliceIsSorted(rows, less) {
		sort.Slice(rows, less)
	}
	// Resurrection candidates: every chained merge's deletes in range.
	var extra [][3]ID
	for _, rec := range chain {
		extra = append(extra, rec.dels[ix].slice(k, pre)...)
	}
	sort.Slice(extra, func(i, j int) bool { return cmpPrefix(extra[i], extra[j], 3) < 0 })
	out := make([][3]ID, 0, len(rows)+len(extra))
	i, j := 0, 0
	for i < len(rows) || j < len(extra) {
		var row [3]ID
		inTree := false
		switch {
		case j >= len(extra):
			row, inTree = rows[i], true
			i++
		case i >= len(rows):
			row = extra[j]
			j++
		default:
			switch c := cmpPrefix(rows[i], extra[j], 3); {
			case c < 0:
				row, inTree = rows[i], true
				i++
			case c > 0:
				row = extra[j]
				j++
			default:
				row, inTree = rows[i], true
				i, j = i+1, j+1
			}
		}
		// Dedupe equal resurrection candidates from several merges.
		for j < len(extra) && extra[j] == row {
			j++
		}
		if layeredMainHas(chain, inTree, unpermute(ix, row)) {
			out = append(out, row)
		}
	}
	return out, nil
}

// permuteSorted renders a small canonical triple set as a sorted run of
// ordering ix.
func permuteSorted(ix core.Index, ts [][3]ID) [][3]ID {
	if len(ts) == 0 {
		return nil
	}
	rows := make([][3]ID, len(ts))
	for i, t := range ts {
		rows[i] = permute(ix, t)
	}
	sort.Slice(rows, func(i, j int) bool { return cmpPrefix(rows[i], rows[j], 3) < 0 })
	return rows
}

// state is one immutable MVCC version of the overlay: a main graph that
// no write mutates (the memory main is replaced wholesale by compaction;
// the disk main only ever absorbs triples the delta already presents)
// plus the sorted delta — adds and tombstones in all six orderings.
// Readers pin a *state with one atomic load and keep a consistent view
// for as long as they hold it; every method here is pure with respect to
// the state itself.
//
// state implements graph.Graph, graph.SortedSource and graph.ViewSource;
// mutations return graph.ErrReadOnly, which is what makes it safe to
// hand out as the graph.Snapshotter view. Its main's sorted lists come
// from graph.SortedOf, so a main without sorted storage of its own (the
// flat baseline) is merged with the delta exactly as an indexed one is.
type state struct {
	main     graph.Graph
	mainCore *core.Store        // non-nil when main is the in-memory Hexastore
	sorted   graph.SortedSource // graph.SortedOf(main)
	viewSrc  graph.ViewSource   // nil when main cannot serve zero-copy views
	dict     *dictionary.Dictionary

	// adds holds delta triples not present in main; dels holds
	// tombstones for main triples. Both are kept as one persistent
	// sorted run per ordering (see run).
	// Invariants: adds ∩ main = ∅, dels ⊆ main, adds ∩ dels = ∅ —
	// where "main" is the undo-compensated image for disk-backed
	// states (see treeUndo); the raw trees may transiently disagree
	// during a merge, and every merged read stream deduplicates.
	adds [6]run
	dels [6]run

	// undo is the state's epoch node for disk mains (nil for memory and
	// baseline mains): the compensation layer that keeps this state's
	// view exact while in-place merges mutate the shared trees.
	undo *treeUndo

	visible int // |main ⊕ delta|

	// epoch is the content-version token behind graph.Epocher. Every
	// write publish bumps it; compaction publishes a content-identical
	// state and keeps it, so cached results validly survive compaction.
	epoch uint64

	// view is what the state's readers pin when it has nothing pending
	// over a memory main (nil otherwise); see Overlay.publish.
	view *mainView
}

// baseState returns the state with an empty delta over main: the one an
// overlay opens with and the one a memory-main compaction publishes.
func baseState(main graph.Graph) *state {
	st := &state{main: main, dict: main.Dictionary(), visible: main.Len(), sorted: graph.SortedOf(main)}
	st.mainCore, _ = graph.Unwrap(main).(*core.Store)
	st.viewSrc, _ = graph.AsViewSource(main)
	return st
}

// mainView is a state with an empty delta over a memory main, served as
// the main itself: read-only, under the state's epoch. Its Unwrap is the
// *core.Store, so the sorted sources, the cost model and the query
// engine take the store's direct paths instead of merging an empty delta.
type mainView struct {
	graph.Graph
	st    *core.Store
	epoch string
}

func (v *mainView) Unwrap() any           { return v.st }
func (v *mainView) Epoch() string         { return v.epoch }
func (v *mainView) Snapshot() graph.Graph { return v }

// Epoch returns the state's content-version token (see graph.Epocher).
// A state is immutable, so the token a pinned snapshot reports never
// changes — exactly the property result caches need.
func (st *state) Epoch() string { return "o" + strconv.FormatUint(st.epoch, 10) }

// deltaLen returns the number of delta entries (adds + tombstones).
func (st *state) deltaLen() int { return st.adds[core.SPO].len() + st.dels[core.SPO].len() }

func (st *state) Dictionary() *dictionary.Dictionary { return st.dict }
func (st *state) Len() int                           { return st.visible }

func (st *state) Add(s, p, o ID) (bool, error)    { return false, graph.ErrReadOnly }
func (st *state) Remove(s, p, o ID) (bool, error) { return false, graph.ErrReadOnly }

// Snapshot returns the state's main view when it has one, else the state
// itself: a snapshot of a snapshot is the same instant.
func (st *state) Snapshot() graph.Graph {
	if st.view != nil {
		return st.view
	}
	return st
}

func (st *state) Has(s, p, o ID) (bool, error) {
	t := [3]ID{s, p, o}
	if st.dels[core.SPO].contains(t) {
		return false, nil
	}
	if st.adds[core.SPO].contains(t) {
		return true, nil
	}
	return st.mainHas(t)
}

// mainHas probes the main store for t, compensated through the undo
// chain for disk-backed states. The chain is loaded after the probe
// (one lock acquisition on the tree side), which makes the compensation
// sound against a concurrent in-place merge.
func (st *state) mainHas(t [3]ID) (bool, error) {
	v, err := st.main.Has(t[0], t[1], t[2])
	if err != nil {
		return false, err
	}
	if st.undo != nil {
		if chain := st.undoChain(); len(chain) > 0 {
			v = layeredMainHas(chain, v, t)
		}
	}
	return v, nil
}

// shapeIndex returns the ordering whose key order groups the bound
// positions of ⟨s,p,o⟩ first, plus the bound prefix values and length —
// the same shape → index mapping the core and disk stores use, so delta
// rows interleave with main streams in the main's own emission order.
func shapeIndex(s, p, o ID) (ix core.Index, pre [3]ID, k int) {
	switch {
	case s != None && p != None && o != None:
		return core.SPO, [3]ID{s, p, o}, 3
	case s != None && p != None:
		return core.SPO, [3]ID{s, p, 0}, 2
	case s != None && o != None:
		return core.SOP, [3]ID{s, o, 0}, 2
	case p != None && o != None:
		return core.POS, [3]ID{p, o, 0}, 2
	case s != None:
		return core.SPO, [3]ID{s, 0, 0}, 1
	case p != None:
		return core.PSO, [3]ID{p, 0, 0}, 1
	case o != None:
		return core.OSP, [3]ID{o, 0, 0}, 1
	default:
		return core.SPO, [3]ID{}, 0
	}
}

// Match streams the triples matching the pattern: the main stream with
// tombstoned (and, during a disk merge window, duplicated) triples
// filtered out, then the matching delta adds. Like the Graph contract,
// no inter-stream order is promised.
func (st *state) Match(s, p, o ID, fn func(s, p, o ID) bool) error {
	ix, pre, k := shapeIndex(s, p, o)
	if k == 3 {
		ok, err := st.Has(s, p, o)
		if err != nil {
			return err
		}
		if ok {
			fn(s, p, o)
		}
		return nil
	}
	addRun := st.adds[ix].slice(k, pre)
	delRun := st.dels[ix].slice(k, pre)

	stopped := false
	emitMain := func(row [3]ID) bool {
		if rowsContain(delRun, row) || rowsContain(addRun, row) {
			return true
		}
		t := unpermute(ix, row)
		if !fn(t[0], t[1], t[2]) {
			stopped = true
			return false
		}
		return true
	}
	if st.undo != nil {
		// Disk main: materialize the compensated rows (streaming cannot
		// retract triples a half-observed merge would have hidden).
		rows, err := st.compensatedRows(ix, pre, k, s, p, o)
		if err != nil {
			return err
		}
		for _, row := range rows {
			if !emitMain(row) {
				break
			}
		}
	} else {
		if err := st.main.Match(s, p, o, func(ms, mp, mo ID) bool {
			return emitMain(permute(ix, [3]ID{ms, mp, mo}))
		}); err != nil {
			return err
		}
	}
	if stopped {
		return nil
	}
	for _, row := range addRun {
		t := unpermute(ix, row)
		if !fn(t[0], t[1], t[2]) {
			return nil
		}
	}
	return nil
}

// Count returns the number of matching triples: the main count adjusted
// by the delta runs. During a disk in-place merge window the main count
// may transiently include delta adds already applied to the trees; that
// only skews planner estimates, never query results (the list, pair and
// match streams all deduplicate).
func (st *state) Count(s, p, o ID) (int, error) {
	ix, pre, k := shapeIndex(s, p, o)
	if k == 3 {
		ok, err := st.Has(s, p, o)
		if err != nil {
			return 0, err
		}
		if ok {
			return 1, nil
		}
		return 0, nil
	}
	if k == 0 {
		return st.visible, nil
	}
	n, err := st.main.Count(s, p, o)
	if err != nil {
		return 0, err
	}
	if st.undo != nil {
		// The chain is loaded after the counting scan: empty means the
		// scan was merge-free and the count stands; otherwise recount
		// from the compensated image.
		if chain := st.undoChain(); len(chain) > 0 {
			rows, rerr := st.compensatedRows(ix, pre, k, s, p, o)
			if rerr != nil {
				return 0, rerr
			}
			n = len(rows)
		}
	}
	n += st.adds[ix].count(k, pre) - st.dels[ix].count(k, pre)
	if n < 0 {
		n = 0
	}
	return n, nil
}

// Distinct answers graph.Distincter from the main store alone: the
// planner prices from it, and a count that leaves out what is pending
// only skews an estimate.
func (st *state) Distinct(ix core.Index, head ID) (int, error) {
	return graph.Distinct(st.main, ix, head)
}

// mainSortedList returns the main store's sorted candidate list for a
// 2-bound pattern, appending to dst. Disk-backed states check the undo
// chain after the (single-lock-acquisition) scan and redo through the
// compensated image when a merge touched the trees — the hot path stays
// one streamed scan plus one atomic load.
func (st *state) mainSortedList(dst []ID, s, p, o ID) ([]ID, error) {
	start := len(dst)
	out, err := st.sorted.AppendSortedList(dst, s, p, o)
	if err != nil {
		return nil, err
	}
	if st.undo != nil {
		if chain := st.undoChain(); len(chain) > 0 {
			ix, pre, k := shapeIndex(s, p, o)
			rows, rerr := st.compensatedRows(ix, pre, k, s, p, o)
			if rerr != nil {
				return nil, rerr
			}
			out = out[:start]
			for _, row := range rows {
				out = append(out, row[2])
			}
		}
	}
	return out, nil
}

// SortedListView implements graph.ViewSource over the merged
// main+delta view: with no delta entries in the pattern's range the
// main's zero-copy compressed view passes straight through; with a
// small sorted delta run, the main's view is streamed block by block
// and merged with the run into a fresh slice — the main list is never
// decompressed into an intermediate slice of its own. Disk-backed
// states (undo compensation) and mains without a ViewSource report
// ok=false, falling back to AppendSortedList.
func (st *state) SortedListView(s, p, o ID) (idlist.View, bool, error) {
	if st.viewSrc == nil || st.undo != nil {
		return idlist.View{}, false, nil
	}
	ix, pre, k := shapeIndex(s, p, o)
	if k != 2 {
		return idlist.View{}, false, fmt.Errorf("delta: SortedListView needs exactly two bound positions, got ⟨%d,%d,%d⟩", s, p, o)
	}
	mainView, ok, err := st.viewSrc.SortedListView(s, p, o)
	if err != nil || !ok {
		return idlist.View{}, false, err
	}
	addRun := st.adds[ix].slice(2, pre)
	delRun := st.dels[ix].slice(2, pre)
	if len(addRun) == 0 && len(delRun) == 0 {
		return mainView, true, nil
	}
	merged := make([]ID, 0, mainView.Len()+len(addRun))
	ai, di := 0, 0
	mainView.Range(func(v ID) bool {
		for ai < len(addRun) && addRun[ai][2] < v {
			merged = append(merged, addRun[ai][2])
			ai++
		}
		if ai < len(addRun) && addRun[ai][2] == v {
			ai++ // already in main; emit once below
		}
		for di < len(delRun) && delRun[di][2] < v {
			di++
		}
		if di < len(delRun) && delRun[di][2] == v {
			return true // tombstoned
		}
		merged = append(merged, v)
		return true
	})
	for ; ai < len(addRun); ai++ {
		merged = append(merged, addRun[ai][2])
	}
	return idlist.ViewOf(merged), true, nil
}

// AppendSortedList merges the main store's sorted candidate list with
// the delta: adds spliced in, tombstones dropped, duplicates (a disk
// merge window) collapsed. It implements graph.SortedSource, which is
// what lets the batch merge-join engine run unchanged over the overlay.
func (st *state) AppendSortedList(dst []ID, s, p, o ID) ([]ID, error) {
	ix, pre, k := shapeIndex(s, p, o)
	if k != 2 {
		return nil, fmt.Errorf("delta: AppendSortedList needs exactly two bound positions, got ⟨%d,%d,%d⟩", s, p, o)
	}
	addRun := st.adds[ix].slice(2, pre)
	delRun := st.dels[ix].slice(2, pre)
	if len(addRun) == 0 && len(delRun) == 0 {
		return st.mainSortedList(dst, s, p, o)
	}

	mainVals, err := st.mainSortedList(nil, s, p, o)
	if err != nil {
		return nil, err
	}
	// delRun/addRun are sorted by their third element (the prefix is
	// fixed), so this is a three-way sorted merge.
	di, ai := 0, 0
	for _, v := range mainVals {
		for ai < len(addRun) && addRun[ai][2] < v {
			dst = append(dst, addRun[ai][2])
			ai++
		}
		if ai < len(addRun) && addRun[ai][2] == v {
			ai++ // already in main (merge window); emit once below
		}
		for di < len(delRun) && delRun[di][2] < v {
			di++
		}
		if di < len(delRun) && delRun[di][2] == v {
			continue // tombstoned
		}
		dst = append(dst, v)
	}
	for ; ai < len(addRun); ai++ {
		dst = append(dst, addRun[ai][2])
	}
	return dst, nil
}

// mainPairs streams the main store's sorted pairs for a 1-bound
// pattern. Disk-backed states materialize through the compensated image
// (a pair already emitted to fn cannot be retracted if the scan raced an
// in-place merge).
func (st *state) mainPairs(s, p, o ID, fn func(a, b ID) bool) error {
	if st.undo != nil {
		ix, pre, k := shapeIndex(s, p, o)
		rows, err := st.compensatedRows(ix, pre, k, s, p, o)
		if err != nil {
			return err
		}
		for _, row := range rows {
			if !fn(row[1], row[2]) {
				return nil
			}
		}
		return nil
	}
	return st.sorted.SortedPairs(s, p, o, fn)
}

// SortedPairs merges the main store's sorted pair stream with the delta
// for a 1-bound pattern, preserving the (first free, second free)
// ascending order. It implements graph.SortedSource.
func (st *state) SortedPairs(s, p, o ID, fn func(a, b ID) bool) error {
	ix, pre, k := shapeIndex(s, p, o)
	if k != 1 {
		return fmt.Errorf("delta: SortedPairs needs exactly one bound position, got ⟨%d,%d,%d⟩", s, p, o)
	}
	addRun := st.adds[ix].slice(1, pre)
	delRun := st.dels[ix].slice(1, pre)

	ai := 0
	stopped := false
	emit := func(a, b ID) bool {
		if !fn(a, b) {
			stopped = true
			return false
		}
		return true
	}
	err := st.mainPairs(s, p, o, func(a, b ID) bool {
		for ai < len(addRun) {
			av, bv := addRun[ai][1], addRun[ai][2]
			if av > a || (av == a && bv > b) {
				break
			}
			ai++
			if av == a && bv == b {
				continue // already in main (merge window); emit once below
			}
			if !emit(av, bv) {
				return false
			}
		}
		if rowsContain(delRun, [3]ID{pre[0], a, b}) {
			return true // tombstoned
		}
		return emit(a, b)
	})
	if err != nil || stopped {
		return err
	}
	for ; ai < len(addRun); ai++ {
		if !emit(addRun[ai][1], addRun[ai][2]) {
			return nil
		}
	}
	return nil
}
