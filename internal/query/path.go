package query

import (
	"hexastore/internal/core"
	"hexastore/internal/idlist"
)

// Path evaluation (§4.3). A path expression p1/p2/…/pn asks for pairs
// (x, y) such that x —p1→ n1 —p2→ … —pn→ y. Every internal node is the
// object of one hop and the subject of the next, so each step is a
// subject–object join.
//
// The paper's point: with both pso and pos available, the first of the
// n−1 joins is a linear merge-join (the pos object vector of p1 against
// the pso subject vector of p2), and the remaining n−2 are sort-merge
// joins (one sorting operation each), instead of unsorted joins
// throughout. Here the first join is MergeKeys over the two vectors'
// key cursors; each later hop sorts the objects it reached (a Builder)
// and walks them against the next pso vector, one forward seek per node.

// PathEndpoints evaluates the path and returns the distinct reachable
// end nodes starting from every subject of p1 (i.e. the projection of
// the path result onto its last column).
func (e *Engine) PathEndpoints(props []ID) *idlist.List {
	if len(props) == 0 {
		return &idlist.List{}
	}
	st := e.store

	// The distinct objects of p1 are the keys of its pos object vector.
	objs := st.Head(core.POS, props[0]).Keys()
	if len(props) == 1 {
		var ends []ID
		for o, ok := objs.Next(); ok; o, ok = objs.Next() {
			ends = append(ends, o)
		}
		return idlist.FromSorted(ends)
	}

	var next idlist.Builder
	subjs := st.Head(core.PSO, props[1]).Keys()
	idlist.MergeKeys(&objs, &subjs, func(ID) { addAll(&next, subjs.View()) })
	frontier := next.Finish()
	for _, p := range props[2:] {
		frontier = hop(st, frontier.View(), p)
	}
	return frontier
}

// hop returns the sorted distinct objects of p whose subjects are in the
// sorted list nodes: nodes walked against p's pso subject vector, one
// forward seek per node.
func hop(st *core.Store, nodes idlist.View, p ID) *idlist.List {
	var next idlist.Builder
	subjs := st.Head(core.PSO, p).Keys()
	nodes.Range(func(node ID) bool {
		k, ok := subjs.SeekGE(node)
		if ok && k == node {
			addAll(&next, subjs.View())
		}
		return ok
	})
	return next.Finish()
}

// addAll adds every id of v to b.
func addAll(b *idlist.Builder, v idlist.View) {
	v.Range(func(id ID) bool {
		b.Add(id)
		return true
	})
}

// PathPairs evaluates the path and reports every (start, end) pair to
// fn. The fan-out is materialized per start node; fn may be invoked with
// duplicate pairs removed. Iteration stops early if fn returns false.
func (e *Engine) PathPairs(props []ID, fn func(start, end ID) bool) {
	if len(props) == 0 {
		return
	}
	st := e.store
	stop := false
	st.Head(core.PSO, props[0]).Range(func(start ID, reach idlist.View) bool {
		for _, p := range props[1:] {
			if reach.Len() == 0 {
				break
			}
			reach = hop(st, reach, p).View()
		}
		reach.Range(func(end ID) bool {
			stop = !fn(start, end)
			return !stop
		})
		return !stop
	})
}

// Reachable returns the nodes reachable from start by following any
// property for up to maxHops steps — a bounded transitive closure. The
// paper (§4.3) notes full transitive closure resists scalable solutions;
// bounded expansion over the spo index is the practical primitive.
func (e *Engine) Reachable(start ID, maxHops int) *idlist.List {
	visited := &idlist.List{}
	frontier := []ID{start}
	for i := 0; i < maxHops && len(frontier) > 0; i++ {
		var next []ID
		for _, node := range frontier {
			e.store.Head(core.SPO, node).RangePairs(func(_, o ID) bool {
				if visited.Insert(o) {
					next = append(next, o)
				}
				return true
			})
		}
		frontier = next
	}
	return visited
}
