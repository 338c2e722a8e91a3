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
// throughout.

// PathEndpoints evaluates the path and returns the distinct reachable
// end nodes starting from every subject of p1 (i.e. the projection of
// the path result onto its last column).
func (e *Engine) PathEndpoints(props []ID) *idlist.List {
	if len(props) == 0 {
		return &idlist.List{}
	}
	st := e.store

	// Frontier: all distinct objects of p1, straight off the pos index
	// (its object vector is exactly the sorted distinct objects).
	frontier := st.Head(core.POS, props[0]).KeyList()
	if len(props) == 1 {
		return frontier.Copy()
	}

	for hop := 1; hop < len(props); hop++ {
		p := props[hop]
		subjVec := st.Head(core.PSO, p)
		if subjVec.Len() == 0 || frontier.Len() == 0 {
			return &idlist.List{}
		}
		// First join is a pure merge-join (frontier came sorted from
		// pos); later hops re-sort the accumulated objects — the
		// sort-merge joins of §4.3. Both reduce to MergeJoin here since
		// the frontier is maintained sorted via the builder.
		var next idlist.Builder
		idlist.MergeJoin(frontier, subjVec.KeyList(), func(node ID) {
			objs, _ := subjVec.Find(node)
			objs.Range(func(o ID) bool {
				next.Add(o)
				return true
			})
		})
		frontier = next.Finish()
	}
	return frontier
}

// PathPairs evaluates the path and reports every (start, end) pair to
// fn. The fan-out is materialized per start node; fn may be invoked with
// duplicate pairs removed. Iteration stops early if fn returns false.
func (e *Engine) PathPairs(props []ID, fn func(start, end ID) bool) {
	if len(props) == 0 {
		return
	}
	st := e.store
	starts := st.Head(core.PSO, props[0])
	stop := false
	starts.Range(func(start ID, firstObjs *idlist.List) bool {
		reach := firstObjs
		for hop := 1; hop < len(props) && reach.Len() > 0; hop++ {
			subjVec := st.Head(core.PSO, props[hop])
			var next idlist.Builder
			idlist.MergeJoin(reach, subjVec.KeyList(), func(node ID) {
				objs, _ := subjVec.Find(node)
				objs.Range(func(o ID) bool {
					next.Add(o)
					return true
				})
			})
			reach = next.Finish()
		}
		if len(props) == 1 {
			reach = firstObjs
		}
		reach.Range(func(end ID) bool {
			if !fn(start, end) {
				stop = true
			}
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
	for hop := 0; hop < maxHops && len(frontier) > 0; hop++ {
		var next []ID
		for _, node := range frontier {
			e.store.Head(core.SPO, node).Range(func(_ ID, objs *idlist.List) bool {
				objs.Range(func(o ID) bool {
					if visited.Insert(o) {
						next = append(next, o)
					}
					return true
				})
				return true
			})
		}
		frontier = next
	}
	return visited
}
