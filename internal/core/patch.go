package core

import "hexastore/internal/idlist"

// PatchStats counts the head vectors of a Patch result, summed over the
// six orderings: those it encoded anew and those it shares with the
// store it was patched from.
type PatchStats struct {
	HeadsRebuilt int
	HeadsShared  int
}

// Patch returns a new store holding st's triples plus adds minus dels,
// leaving st untouched. adds[ix] and dels[ix] each hold the same triple
// set as rows of ordering ix — (head, key, member), e.g. (p, o, s) for
// POS — sorted ascending without duplicates: exactly what each index
// needs to fold the change in with one merge per head. The two sets are
// disjoint; an add st already holds and a delete it lacks are ignored.
//
// Only the heads the rows name are re-encoded: per head position both
// vectors of each named head go into one new record in one new arena
// segment, the directory chunks that point at them are copied, and every
// other segment and chunk is shared between st and the result. Cost is
// therefore the size of the named heads, not the size of the store.
func (st *Store) Patch(adds, dels [6][][3]ID) (*Store, PatchStats) {
	out := NewShared(st.dict)
	out.size = st.size
	var stats PatchStats
	pt := patcher{st: st}
	for i := range st.arenas {
		ar := st.arenas[i].fork()
		rebuilt := 0
		// Both orderings of a position index the same triples under the
		// same heads, so the first one's rows say which heads are named.
		add, del := adds[2*i:2*i+2], dels[2*i:2*i+2]
		for len(add[0]) > 0 || len(del[0]) > 0 {
			head := ^ID(0)
			for _, rows := range [2][][3]ID{add[0], del[0]} {
				if len(rows) > 0 {
					head = min(head, rows[0][0])
				}
			}
			for h := range 2 {
				ix := Index(2*i + h)
				na, nd := headRows(add[h], head), headRows(del[h], head)
				grew := pt.head(&ar.pb[h], ix, head, add[h][:na], del[h][:nd])
				if ix == SPO {
					out.size += grew
				}
				add[h], del[h] = add[h][na:], del[h][nd:]
			}
			if ar.pb[0].Len() > 0 {
				rebuilt += 2
			}
			ar.set(head)
		}
		ar.seal()
		out.arenas[i] = ar
		stats.HeadsRebuilt += rebuilt
		stats.HeadsShared += 2*ar.heads - rebuilt
	}
	return out, stats
}

// headRows returns how many leading rows have the given head.
func headRows(rows [][3]ID, head ID) int {
	n := 0
	for n < len(rows) && rows[n][0] == head {
		n++
	}
	return n
}

// patcher re-encodes the heads a Patch names, with scratch lists it
// reuses from head to head.
type patcher struct {
	st          *Store
	old, merged []ID
}

// head appends to the empty builder b head's vector of ordering ix with
// the rows add spliced in and the rows del dropped (all of this head,
// sorted by key then member); b stays empty when no entry is left. It
// returns by how many list members the vector grew. Entries the rows do
// not name are copied as the bytes they are.
func (pt *patcher) head(b *idlist.PackedBuilder, ix Index, head ID, add, del [][3]ID) int {
	grew := 0
	pt.st.vec(ix, head).Range(func(key ID, view idlist.View) bool {
		n := 0
		for n < len(add) && add[n][1] < key {
			n++
		}
		grew += pt.newKeys(b, add[:n])
		add = add[n:]
		for len(del) > 0 && del[0][1] < key {
			del = del[1:]
		}
		na, nd := 0, 0
		for na < len(add) && add[na][1] == key {
			na++
		}
		for nd < len(del) && del[nd][1] == key {
			nd++
		}
		if na == 0 && nd == 0 {
			b.AppendView(key, view)
			return true
		}
		pt.old = view.AppendTo(pt.old[:0])
		pt.merged = mergeMembers(pt.merged[:0], pt.old, add[:na], del[:nd])
		grew += len(pt.merged) - len(pt.old)
		if len(pt.merged) > 0 {
			b.Append(key, pt.merged)
		}
		add, del = add[na:], del[nd:]
		return true
	})
	return grew + pt.newKeys(b, add)
}

// newKeys appends rows, whose keys the old vector lacks, to b as entries
// of their own and returns how many there were.
func (pt *patcher) newKeys(b *idlist.PackedBuilder, rows [][3]ID) int {
	for i := 0; i < len(rows); {
		key := rows[i][1]
		pt.merged = pt.merged[:0]
		for ; i < len(rows) && rows[i][1] == key; i++ {
			pt.merged = append(pt.merged, rows[i][2])
		}
		b.Append(key, pt.merged)
	}
	return len(rows)
}

// mergeMembers appends (old ∪ members of add) \ members of del to dst in
// ascending order; add and del are rows of one (head, key), so their
// members — the third column — ascend.
func mergeMembers(dst, old []ID, add, del [][3]ID) []ID {
	for len(old) > 0 || len(add) > 0 {
		var v ID
		if len(add) == 0 || (len(old) > 0 && old[0] <= add[0][2]) {
			v, old = old[0], old[1:]
			if len(add) > 0 && add[0][2] == v {
				add = add[1:]
			}
		} else {
			v, add = add[0][2], add[1:]
		}
		for len(del) > 0 && del[0][2] < v {
			del = del[1:]
		}
		if len(del) > 0 && del[0][2] == v {
			continue
		}
		dst = append(dst, v)
	}
	return dst
}
