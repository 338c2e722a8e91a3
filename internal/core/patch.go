package core

import "hexastore/internal/idlist"

// PatchStats counts the head vectors of a Patch result, summed over the
// six orderings: those it encoded anew and those it shares with the
// store it was patched from.
type PatchStats struct {
	HeadsRebuilt int
	HeadsShared  int
}

// Patch returns a new block-compressed store holding st's triples plus
// adds minus dels, leaving st untouched. adds[ix] and dels[ix] each hold
// the same triple set as rows of ordering ix — (head, key, member), e.g.
// (p, o, s) for POS — sorted ascending without duplicates: exactly what
// each index needs to fold the change in with one merge per head. The
// two sets are disjoint; an add st already holds and a delete it lacks
// are ignored.
//
// Only the heads the rows name are re-encoded: per ordering their new
// vectors go into one new arena segment, the directory chunks that point
// at them are copied, and every other segment and chunk is shared
// between st and the result. Cost is therefore the size of the named
// heads, not the size of the store. A raw-layout st has no arena to
// share, so each of its heads is encoded once.
func (st *Store) Patch(adds, dels [6][][3]ID) (*Store, PatchStats) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	out := NewShared(st.dict)
	out.compressed = true
	out.size = st.size
	var stats PatchStats
	for _, ix := range AllIndexes {
		ar := st.pidx[ix].fork()
		// rest is the raw layout's heads, every one of which is to be
		// encoded whether the rows name it or not.
		var rest []ID
		for h := range st.idx[ix] {
			rest = append(rest, h)
		}
		sortIDs(rest)
		rebuilt := 0
		add, del := adds[ix], dels[ix]
		for len(add) > 0 || len(del) > 0 || len(rest) > 0 {
			head := ^ID(0)
			for _, rows := range [2][][3]ID{add, del} {
				if len(rows) > 0 {
					head = min(head, rows[0][0])
				}
			}
			if len(rest) > 0 && rest[0] <= head {
				head, rest = rest[0], rest[1:]
			}
			na, nd := headRows(add, head), headRows(del, head)
			grew := st.patchHeadLocked(&ar, ix, head, add[:na], del[:nd])
			if ar.pb.Len() > 0 {
				rebuilt++
			}
			ar.set(head)
			if ix == SPO {
				out.size += grew
			}
			add, del = add[na:], del[nd:]
		}
		ar.seal()
		out.pidx[ix] = ar
		stats.HeadsRebuilt += rebuilt
		stats.HeadsShared += ar.heads - rebuilt
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

// patchHeadLocked appends to out's empty builder head's vector of
// ordering ix with the rows add spliced in and the rows del dropped (all
// of this head, sorted by key then member); the builder stays empty when
// no entry is left. It returns by how many list members the vector grew.
// Entries the rows do not name are copied as the bytes they are. Caller
// holds st.mu.
func (st *Store) patchHeadLocked(out *arena, ix Index, head ID, add, del [][3]ID) int {
	b := &out.pb
	var old, merged []ID
	grew := 0
	// newKeys appends the first n rows of add, whose keys the old vector
	// lacks, as entries of their own.
	newKeys := func(n int) {
		for i := 0; i < n; {
			key := add[i][1]
			merged = merged[:0]
			for ; i < n && add[i][1] == key; i++ {
				merged = append(merged, add[i][2])
			}
			b.Append(key, merged)
		}
		grew += n
		add = add[n:]
	}
	st.rangeHeadLocked(ix, head, func(key ID, view idlist.View) bool {
		n := 0
		for n < len(add) && add[n][1] < key {
			n++
		}
		newKeys(n)
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
		old = view.AppendTo(old[:0])
		merged = mergeMembers(merged[:0], old, add[:na], del[:nd])
		grew += len(merged) - len(old)
		if len(merged) > 0 {
			b.Append(key, merged)
		}
		add, del = add[na:], del[nd:]
		return true
	})
	newKeys(len(add))
	return grew
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
