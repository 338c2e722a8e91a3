package core

import (
	"hexastore/internal/idlist"
	"hexastore/internal/rdf"
)

// Match streams every triple matching the pattern ⟨s,p,o⟩, where None in
// any position is a wildcard, to fn in the natural order of the chosen
// index. Iteration stops early if fn returns false.
//
// Match picks the single best index for each of the eight bound/unbound
// combinations (§4.2: "Depending on the bound elements in a query, a
// mostly efficient computation strategy can be followed"):
//
//	s p o  → spo (existence probe)
//	s p ?  → spo terminal list
//	s ? o  → sop terminal list
//	? p o  → pos terminal list
//	s ? ?  → spo vector walk
//	? p ?  → pso vector walk
//	? ? o  → osp vector walk
//	? ? ?  → spo full scan
func (st *Store) Match(s, p, o ID, fn func(s, p, o ID) bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()

	// terminal returns the matching terminal list of a 2-bound pattern
	// as a view, from the packed vectors or the shared pair maps.
	terminal := func(ix Index, m map[pairKey]*idlist.List, k pairKey) idlist.View {
		if st.compressed {
			v, _ := st.vec(ix, k.a).Find(k.b)
			return v
		}
		return m[k].View()
	}

	switch {
	case s != None && p != None && o != None:
		st.advisor.hit(SPO)
		if terminal(SPO, st.objLists, pairKey{s, p}).Contains(o) {
			fn(s, p, o)
		}

	case s != None && p != None:
		st.advisor.hit(SPO)
		terminal(SPO, st.objLists, pairKey{s, p}).Range(func(obj ID) bool {
			return fn(s, p, obj)
		})

	case s != None && o != None:
		st.advisor.hit(SOP)
		terminal(SOP, st.propLists, pairKey{s, o}).Range(func(prop ID) bool {
			return fn(s, prop, o)
		})

	case p != None && o != None:
		st.advisor.hit(POS)
		terminal(POS, st.subjLists, pairKey{p, o}).Range(func(subj ID) bool {
			return fn(subj, p, o)
		})

	case s != None:
		st.advisor.hit(SPO)
		st.walkHead(SPO, s, func(prop, obj ID) bool { return fn(s, prop, obj) })

	case p != None:
		st.advisor.hit(PSO)
		st.walkHead(PSO, p, func(subj, obj ID) bool { return fn(subj, p, obj) })

	case o != None:
		st.advisor.hit(OSP)
		st.walkHead(OSP, o, func(subj, prop ID) bool { return fn(subj, prop, o) })

	default:
		st.advisor.hit(SPO)
		// scanHead walks one subject's spo vector; false stops the scan.
		scanHead := func(subj ID) bool {
			stop := false
			st.rangeHeadLocked(SPO, subj, func(prop ID, view idlist.View) bool {
				view.Range(func(obj ID) bool {
					if !fn(subj, prop, obj) {
						stop = true
					}
					return !stop
				})
				return !stop
			})
			return !stop
		}
		if st.compressed {
			// The directory ascends, so the scan is in (s, p, o) order.
			st.arena(SPO).rangeHeads(scanHead)
			return
		}
		for subj := range st.idx[SPO] {
			if !scanHead(subj) {
				return
			}
		}
	}
}

// walkHead iterates every (key, list-member) pair of head's vector in ix.
func (st *Store) walkHead(ix Index, head ID, fn func(key, member ID) bool) {
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

// Count returns the number of triples matching the pattern without
// materializing them.
func (st *Store) Count(s, p, o ID) int {
	n := 0
	st.Match(s, p, o, func(_, _, _ ID) bool { n++; return true })
	return n
}

// Triples returns all matching triples as a slice of [3]ID. Intended for
// tests and small results; large scans should use Match.
func (st *Store) Triples(s, p, o ID) [][3]ID {
	var out [][3]ID
	st.Match(s, p, o, func(s, p, o ID) bool {
		out = append(out, [3]ID{s, p, o})
		return true
	})
	return out
}

// AddTriple dictionary-encodes and inserts an rdf.Triple. It returns the
// assigned ids and whether the store changed. Invalid triples are
// rejected without touching the dictionary.
func (st *Store) AddTriple(t rdf.Triple) (s, p, o ID, added bool) {
	if !t.Valid() {
		return None, None, None, false
	}
	s, p, o = st.dict.EncodeTriple(t)
	return s, p, o, st.Add(s, p, o)
}

// DecodeMatch is Match with the results decoded back to rdf.Triples,
// for presentation layers.
func (st *Store) DecodeMatch(s, p, o ID, fn func(rdf.Triple) bool) error {
	var decodeErr error
	st.Match(s, p, o, func(s, p, o ID) bool {
		t, err := st.dict.DecodeTriple(s, p, o)
		if err != nil {
			decodeErr = err
			return false
		}
		return fn(t)
	})
	return decodeErr
}
