package core

import "hexastore/internal/rdf"

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
	switch {
	case s != None && p != None && o != None:
		if st.Has(s, p, o) {
			fn(s, p, o)
		}

	case s != None && p != None:
		st.terminalView(s, p, o).Range(func(obj ID) bool { return fn(s, p, obj) })

	case s != None && o != None:
		st.terminalView(s, p, o).Range(func(prop ID) bool { return fn(s, prop, o) })

	case p != None && o != None:
		st.terminalView(s, p, o).Range(func(subj ID) bool { return fn(subj, p, o) })

	case s != None:
		st.vec(SPO, s).RangePairs(func(prop, obj ID) bool { return fn(s, prop, obj) })

	case p != None:
		st.vec(PSO, p).RangePairs(func(subj, obj ID) bool { return fn(subj, p, obj) })

	case o != None:
		st.vec(OSP, o).RangePairs(func(subj, prop ID) bool { return fn(subj, prop, o) })

	default:
		// The directory ascends, so the scan is in (s, p, o) order.
		st.arena(SPO).rangeHeads(func(subj ID) bool {
			return st.vec(SPO, subj).RangePairs(func(prop, obj ID) bool { return fn(subj, prop, obj) })
		})
	}
}

// Count returns the number of triples matching the pattern, read off the
// index like PatternCardinality.
func (st *Store) Count(s, p, o ID) int { return st.PatternCardinality(s, p, o) }

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
