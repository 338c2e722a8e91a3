// Package stats implements dataset statistics and triple-pattern
// cardinality estimation in the style of Stocker et al., "SPARQL Basic
// Graph Pattern Optimization Using Selectivity Estimation" (WWW 2008) —
// the selectivity-estimation work the paper cites as reference [41].
//
// A Summary is built from a Hexastore in one pass over its index heads
// (not its triples: the per-property counts fall out of the pso and pos
// vector sizes, which is itself a small demonstration of the sextuple
// layout's convenience). The SPARQL planner uses the summary to order
// basic-graph-pattern evaluation by estimated result cardinality.
package stats

import (
	"fmt"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
)

// ID re-exports the dictionary id type.
type ID = dictionary.ID

// None is the unbound marker in estimation requests.
const None = dictionary.None

// Summary holds the statistics used for cardinality estimation.
type Summary struct {
	// Triples is the total number of triples.
	Triples int
	// DistinctS, DistinctP, DistinctO count distinct subjects,
	// predicates and objects.
	DistinctS, DistinctP, DistinctO int

	// PredCount is the number of triples per predicate.
	PredCount map[ID]int
	// PredDistinctS is the number of distinct subjects per predicate.
	PredDistinctS map[ID]int
	// PredDistinctO is the number of distinct objects per predicate.
	PredDistinctO map[ID]int
	// ObjCount is the number of triples per object.
	ObjCount map[ID]int
	// SubjCount is the number of triples per subject.
	SubjCount map[ID]int
}

// Build collects a Summary from st. Cost is proportional to the number
// of distinct heads in the pso, osp and spo indices: every count is a
// vector's running total, read without walking its entries.
func Build(st *core.Store) *Summary {
	s := &Summary{
		Triples:       st.Len(),
		DistinctS:     st.Heads(core.SPO),
		DistinctP:     st.Heads(core.PSO),
		DistinctO:     st.Heads(core.OSP),
		PredCount:     make(map[ID]int),
		PredDistinctS: make(map[ID]int),
		PredDistinctO: make(map[ID]int),
		ObjCount:      make(map[ID]int),
		SubjCount:     make(map[ID]int),
	}
	for _, p := range st.HeadIDs(core.PSO) {
		s.PredCount[p] = st.PatternCardinality(None, p, None)
		s.PredDistinctS[p] = st.Head(core.PSO, p).Len()
		s.PredDistinctO[p] = st.Head(core.POS, p).Len()
	}
	for _, o := range st.HeadIDs(core.OSP) {
		s.ObjCount[o] = st.PatternCardinality(None, None, o)
	}
	for _, subj := range st.HeadIDs(core.SPO) {
		s.SubjCount[subj] = st.PatternCardinality(subj, None, None)
	}
	return s
}

// BuildGraph collects a Summary from a snapshot of any Graph backend:
// with Build when the snapshot is a core.Store — a sealed memory graph,
// or a delta overlay with nothing pending — which reads the counts off
// the index heads, otherwise with one full scan of its triples.
func BuildGraph(g graph.Graph) (*Summary, error) {
	g = graph.Snapshot(g)
	if st, ok := graph.Unwrap(g).(*core.Store); ok {
		return Build(st), nil
	}
	s := &Summary{
		PredCount:     make(map[ID]int),
		PredDistinctS: make(map[ID]int),
		PredDistinctO: make(map[ID]int),
		ObjCount:      make(map[ID]int),
		SubjCount:     make(map[ID]int),
	}
	predSubj := make(map[ID]map[ID]struct{})
	predObj := make(map[ID]map[ID]struct{})
	err := g.Match(None, None, None, func(sub, pred, obj ID) bool {
		s.Triples++
		s.SubjCount[sub]++
		s.PredCount[pred]++
		s.ObjCount[obj]++
		ps := predSubj[pred]
		if ps == nil {
			ps = make(map[ID]struct{})
			predSubj[pred] = ps
		}
		ps[sub] = struct{}{}
		po := predObj[pred]
		if po == nil {
			po = make(map[ID]struct{})
			predObj[pred] = po
		}
		po[obj] = struct{}{}
		return true
	})
	if err != nil {
		return nil, err
	}
	for p, subs := range predSubj {
		s.PredDistinctS[p] = len(subs)
	}
	for p, objs := range predObj {
		s.PredDistinctO[p] = len(objs)
	}
	s.DistinctS = len(s.SubjCount)
	s.DistinctP = len(s.PredCount)
	s.DistinctO = len(s.ObjCount)
	return s, nil
}

// EstimatePattern returns the estimated number of triples matching the
// pattern ⟨s,p,o⟩ with None as the wildcard. Concrete subject/object ids
// use the exact per-resource counts where available; combinations fall
// back to uniformity (independence) assumptions, as in [41].
func (s *Summary) EstimatePattern(sub, pred, obj ID) float64 {
	if s.Triples == 0 {
		return 0
	}
	t := float64(s.Triples)
	switch {
	case sub != None && pred != None && obj != None:
		pc, ok := s.PredCount[pred]
		if !ok {
			return 0
		}
		ds, do := s.PredDistinctS[pred], s.PredDistinctO[pred]
		if ds == 0 || do == 0 {
			return 0
		}
		est := float64(pc) / (float64(ds) * float64(do))
		return min1(est)
	case sub != None && pred != None:
		pc, ok := s.PredCount[pred]
		if !ok {
			return 0
		}
		ds := s.PredDistinctS[pred]
		if ds == 0 {
			return 0
		}
		return float64(pc) / float64(ds)
	case pred != None && obj != None:
		pc, ok := s.PredCount[pred]
		if !ok {
			return 0
		}
		do := s.PredDistinctO[pred]
		if do == 0 {
			return 0
		}
		return float64(pc) / float64(do)
	case sub != None && obj != None:
		sc := float64(s.SubjCount[sub])
		oc := float64(s.ObjCount[obj])
		// Independence: P(subject=s) * P(object=o) * T.
		return min1(sc * oc / t)
	case sub != None:
		return float64(s.SubjCount[sub])
	case pred != None:
		return float64(s.PredCount[pred])
	case obj != None:
		return float64(s.ObjCount[obj])
	default:
		return t
	}
}

// min1 floors tiny positive estimates at a small epsilon so planners can
// still distinguish "almost certainly one row" from "zero rows".
func min1(est float64) float64 {
	if est > 0 && est < 1e-9 {
		return 1e-9
	}
	return est
}

// String summarizes the summary, for diagnostics.
func (s *Summary) String() string {
	return fmt.Sprintf("stats: %d triples, %d subjects, %d predicates, %d objects",
		s.Triples, s.DistinctS, s.DistinctP, s.DistinctO)
}
