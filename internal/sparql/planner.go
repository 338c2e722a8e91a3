package sparql

import (
	"context"
	"math"
	"slices"
	"sync/atomic"

	"hexastore/internal/core"
	"hexastore/internal/graph"
)

// DefaultPlanCacheSize is the number of query shapes a new Planner
// memoizes plans for.
const DefaultPlanCacheSize = 256

// Planner evaluates queries with cost-based basic-graph-pattern ordering
// (Stocker et al. [41] style): a join-size model priced from the counts
// the sextuple indexes keep in their vector headers, read from the
// snapshot each evaluation pins (see costSource). It is the only planner:
// the package-level entry points run the same ordering over the same
// numbers, without the caches. It works over any Graph backend.
//
// A Planner also hosts the repeated-query fast path: a query-shape plan
// cache (on by default, see SetPlanCacheSize) memoizing join orders and
// access-path hints per shape, and an optional snapshot-epoch result
// cache (SetResultCacheBytes) serving hot read queries without running a
// single join step. All methods are safe for concurrent use.
type Planner struct {
	g graph.Graph

	plans   atomic.Pointer[planCache]   // nil inner value: disabled
	results atomic.Pointer[resultCache] // nil inner value: disabled

	planHits, planMisses     atomic.Uint64
	resultHits, resultMisses atomic.Uint64
}

// NewPlanner returns a Planner over g with the plan cache enabled at
// DefaultPlanCacheSize and the result cache disabled. It reads nothing
// from g: plans are priced when they are made.
func NewPlanner(g graph.Graph) *Planner {
	pl := &Planner{g: g}
	pl.plans.Store(newPlanCache(DefaultPlanCacheSize))
	return pl
}

// SetPlanCacheSize resizes the plan cache to hold n query shapes;
// n <= 0 disables plan caching. Resizing drops current entries.
func (pl *Planner) SetPlanCacheSize(n int) {
	pl.plans.Store(newPlanCache(n))
}

// SetResultCacheBytes enables the snapshot-epoch result cache with a
// total byte cap of n; n <= 0 disables it. The cache only activates for
// backends that report content epochs (graph.Epocher): the delta
// overlay and the memory/disk stores. Resizing
// drops current entries.
func (pl *Planner) SetResultCacheBytes(n int64) {
	pl.results.Store(newResultCache(n))
}

// CacheStats returns a point-in-time snapshot of the plan- and
// result-cache counters.
func (pl *Planner) CacheStats() CacheStats {
	cs := CacheStats{
		PlanHits:     pl.planHits.Load(),
		PlanMisses:   pl.planMisses.Load(),
		ResultHits:   pl.resultHits.Load(),
		ResultMisses: pl.resultMisses.Load(),
	}
	if pc := pl.plans.Load(); pc != nil {
		cs.PlanEnabled = true
		cs.PlanEntries, cs.PlanCapacity, cs.PlanEvictions = pc.snapshot()
	}
	if rc := pl.results.Load(); rc != nil {
		cs.ResultEnabled = true
		cs.ResultEntries, cs.ResultBytes, cs.ResultCapBytes, cs.ResultEvictions, cs.EpochChurn = rc.snapshot()
	}
	return cs
}

// EvalOpts is the governed evaluation entry point with cost-based
// planning and the plan/result caches: the planner's analogue of the
// package-level EvalOpts.
func (pl *Planner) EvalOpts(ctx context.Context, q *Query, opt EvalOptions) (*Result, error) {
	return withRows(pl.EvalColumnar(ctx, q, opt))
}

// EvalColumnar is EvalOpts without the Rows compatibility view: the
// result is read through Len and At only, and no map is built per row.
// It is what a caller that streams the answer out — the HTTP server —
// should use; on a result-cache hit it costs one header allocation.
func (pl *Planner) EvalColumnar(ctx context.Context, q *Query, opt EvalOptions) (*Result, error) {
	return evalWith(ctx, pl.g, q, pl, opt)
}

// costSource prices patterns from the snapshot an evaluation pinned. The
// estimator of Stocker et al. [41] needs two kinds of number, and the
// sextuple layout keeps both in its vector headers: how many triples a
// subject, predicate or object heads (Count), and how many keys a head's
// vector holds, or how many heads an ordering has (graph.Distinct). Each
// is read at most once per evaluation, when the cost model first asks
// for it, so pricing a plan costs what the plan joins — on disk, a
// prefix scan per predicate — and not a summary of the store. The first
// read that fails fails the query.
type costSource struct {
	g     graph.Graph // the store behind the pinned snapshot
	n     int         // its triples
	reads []costRead
	err   error

	readBuf [16]costRead
}

// costRead is one number read: the triples whose ix head is head, or,
// with distinct, the keys under head in ix (None: the heads of ix).
type costRead struct {
	distinct bool
	ix       core.Index
	head     core.ID
	n        float64
}

// newCostSource prices from the store behind pinned, found the way the
// fetch paths find it (graph.Unwrap), so an adapter wrapped around the
// snapshot does not stand between the cost model and the headers.
func newCostSource(pinned graph.Graph) *costSource {
	g := pinned
	switch u := graph.Unwrap(pinned).(type) {
	case *core.Store:
		g = graph.Memory(u)
	case graph.Graph:
		g = u
	}
	cs := &costSource{g: g, n: g.Len()}
	cs.reads = cs.readBuf[:0]
	return cs
}

func (cs *costSource) read(distinct bool, ix core.Index, head core.ID) float64 {
	for _, r := range cs.reads {
		if r.distinct == distinct && r.ix == ix && r.head == head {
			return r.n
		}
	}
	var n int
	var err error
	if distinct {
		n, err = graph.Distinct(cs.g, ix, head)
	} else {
		var t [3]core.ID
		t[ix/2] = head // ix/2 is the position ix is headed by
		n, err = cs.g.Count(t[0], t[1], t[2])
	}
	if err != nil && cs.err == nil {
		cs.err = err
	}
	cs.reads = append(cs.reads, costRead{distinct, ix, head, float64(n)})
	return float64(n)
}

// distinct is the number of keys under head in ordering ix, at least 1:
// a pending overlay counts its main's keys, which a new predicate has
// none of, and on any store a head with triples has a key.
func (cs *costSource) distinct(ix core.Index, head core.ID) float64 {
	return max(cs.read(true, ix, head), 1)
}

// estimate returns the estimated number of triples matching the pattern
// ⟨s,p,o⟩, None the wildcard: exact for one bound position, and under
// the uniformity and independence assumptions of [41] for more.
func (cs *costSource) estimate(s, p, o core.ID) float64 {
	switch {
	case cs.n == 0:
		return 0
	case p != core.None && (s != core.None || o != core.None):
		pc, div := cs.read(false, core.PSO, p), 1.0
		if pc == 0 {
			return 0
		}
		if s != core.None {
			div *= cs.distinct(core.PSO, p)
		}
		if o != core.None {
			div *= cs.distinct(core.POS, p)
		}
		return min1(pc / div)
	case s != core.None && o != core.None:
		sc := cs.read(false, core.SPO, s)
		if sc == 0 {
			return 0
		}
		// Independence: P(subject=s) * P(object=o) * T.
		return min1(sc * cs.read(false, core.OSP, o) / float64(cs.n))
	case s != core.None:
		return cs.read(false, core.SPO, s)
	case p != core.None:
		return cs.read(false, core.PSO, p)
	case o != core.None:
		return cs.read(false, core.OSP, o)
	default:
		return float64(cs.n)
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

// constEstimate prices p with only its constants bound.
func (cs *costSource) constEstimate(p *idPattern) float64 {
	var ids [3]core.ID
	for j := 0; j < 3; j++ {
		if p.term(j).Kind == Const {
			ids[j] = p.ids[j]
		}
	}
	return cs.estimate(ids[0], ids[1], ids[2])
}

// headedBy[j] is the ordering whose heads are position j's values.
var headedBy = [3]core.Index{core.SPO, core.PSO, core.OSP}

// domain estimates how many distinct values position j of p takes among
// p's matches, capped by the pattern's own estimate est: the keys of
// the predicate's vectors when it is constant, the heads of the
// position's ordering otherwise.
func (cs *costSource) domain(p *idPattern, j int, est float64) float64 {
	var d float64
	switch {
	case p.term(1).Kind != Const:
		d = cs.read(true, headedBy[j], core.None)
	case j == 0:
		d = cs.read(true, core.PSO, p.ids[1])
	case j == 2:
		d = cs.read(true, core.POS, p.ids[1])
	default:
		d = 1
	}
	if est > 0 && d > est {
		d = est
	}
	return max(d, 1)
}

// joinState tracks the evolving join-size estimate of a basic graph
// pattern under construction: the current intermediate cardinality and a
// per-variable estimate of its distinct values, so the next pattern's
// contribution is priced as a join (|A ⋈ B| = |A|·|B| / Π max(V(A,y),
// V(B,y)) over shared variables y) instead of by its stand-alone
// cardinality. A variable's estimate is read only once a join on it is
// priced (domainOf).
type joinState struct {
	cs   *costSource
	card float64      // estimated rows of the intermediate result
	vars []boundVar   // the variables bound so far
	done []*idPattern // the patterns joined so far

	varBuf  [8]boundVar
	doneBuf [8]*idPattern
}

// boundVar is a bound variable and the least of the cardinalities the
// join has had since it was bound.
type boundVar struct {
	name string
	lo   float64
}

func newJoinState(cs *costSource) *joinState {
	js := &joinState{cs: cs, card: 1}
	js.vars, js.done = js.varBuf[:0], js.doneBuf[:0]
	return js
}

// varIndex returns the index of name in vars, or -1 when it is unbound.
func (js *joinState) varIndex(name string) int {
	return slices.IndexFunc(js.vars, func(v boundVar) bool { return v.name == name })
}

func (js *joinState) bound(name string) bool { return js.varIndex(name) >= 0 }

// domainOf returns bound variable v's distinct-value estimate: joins
// only narrow a variable's domain, so the least of lo and the domains of
// its positions in the patterns joined so far.
func (js *joinState) domainOf(v int) float64 {
	d := js.vars[v].lo
	for _, p := range js.done {
		for j := 0; j < 3; j++ {
			if t := p.term(j); t.Kind == Var && t.Name == js.vars[v].name {
				d = min(d, js.cs.domain(p, j, js.cs.constEstimate(p)))
			}
		}
	}
	return d
}

// cost returns the estimated cardinality of the intermediate result
// after joining p: the current cardinality times p's stand-alone
// estimate, divided per shared variable by the larger of the two sides'
// distinct-value estimates.
func (js *joinState) cost(p *idPattern) float64 {
	est := js.cs.constEstimate(p)
	if est <= 0 {
		return 0
	}
	out := js.card * est
	seen := [3]string{}
	for j := 0; j < 3; j++ {
		t := p.term(j)
		if t.Kind != Var {
			continue
		}
		v := js.varIndex(t.Name)
		if v < 0 || t.Name == seen[0] || t.Name == seen[1] {
			continue // unbound, or the same variable twice in one pattern: one join key
		}
		seen[j] = t.Name
		vp := max(js.cs.domain(p, j, est), js.domainOf(v))
		if vp > 1 {
			out /= vp
		}
	}
	return out
}

// advance commits p to the join: the cardinality becomes cost(p), every
// variable of p becomes bound, and no variable can have more distinct
// values than the intermediate result has rows.
func (js *joinState) advance(p *idPattern) {
	nc := max(js.cost(p), 1e-9) // keep downstream estimates finite and ordered
	for j := 0; j < 3; j++ {
		if t := p.term(j); t.Kind == Var && !js.bound(t.Name) {
			js.vars = append(js.vars, boundVar{name: t.Name, lo: math.Inf(1)})
		}
	}
	js.done = append(js.done, p)
	js.card = nc
	for i := range js.vars {
		js.vars[i].lo = min(js.vars[i].lo, nc)
	}
}

// filterHint derives the access-path hint for a pattern that binds no
// new variable and joins on exactly one column: fetch-and-merge the
// candidate list when it is comparable to the binding table, per-row
// probes when the list dwarfs it.
func (js *joinState) filterHint(p *idPattern) stepHint {
	distinctVars := map[string]bool{}
	newVar := false
	for j := 0; j < 3; j++ {
		if t := p.term(j); t.Kind == Var {
			distinctVars[t.Name] = true
			if !js.bound(t.Name) {
				newVar = true
			}
		}
	}
	if newVar || len(distinctVars) != 1 {
		return hintNone
	}
	if est := js.cs.constEstimate(p); est > probeHintFactor*js.card {
		return hintProbe
	}
	return hintMerge
}

// planOrderJoin orders the patterns of one branch by estimated join
// size: at every step it picks, among the patterns connected to the
// already-bound variables (to avoid Cartesian products), the one whose
// join with the current intermediate result is estimated smallest; equal
// estimates go to the pattern with more positions bound (constants and
// bound variables), then to the earlier one in the text. It returns the
// order and the per-step access-path hints — the two things the plan
// cache memoizes per shape — or the error of a count it could not read.
// A one-pattern branch has one order and no filter step, so it reads
// nothing.
func planOrderJoin(cs *costSource, pats []idPattern) ([]int, []stepHint, error) {
	n := len(pats)
	if n == 1 {
		return []int{0}, []stepHint{hintNone}, nil
	}
	chosen := make([]int, 0, n)
	hints := make([]stepHint, 0, n)
	used := make([]bool, n)
	js := newJoinState(cs)

	sharesBoundVar := func(p *idPattern) bool {
		for _, v := range p.pat.Vars() {
			if js.bound(v) {
				return true
			}
		}
		return false
	}
	boundPositions := func(p *idPattern) int {
		nb := 0
		for j := 0; j < 3; j++ {
			if t := p.term(j); t.Kind == Const || js.bound(t.Name) {
				nb++
			}
		}
		return nb
	}

	for len(chosen) < n {
		best := -1
		bestConnected := false
		bestCost, bestBound := 0.0, 0
		for i := range pats {
			if used[i] {
				continue
			}
			connected := len(js.vars) == 0 || sharesBoundVar(&pats[i])
			c := js.cost(&pats[i])
			nb := boundPositions(&pats[i])
			better := false
			switch {
			case best == -1:
				better = true
			case connected != bestConnected:
				better = connected
			case c != bestCost:
				better = c < bestCost
			default:
				better = nb > bestBound
			}
			if better {
				best, bestConnected, bestCost, bestBound = i, connected, c, nb
			}
		}
		used[best] = true
		chosen = append(chosen, best)
		hints = append(hints, js.filterHint(&pats[best]))
		js.advance(&pats[best])
	}
	return chosen, hints, cs.err
}
