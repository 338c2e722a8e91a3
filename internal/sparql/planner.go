package sparql

import (
	"context"
	"sync/atomic"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/stats"
)

// DefaultPlanCacheSize is the number of query shapes a new Planner
// memoizes plans for.
const DefaultPlanCacheSize = 256

// Planner evaluates queries with cost-based basic-graph-pattern ordering
// driven by a cached statistics summary (Stocker et al. [41] style) and
// a join-size model over the sextuple indexes' cheap per-pattern
// cardinalities. It is the only planner: a package-level evaluation
// runs the same ordering over an empty summary (see planOrderJoin). It
// works over any Graph backend: memory-backed graphs build the summary
// off the index heads, others with one scan. Build one Planner per graph
// and reuse it; call Refresh after bulk updates.
//
// A Planner also hosts the repeated-query fast path: a query-shape plan
// cache (on by default, see SetPlanCacheSize) memoizing join orders and
// access-path hints per shape, and an optional snapshot-epoch result
// cache (SetResultCacheBytes) serving hot read queries without running a
// single join step. All methods are safe for concurrent use.
type Planner struct {
	g          graph.Graph
	sum        atomic.Pointer[stats.Summary]
	statsEpoch atomic.Uint64

	plans   atomic.Pointer[planCache]   // nil inner value: disabled
	results atomic.Pointer[resultCache] // nil inner value: disabled

	planHits, planMisses     atomic.Uint64
	resultHits, resultMisses atomic.Uint64
}

// NewPlanner builds the statistics summary for g and returns a Planner
// with the plan cache enabled at DefaultPlanCacheSize and the result
// cache disabled. A backend that fails mid-scan yields an empty summary:
// every pattern then prices alike, so the order follows connectivity and
// bound positions (see planOrderJoin) rather than failing.
func NewPlanner(g graph.Graph) *Planner {
	pl := &Planner{g: g}
	pl.plans.Store(newPlanCache(DefaultPlanCacheSize))
	pl.Refresh()
	return pl
}

// Refresh rebuilds the statistics summary after the graph changed and
// bumps the statistics epoch, invalidating every memoized plan (they
// were ranked under the old statistics). Cached results are untouched —
// their validity tracks the data epoch, not the statistics.
func (pl *Planner) Refresh() {
	sum, err := stats.BuildGraph(pl.g)
	if err != nil {
		sum = &stats.Summary{}
	}
	pl.sum.Store(sum)
	pl.statsEpoch.Add(1)
}

// RefreshIfDrifted runs Refresh when the graph's triple count has
// drifted from the count the summary was built on by at least a tenth
// of that count. A summary costs a full scan to build, and stale
// statistics only degrade join ordering, never correctness, so callers
// run this after writes instead of Refresh. Any change to an empty
// summary's graph refreshes it; a graph that did not change is never
// rescanned. The refresh keeps the caches and their hit/miss counters,
// and cached results key on the data epoch, so they invalidate on the
// write itself either way.
func (pl *Planner) RefreshIfDrifted() {
	built := pl.Stats().Triples
	drift := pl.g.Len() - built
	if drift < 0 {
		drift = -drift
	}
	if drift > 0 && drift*10 >= built {
		pl.Refresh()
	}
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
		StatsEpoch:   pl.statsEpoch.Load(),
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

// Stats returns the cached summary.
func (pl *Planner) Stats() *stats.Summary { return pl.sum.Load() }

// Graph returns the backend the planner evaluates against.
func (pl *Planner) Graph() graph.Graph { return pl.g }

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

// joinState tracks the evolving join-size estimate of a basic graph
// pattern under construction: the current intermediate cardinality and a
// per-variable estimate of its distinct values, so the next pattern's
// contribution is priced as a join (|A ⋈ B| = |A|·|B| / Π max(V(A,y),
// V(B,y)) over shared variables y) instead of by its stand-alone
// cardinality. V(pattern, y) comes from the summary's per-predicate
// distinct counts when the predicate is constant, and from the global
// distinct counts otherwise.
type joinState struct {
	sum   *stats.Summary
	card  float64            // estimated rows of the intermediate result
	dv    map[string]float64 // per bound variable: estimated distinct values
	bound map[string]bool
}

func newJoinState(sum *stats.Summary) *joinState {
	return &joinState{sum: sum, card: 1, dv: make(map[string]float64), bound: make(map[string]bool)}
}

// patternConstEstimate prices p with only its constants bound.
func patternConstEstimate(sum *stats.Summary, p *idPattern) float64 {
	var ids [3]core.ID
	for j := 0; j < 3; j++ {
		if p.term(j).Kind == Const {
			ids[j] = p.ids[j]
		}
	}
	return sum.EstimatePattern(ids[0], ids[1], ids[2])
}

// varDomain estimates how many distinct values position j of p takes
// among p's matches, capped by the pattern's own cardinality.
func varDomain(sum *stats.Summary, p *idPattern, j int, est float64) float64 {
	var d int
	if p.term(1).Kind == Const { // constant predicate: per-predicate counts
		switch j {
		case 0:
			d = sum.PredDistinctS[p.ids[1]]
		case 2:
			d = sum.PredDistinctO[p.ids[1]]
		default:
			d = 1
		}
	} else {
		switch j {
		case 0:
			d = sum.DistinctS
		case 1:
			d = sum.DistinctP
		default:
			d = sum.DistinctO
		}
	}
	v := float64(d)
	if est > 0 && v > est {
		v = est
	}
	if v < 1 {
		v = 1
	}
	return v
}

// cost returns the estimated cardinality of the intermediate result
// after joining p: the current cardinality times p's stand-alone
// estimate, divided per shared variable by the larger of the two sides'
// distinct-value estimates.
func (js *joinState) cost(p *idPattern) float64 {
	est := patternConstEstimate(js.sum, p)
	if est <= 0 {
		return 0
	}
	out := js.card * est
	seen := [3]string{}
	for j := 0; j < 3; j++ {
		t := p.term(j)
		if t.Kind != Var || !js.bound[t.Name] {
			continue
		}
		if t.Name == seen[0] || t.Name == seen[1] {
			continue // same variable twice in one pattern: one join key
		}
		seen[j] = t.Name
		vp := varDomain(js.sum, p, j, est)
		if va := js.dv[t.Name]; va > vp {
			vp = va
		}
		if vp > 1 {
			out /= vp
		}
	}
	return out
}

// advance commits p to the join: the cardinality becomes cost(p), every
// variable of p becomes bound, and distinct-value estimates are updated
// — joins only narrow a variable's domain (min), and no variable can
// have more distinct values than the intermediate result has rows.
func (js *joinState) advance(p *idPattern) {
	nc := js.cost(p)
	est := patternConstEstimate(js.sum, p)
	for j := 0; j < 3; j++ {
		t := p.term(j)
		if t.Kind != Var {
			continue
		}
		vp := varDomain(js.sum, p, j, est)
		if cur, ok := js.dv[t.Name]; !ok || vp < cur {
			js.dv[t.Name] = vp
		}
		js.bound[t.Name] = true
	}
	if nc < 1e-9 {
		nc = 1e-9 // keep downstream estimates finite and ordered
	}
	js.card = nc
	for v, d := range js.dv {
		if d > nc {
			js.dv[v] = nc
		}
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
			if !js.bound[t.Name] {
				newVar = true
			}
		}
	}
	if newVar || len(distinctVars) != 1 {
		return hintNone
	}
	if est := patternConstEstimate(js.sum, p); est > probeHintFactor*js.card {
		return hintProbe
	}
	return hintMerge
}

// noStats is the summary the package-level entry points plan over:
// empty, so planOrderJoin orders by connectivity and bound positions.
var noStats = &stats.Summary{}

// planOrderJoin orders the patterns of one branch by estimated join
// size: at every step it picks, among the patterns connected to the
// already-bound variables (to avoid Cartesian products), the one whose
// join with the current intermediate result is estimated smallest; equal
// estimates go to the pattern with more positions bound (constants and
// bound variables), then to the earlier one in the text. Over an empty
// summary every estimate is zero, so the order is connected and
// most-bound-first. It returns the order and the per-step access-path
// hints — the two things the plan cache memoizes per shape.
func planOrderJoin(sum *stats.Summary, pats []idPattern) ([]int, []stepHint) {
	n := len(pats)
	chosen := make([]int, 0, n)
	hints := make([]stepHint, 0, n)
	used := make([]bool, n)
	js := newJoinState(sum)

	sharesBoundVar := func(p *idPattern) bool {
		for _, v := range p.pat.Vars() {
			if js.bound[v] {
				return true
			}
		}
		return false
	}
	boundPositions := func(p *idPattern) int {
		nb := 0
		for j := 0; j < 3; j++ {
			if t := p.term(j); t.Kind == Const || js.bound[t.Name] {
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
			connected := len(js.bound) == 0 || sharesBoundVar(&pats[i])
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
	return chosen, hints
}
