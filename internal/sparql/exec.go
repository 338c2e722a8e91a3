package sparql

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"unsafe"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/govern"
	"hexastore/internal/graph"
	"hexastore/internal/obs"
	"hexastore/internal/query"
	"hexastore/internal/rdf"
	"hexastore/internal/stats"
)

func newIRI(s string) rdf.Term     { return rdf.NewIRI(s) }
func newLiteral(s string) rdf.Term { return rdf.NewLiteral(s) }
func newBlank(s string) rdf.Term   { return rdf.NewBlank(s) }

// idPattern is a pattern with its constant positions resolved to
// dictionary ids and its variable positions to solution slots (-1 at a
// constant). resolved is false when some constant is not in the
// dictionary at all (the pattern cannot match anything).
type idPattern struct {
	pat      Pattern
	ids      [3]core.ID
	slot     [3]int
	resolved bool
}

// term returns position j (0=S, 1=P, 2=O) of the pattern.
func (p *idPattern) term(j int) Term {
	switch j {
	case 0:
		return p.pat.S
	case 1:
		return p.pat.P
	default:
		return p.pat.O
	}
}

// Source is the store behaviour the evaluator needs. It is an alias of
// graph.Graph, kept for compatibility with earlier releases where the
// evaluator defined its own source interface.
type Source = graph.Graph

// Exec parses and evaluates src against any Graph backend — the
// in-memory Hexastore (graph.Memory), the disk-based Hexastore, or the
// baseline triples table (graph.Baseline).
func Exec(g graph.Graph, src string) (*Result, error) {
	return ExecContext(context.Background(), g, src)
}

// ExecContext is Exec observing ctx: the evaluation stops with ctx.Err()
// shortly after ctx is canceled or its deadline passes. Cancellation is
// checked at block granularity — between join steps, once per row in the
// per-row probe and expansion loops, and every 128 streamed candidates —
// so an in-flight multi-way join stops within one block on every
// backend, and a pinned snapshot is released promptly.
func ExecContext(ctx context.Context, g graph.Graph, src string) (*Result, error) {
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return EvalContext(ctx, g, q)
}

// Eval evaluates a parsed query against any Graph backend.
//
// Planning: each UNION clause multiplies the query into branches (the
// standard BGP rewriting); within a branch, required patterns are
// ordered greedily — at every step the pattern with the most positions
// bound is chosen, breaking ties by the engine's selectivity estimate
// when the backend is the in-memory Hexastore (whose indexes answer
// selectivity without scanning). Execution is a depth-first bind join:
// each step substitutes the current bindings into its pattern and
// probes the backend, which has the right index for every binding
// combination that can arise (§4.2 of the paper). FILTERs run at the
// earliest step where their variables are bound; OPTIONAL groups extend
// solutions after the required patterns.
func Eval(g graph.Graph, q *Query) (*Result, error) {
	return EvalOpts(context.Background(), g, q, EvalOptions{})
}

// EvalContext is Eval observing ctx (see ExecContext for the
// cancellation granularity).
func EvalContext(ctx context.Context, g graph.Graph, q *Query) (*Result, error) {
	return EvalOpts(ctx, g, q, EvalOptions{})
}

// EvalWorkers is Eval with an explicit intra-query worker budget,
// overriding the package-wide SetMaxWorkers default for this evaluation
// (workers <= 1 keeps execution single-threaded; see parallel.go for
// how seed pieces spread over workers and why results are identical for
// every budget).
func EvalWorkers(g graph.Graph, q *Query, workers int) (*Result, error) {
	return EvalOpts(context.Background(), g, q, EvalOptions{Workers: workers})
}

// EvalOpts is the fully governed evaluation entry point: ctx carries
// cancellation and deadlines, opt carries the worker budget and the
// memory limit (see EvalOptions).
//
// When the backend offers consistent snapshots (graph.Snapshotter — the
// delta overlay), the whole evaluation is pinned to
// one snapshot, so a query's many pattern fetches all observe the same
// store version even while writers commit concurrently. The pin is
// released when the evaluation returns — including when it returns early
// with ctx.Err() or govern.ErrBudgetExceeded.
func EvalOpts(ctx context.Context, g graph.Graph, q *Query, opt EvalOptions) (*Result, error) {
	return withRows(evalWith(ctx, g, q, nil, opt))
}

// withRows is the adapter at the legacy edge: every exported entry point
// but Planner.EvalColumnar passes its result through it, so callers that
// read Result.Rows keep finding one map per solution.
func withRows(res *Result, err error) (*Result, error) {
	if err == nil {
		res.fillRows()
	}
	return res, err
}

// evalWith is the shared core of every entry point. pl is nil for the
// package-level ones (no statistics, no caches). The result is columnar
// only: Rows is left nil.
func evalWith(ctx context.Context, g graph.Graph, q *Query, pl *Planner, opt EvalOptions) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = MaxWorkers()
	}
	var pin *obs.Span
	if opt.Trace != nil {
		pin = opt.Trace.Child("snapshot")
	}
	g = graph.Snapshot(g)
	// The pin span covers the whole window the snapshot is held; it is
	// released when the evaluation returns, success or not.
	defer pin.Finish()
	if pin != nil {
		pin.Set("backend", reflect.TypeOf(graph.Unwrap(g)))
	}

	// The repeated-query fast path. The shape key feeds both caches; the
	// result cache additionally needs the content epoch, which MUST be
	// read from the pinned snapshot (not the live graph): a write landing
	// between an early epoch read and the pin could tag a stale answer
	// with a fresh token. EXPLAIN / EXPLAIN ANALYZE and NoResultCache
	// evaluations never consult the result cache — a cached row set with
	// a fabricated trace would lie about what executed.
	var (
		plans    *planCache
		results  *resultCache
		shape    string
		rkey     string
		epoch    string
		fillable bool
	)
	if pl != nil {
		plans = pl.plans.Load()
		results = pl.results.Load()
	}
	useResult := results != nil && q.Explain == ExplainNone && !opt.NoResultCache
	if plans != nil || useResult {
		var consts []rdf.Term
		var outVars []string
		shape, consts, outVars = shapeOf(q)
		if useResult {
			if epoch = graph.EpochOf(g); epoch != "" {
				rkey = resultKey(shape, outVars, consts)
				if res, ok := results.get(rkey, epoch); ok {
					pl.resultHits.Add(1)
					opt.Trace.Set("resultCache", "hit")
					return res, nil
				}
				pl.resultMisses.Add(1)
				opt.Trace.Set("resultCache", "miss")
				fillable = true
			}
		}
	}

	var sum *stats.Summary
	if pl != nil {
		sum = pl.sum.Load()
	}
	ev := &evaluator{
		src:     g,
		dict:    g.Dictionary(),
		q:       q,
		pl:      pl,
		plans:   plans,
		shape:   shape,
		sum:     sum,
		eng:     engineFor(g),
		workers: workers,
		tr:      opt.Trace,
		mem:     meterFor(&opt),
	}
	if ctx.Done() != nil {
		ev.ctx = ctx
	}
	res, err := ev.run()
	if err == nil && fillable {
		// Cache fill. The retained bytes charge the query's meter first —
		// a query already at its budget does not get to pin more memory
		// process-wide; it just skips the fill (never fails over it).
		size := resultFootprint(res) + int64(len(rkey)) + resultEntryOverhead
		if ev.mem.Grow(size) == nil {
			defer ev.mem.Shrink(size)
			results.put(rkey, epoch, res, size)
		}
	}
	return res, err
}

// engineFor returns an index-aware engine when g answers selectivity
// without scanning — the in-memory Hexastore (vector-level estimates)
// or any SortedSource backend such as the disk store (sorted-list
// lengths). Generic backends price patterns with scans, which is too
// expensive for per-step selectivity tie-breaking, so they get nil.
func engineFor(g graph.Graph) *query.Engine {
	if eng := query.NewGraphEngine(g); eng.Store() != nil || eng.Sorted() != nil {
		return eng
	}
	return nil
}

type evaluator struct {
	src  graph.Graph
	eng  *query.Engine // nil for non-memory backends; enables selectivity tie-breaks
	dict *dictionary.Dictionary
	q    *Query

	// sum, when non-nil, switches pattern ordering to the cost-based
	// planner (see Planner).
	sum *stats.Summary

	// pl is the owning Planner (nil for package-level entry points);
	// plans is its plan cache pinned for this evaluation, shape the
	// query's canonical shape key, and branchIdx the index of the union
	// branch currently planned — together they key the memoized join
	// orders.
	pl        *Planner
	plans     *planCache
	shape     string
	branchIdx int

	// workers is the intra-query parallelism budget (0 is normalized to
	// 1 at run time).
	workers int

	// tr is the evaluation's trace root (nil: tracing off — the nil-safe
	// span methods make every recording site a predictable no-op).
	tr *obs.Span

	// The cancellation tick of the goroutine that evaluates the query:
	// planning, emission and the OPTIONAL matcher (see parallel.go).
	cancelTick

	// mem accounts what the query holds (nil: unlimited). rowBytes is the
	// accounted estimate of one materialized result row, and grown what
	// the rows emitted since the meter was last updated retain (retain).
	mem      *govern.Meter
	rowBytes int64
	grown    int64

	vars []string

	// reads holds the variables the query reads besides joining on them,
	// when its answer is a set; nil when it is not (see setReads).
	reads map[string]bool

	// Every variable of the query is numbered once, in run: slots maps a
	// name to its slot and cur holds the solution being extended or
	// emitted, by slot, with core.None for "unbound". Patterns, filters,
	// the projection, GROUP BY, aggregates and ORDER BY all carry slots
	// resolved up front, so no per-row or per-cell work looks a name up.
	slots      map[string]int
	cur        []core.ID
	projSlots  []int  // per output column of a non-aggregate query
	projOpt    []bool // that column may legitimately be unbound
	orderSlots []int  // per ORDER BY key of a non-aggregate query
	groupSlots []int  // per GROUP BY variable
	aggSlots   []int  // per aggregate; -1 for COUNT(*)
	filters    []cfilter

	res      *Result
	distinct *idTable // DISTINCT's seen projection tuples; nil without DISTINCT
	target   int      // rows needed before OFFSET/LIMIT trimming; -1 = all
	done     bool

	// batch is the columnar join executor that drives each branch, one
	// per evaluation; its pieces and scratch buffers are reused across
	// branches. laneSet holds the executors made for other workers, and
	// chunks counts the seed pieces run (parallel.go).
	batch   batchExec
	laneSet []*batchExec
	chunks  int

	// tuple is the reusable buffer a DISTINCT or GROUP BY key is gathered
	// in: one id per projected or grouped variable, None for unbound.
	tuple []core.ID

	// terms decodes ids for ORDER BY keys and late FILTERs (order.go);
	// its snapshot's key table is what the result keeps.
	terms termReader

	// ORDER BY state (order.go). orderKeys holds len(q.OrderBy) keys per
	// collected row — kept apart from the cells because sort variables
	// need not be projected — and orderSeq the row's emit sequence number.
	// topK > 0 bounds collection to that many rows (ORDER BY with LIMIT);
	// heap then indexes them once the bound is reached. keyScratch is the
	// candidate row's keys.
	orderKeys  []sortKey
	orderSeq   []int
	seq        int
	topK       int
	heap       []int
	keyScratch []sortKey

	// Aggregation state (len(q.Aggregates) > 0): solutions are folded
	// into groups instead of emitted as rows. groups numbers the GROUP BY
	// buckets by their id tuple (None = unbound) and holds those tuples;
	// groupCounts holds bucket g's counts at stride g, one per aggregate.
	// A COUNT(DISTINCT) aggregate i counts a row only when its (bucket,
	// value) pair is new to seen[i]; seen[i] is nil for other aggregates.
	aggMode     bool
	groups      *idTable
	groupCounts []int
	seen        []*idTable
}

func (ev *evaluator) run() (*Result, error) {
	q := ev.q
	ev.vars = q.Vars
	if len(ev.vars) == 0 && !q.Ask { // an ASK answer projects nothing
		ev.vars = q.AllVars()
	}
	ev.slots = make(map[string]int)
	ev.terms = newTermReader(ev.dict)
	ev.batch.ev = ev
	ev.batch.src = ev.src
	ev.batch.workers = max(ev.workers, 1)
	if ss, ok := graph.AsSortedSource(ev.src); ok {
		ev.batch.sorted = ss
		ev.batch.keys, _ = ss.(graph.KeySource)
	}
	if vs, ok := graph.AsViewSource(ev.src); ok {
		ev.batch.views = vs
	}
	ev.batch.init()
	defer ev.finish()
	if len(q.Aggregates) > 0 {
		ev.aggMode = true
		ev.groupSlots = ev.slotsOf(q.GroupBy)
		ev.groups = newIDTable(len(ev.groupSlots))
		ev.seen = make([]*idTable, len(q.Aggregates))
		for i, a := range q.Aggregates {
			s := -1
			if a.Var != "" {
				s = ev.slotOf(a.Var)
			}
			ev.aggSlots = append(ev.aggSlots, s)
			if a.Distinct && s >= 0 {
				ev.seen[i] = newIDTable(2)
			}
		}
		// Output columns: the group-key variables followed by the
		// aggregate aliases.
		outVars := append([]string(nil), q.Vars...)
		for _, a := range q.Aggregates {
			outVars = append(outVars, a.As)
		}
		ev.vars = outVars
	} else {
		optVars := q.OptionalVars()
		ev.projSlots = ev.slotsOf(ev.vars)
		for _, name := range ev.vars {
			ev.projOpt = append(ev.projOpt, optVars[name])
		}
		for _, k := range q.OrderBy {
			ev.orderSlots = append(ev.orderSlots, ev.slotOf(k.Var))
		}
	}
	if err := ev.compileFilters(); err != nil {
		return nil, err
	}
	ev.reads = ev.setReads()
	ev.res = &Result{Vars: ev.vars}
	// What one collected row retains: its ids, its ORDER BY keys and
	// sequence number — a query whose output alone is enormous fails
	// typed instead of exhausting memory.
	ev.rowBytes = int64(len(ev.vars))*int64(unsafe.Sizeof(core.None)) +
		int64(len(q.OrderBy))*int64(unsafe.Sizeof(sortKey{})) + 8
	if q.Distinct && !ev.aggMode {
		ev.distinct = newIDTable(len(ev.projSlots))
	}
	// Early termination is only sound without ORDER BY or aggregation:
	// otherwise every solution is a candidate. With ORDER BY and LIMIT the
	// candidates are still all visited, but only offset+limit are kept.
	ev.target = -1
	if !ev.aggMode && q.Limit > 0 {
		if len(q.OrderBy) == 0 {
			ev.target = q.Offset + q.Limit
		} else {
			ev.topK = q.Offset + q.Limit
		}
	}
	if q.Ask {
		ev.target = 1 // one solution decides the answer
	}

	// Resolve optional groups once; they are shared by all branches.
	optionals := make([][]idPattern, 0, len(q.Optionals))
	for _, group := range q.Optionals {
		optionals = append(optionals, ev.resolve(group))
	}
	branches := make([][]idPattern, 0, 1)
	for _, branch := range expandUnions(q) {
		branches = append(branches, ev.resolve(branch))
	}
	// Every variable has its slot by now.
	ev.cur = make([]core.ID, len(ev.slots))

	for _, pats := range branches {
		if err := ev.ctxCheck(); err != nil {
			return nil, err
		}
		if err := ev.runBranch(pats, optionals); err != nil {
			return nil, err
		}
		if ev.done {
			break
		}
	}

	if ev.aggMode {
		if err := ev.materializeGroups(); err != nil {
			return nil, err
		}
	}
	if q.Ask {
		return &Result{IsAsk: true, Answer: ev.res.n > 0}, nil
	}
	ev.applyModifiers()
	// Freeze the key table the result decodes through: every id the
	// answer holds was assigned by now.
	ev.res.keys = ev.terms.snap.Keys()
	return ev.res, nil
}

// setReads returns, for a query whose answer is a set of value tuples —
// DISTINCT, ASK, or aggregates that are all COUNT(DISTINCT ?v) — the
// variables it reads beyond joining on them: projected, grouped,
// counted, sorted on, filtered, or in an OPTIONAL group. How many
// solutions agree on those cannot change such an answer, which is what
// licenses a semijoin on any other variable that occurs once in a
// branch (existentials). For any other query it returns nil.
func (ev *evaluator) setReads() map[string]bool {
	q := ev.q
	set := q.Ask || (q.Distinct && !ev.aggMode)
	if ev.aggMode {
		set = true
		for _, a := range q.Aggregates {
			set = set && a.Distinct && a.Var != ""
		}
	}
	if !set {
		return nil
	}
	reads := map[string]bool{}
	for _, names := range [][]string{ev.vars, q.GroupBy} {
		for _, v := range names {
			reads[v] = true
		}
	}
	for _, a := range q.Aggregates {
		reads[a.Var] = true
	}
	for _, k := range q.OrderBy {
		reads[k.Var] = true
	}
	for _, f := range q.Filters {
		for _, v := range f.Vars() {
			reads[v] = true
		}
	}
	for _, group := range q.Optionals {
		for _, p := range group {
			for _, v := range p.Vars() {
				reads[v] = true
			}
		}
	}
	return reads
}

// existentials returns the variables of a branch a semijoin may drop:
// each occurs in exactly one position of the branch's required patterns
// and the query does not read it (setReads). nil when the query's answer
// is not a set.
func (ev *evaluator) existentials(pats []idPattern) map[string]bool {
	if ev.reads == nil {
		return nil
	}
	uses := map[string]int{}
	for i := range pats {
		for j := 0; j < 3; j++ {
			if t := pats[i].term(j); t.Kind == Var {
				uses[t.Name]++
			}
		}
	}
	exist := map[string]bool{}
	for name, n := range uses {
		if n == 1 && !ev.reads[name] {
			exist[name] = true
		}
	}
	return exist
}

// slotOf returns the solution slot of variable name, assigning the next
// free one on first sight. Only run and resolve call it: by the time
// rows flow, every name the query mentions is numbered.
func (ev *evaluator) slotOf(name string) int {
	s, ok := ev.slots[name]
	if !ok {
		s = len(ev.slots)
		ev.slots[name] = s
	}
	return s
}

func (ev *evaluator) slotsOf(names []string) []int {
	out := make([]int, len(names))
	for i, name := range names {
		out[i] = ev.slotOf(name)
	}
	return out
}

// expandUnions returns the branches of the query: the required patterns
// joined with one alternative from every UNION clause (cross product).
func expandUnions(q *Query) [][]Pattern {
	branches := [][]Pattern{append([]Pattern(nil), q.Patterns...)}
	for _, u := range q.Unions {
		var next [][]Pattern
		for _, branch := range branches {
			for _, alt := range u {
				nb := make([]Pattern, 0, len(branch)+len(alt))
				nb = append(nb, branch...)
				nb = append(nb, alt...)
				next = append(next, nb)
			}
		}
		branches = next
	}
	return branches
}

// resolve maps the constants of pats to dictionary ids and their
// variables to solution slots.
func (ev *evaluator) resolve(pats []Pattern) []idPattern {
	out := make([]idPattern, len(pats))
	for i, p := range pats {
		out[i] = idPattern{pat: p, slot: [3]int{-1, -1, -1}, resolved: true}
		for j, term := range [3]Term{p.S, p.P, p.O} {
			if term.Kind != Const {
				out[i].slot[j] = ev.slotOf(term.Name)
				continue
			}
			if id, ok := ev.dict.Lookup(term.RDF); ok {
				out[i].ids[j] = id
			} else {
				out[i].resolved = false
			}
		}
	}
	return out
}

// joinOrder is a branch's patterns in the order the plan joins them,
// rendered ("p1 ; p2 ; …") only if the trace that carries it is printed.
type joinOrder struct {
	pats  []idPattern
	order []int
}

func (o joinOrder) String() string {
	var b strings.Builder
	for si, pi := range o.order {
		if si > 0 {
			b.WriteString(" ; ")
		}
		b.WriteString(o.pats[pi].pat.String())
	}
	return b.String()
}

// runBranch evaluates one union branch.
func (ev *evaluator) runBranch(pats []idPattern, optionals [][]idPattern) error {
	var br *obs.Span
	if ev.tr != nil {
		br = ev.tr.Child("branch")
		defer br.Finish()
	}
	for i := range pats {
		if !pats[i].resolved {
			// Some constant unknown: the branch has no solutions.
			br.Set("unresolvable", &pats[i].pat)
			return nil
		}
	}
	// Plan: a memoized join order for this shape and branch when the plan
	// cache holds one built under the current statistics epoch, otherwise
	// cost-based join ordering (with statistics) or the greedy
	// most-bound-first heuristic (without).
	branch := ev.branchIdx
	ev.branchIdx++
	var order []int
	var hints []stepHint
	planCacheAttr := ""
	if ev.plans != nil && ev.shape != "" {
		var ok bool
		order, hints, ok = ev.plans.get(ev.shape, branch, len(pats), ev.pl.statsEpoch.Load())
		if ok {
			ev.pl.planHits.Add(1)
			planCacheAttr = "hit"
		} else {
			ev.pl.planMisses.Add(1)
			planCacheAttr = "miss"
		}
	}
	if order == nil {
		if ev.sum != nil {
			order, hints = planOrderJoin(ev.sum, pats, nil)
		} else {
			order = planOrder(ev.eng, pats, nil)
		}
		if planCacheAttr == "miss" {
			ev.plans.put(ev.shape, branch, len(pats), ev.pl.statsEpoch.Load(), order, hints)
		}
	}
	ev.batch.stepHints = hints
	ev.batch.exist = ev.existentials(pats)

	// Record the chosen plan — pattern order plus the per-step
	// cardinality estimates the planner saw — and hand the branch span to
	// the batch engine so each step gets its own child with actuals.
	var ests []float64
	if br != nil {
		ests = ev.estimateSteps(pats, order)
		plan := br.Child("plan")
		planner := "greedy"
		if ev.sum != nil {
			planner = "cost"
		}
		plan.Set("planner", planner)
		if planCacheAttr != "" {
			plan.Set("planCache", planCacheAttr)
		}
		plan.Set("order", joinOrder{pats, order})
		plan.Finish()
		ev.batch.branchSp = br
		ev.batch.stepEsts = ests
		defer func() { ev.batch.branchSp, ev.batch.stepEsts = nil, nil }()
	}

	// Stage filters: filter k runs at the earliest step after which all
	// its variables are bound; filters mentioning optional (or absent)
	// variables wait until emit time.
	branchVars := map[string]bool{}
	for i := range pats {
		for _, v := range pats[i].pat.Vars() {
			branchVars[v] = true
		}
	}
	stepFilters := make([][]*cfilter, len(order)+1)
	var lateFilters []*cfilter
	for fi := range ev.filters {
		f := &ev.filters[fi]
		step, late := 0, false
		for _, v := range f.Vars() {
			if !branchVars[v] {
				late = true
				break
			}
			for si, pi := range order {
				has := false
				for _, pv := range pats[pi].pat.Vars() {
					if pv == v {
						has = true
						break
					}
				}
				if has && si+1 > step {
					step = si + 1
					break
				}
			}
		}
		if late {
			lateFilters = append(lateFilters, f)
		} else {
			stepFilters[step] = append(stepFilters[step], f)
		}
	}
	if ev.q.Explain == ExplainPlan {
		// EXPLAIN without ANALYZE: emit the plan's step spans with the
		// estimates and the forms planning chose; no join step runs.
		plan := ev.batch.planBranch(pats, order, stepFilters, optionals, lateFilters)
		for k := range plan.steps {
			plan.steps[k].openSpan(br).Finish()
		}
		return nil
	}

	// Join the required patterns with the columnar batch engine; rows
	// that survive are materialized (or extended by OPTIONAL groups)
	// from the binding table.
	return ev.batch.runBatch(pats, order, stepFilters, optionals, lateFilters)
}

// runOptionals extends the current solution with optional group g
// onward, then emits. An optional group that matches produces one
// solution per match; a group that does not match leaves its variables
// unbound.
func (ev *evaluator) runOptionals(optionals [][]idPattern, g int, lateFilters []*cfilter) error {
	if ev.done {
		return nil
	}
	if g == len(optionals) {
		return ev.emit(lateFilters)
	}
	group := optionals[g]
	resolved := true
	for i := range group {
		if !group[i].resolved {
			resolved = false
			break
		}
	}
	matched := false
	if resolved {
		var matchGroup func(i int) error
		matchGroup = func(i int) error {
			if ev.done {
				return nil
			}
			if i == len(group) {
				matched = true
				return ev.runOptionals(optionals, g+1, lateFilters)
			}
			p := &group[i]
			s, sVar := ev.resolvePos(p, 0)
			pr, pVar := ev.resolvePos(p, 1)
			o, oVar := ev.resolvePos(p, 2)
			var walkErr error
			merr := ev.src.Match(s, pr, o, func(ms, mp, mo core.ID) bool {
				if !ev.tickOK() {
					return false
				}
				if sVar >= 0 {
					ev.cur[sVar] = ms
				}
				if pVar >= 0 {
					if pVar == sVar && mp != ms {
						return true
					}
					ev.cur[pVar] = mp
				}
				if oVar >= 0 {
					if (oVar == sVar && mo != ms) || (oVar == pVar && mo != mp) {
						return true
					}
					ev.cur[oVar] = mo
				}
				walkErr = matchGroup(i + 1)
				return walkErr == nil && !ev.done
			})
			for _, v := range [3]int{sVar, pVar, oVar} {
				if v >= 0 {
					ev.cur[v] = core.None
				}
			}
			if walkErr != nil {
				return walkErr
			}
			if ev.ctxErr != nil {
				return ev.ctxErr
			}
			return merr
		}
		if err := matchGroup(0); err != nil {
			return err
		}
	}
	if !matched {
		// No extension: keep going with the group's variables unbound.
		return ev.runOptionals(optionals, g+1, lateFilters)
	}
	return nil
}

// emit turns the current solution (ev.cur) into a result row — the one
// place rows are made, whichever path bound the solution: the batch
// engine's table rows or the OPTIONAL matcher. Late filters and DISTINCT
// are decided on ids, an ORDER BY … LIMIT candidate that cannot make the
// cut is dropped on its keys alone, and a kept row is its ids: terms are
// decoded when the result is read.
func (ev *evaluator) emit(lateFilters []*cfilter) error {
	cur := ev.cur
	for _, f := range lateFilters {
		ok, err := ev.terms.filterPass(f, f.l.id(cur), f.r.id(cur))
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
	}
	if ev.aggMode {
		return ev.fold()
	}
	if ev.distinct != nil {
		key := ev.tuple[:0]
		for _, s := range ev.projSlots {
			key = append(key, cur[s]) // unbound: None
		}
		ev.tuple = key
		before := ev.distinct.size()
		if _, added := ev.distinct.insert(key); !added {
			return nil
		}
		if err := ev.retain(ev.distinct.size() - before); err != nil {
			return err
		}
	}

	res := ev.res
	row := res.n // where the row goes: appended, unless it displaces the heap's root
	if nk := len(ev.orderSlots); nk > 0 {
		keys := ev.keyScratch[:0]
		for _, s := range ev.orderSlots {
			k, err := ev.terms.keyOf(cur[s])
			if err != nil {
				return err
			}
			keys = append(keys, k)
		}
		ev.keyScratch = keys
		seq := ev.seq
		ev.seq++
		if ev.topK > 0 && res.n == ev.topK {
			if ev.heap == nil {
				ev.heapify()
			}
			// The candidate is the latest row, so on equal keys it sorts
			// after the root and is dropped.
			row = ev.heap[0]
			if ev.compareRowKeys(keys, ev.rowKeys(row)) >= 0 {
				return nil
			}
			copy(ev.rowKeys(row), keys)
			ev.orderSeq[row] = seq
		} else {
			ev.orderKeys = append(ev.orderKeys, keys...)
			ev.orderSeq = append(ev.orderSeq, seq)
		}
	}
	nc := len(ev.projSlots)
	if row == res.n {
		if err := ev.retain(ev.rowBytes); err != nil {
			return err
		}
		res.ids = slices.Grow(res.ids, nc)[:len(res.ids)+nc]
		res.n++
	}
	dst := res.ids[row*nc : (row+1)*nc]
	for i, s := range ev.projSlots {
		id := cur[s]
		if id == core.None && !ev.projOpt[i] {
			return errUnbound(ev.vars[i])
		}
		dst[i] = id
	}
	if ev.heap != nil {
		ev.siftDown(0)
	}
	if ev.target > 0 && res.n >= ev.target {
		ev.done = true
	}
	return nil
}

// errUnbound is the error of a projected variable that no pattern of the
// branch binds and no OPTIONAL group may bind.
func errUnbound(name string) error {
	return fmt.Errorf("sparql: internal: variable ?%s unbound at solution", name)
}

// keepsEveryRow reports whether every solution that reaches emit with
// its late filters passed becomes a result row: nothing folds, dedups or
// competes for a bounded number of places.
func (ev *evaluator) keepsEveryRow() bool {
	return !ev.aggMode && ev.distinct == nil && ev.topK == 0
}

// retain notes n bytes a kept row or key holds. The meter hears of them
// once a piece's worth has gathered, and at the end of each piece
// (flushRetained): a piece has at most chunkRows rows, but the OPTIONAL
// matcher can make any number of result rows from each of them.
func (ev *evaluator) retain(n int64) error {
	ev.grown += n
	if ev.grown < int64(chunkRows)*ev.rowBytes {
		return nil
	}
	return ev.flushRetained()
}

// flushRetained charges the meter with what was retained since its last
// update.
func (ev *evaluator) flushRetained() error {
	grown := ev.grown
	ev.grown = 0
	return ev.mem.Grow(grown)
}

// fold accumulates the current solution into its GROUP BY bucket, found
// by the tuple of its group ids. A new bucket is charged what it holds:
// its tuple and slots in the table, its counts and the result row it
// becomes; a new COUNT(DISTINCT) pair, what its table grew by.
func (ev *evaluator) fold() error {
	cur := ev.cur
	key := ev.tuple[:0]
	for _, s := range ev.groupSlots {
		key = append(key, cur[s]) // unbound: None
	}
	ev.tuple = key
	na := len(ev.aggSlots)
	before := ev.groups.size()
	g, added := ev.groups.insert(key)
	if added {
		ev.groupCounts = append(ev.groupCounts, make([]int, na)...)
		if err := ev.retain(ev.groups.size() - before + int64(na)*8 + ev.rowBytes); err != nil {
			return err
		}
	}
	for i, s := range ev.aggSlots {
		switch {
		case s < 0: // COUNT(*)
			ev.groupCounts[g*na+i]++
		case cur[s] == core.None:
			// COUNT skips unbound (optional) values, as in SPARQL.
		case ev.seen[i] != nil: // COUNT(DISTINCT)
			t := ev.seen[i]
			pair := [2]core.ID{core.ID(g), cur[s]}
			before := t.size()
			if _, added := t.insert(pair[:]); added {
				ev.groupCounts[g*na+i]++
				if err := ev.retain(t.size() - before); err != nil {
					return err
				}
			}
		default:
			ev.groupCounts[g*na+i]++
		}
	}
	return nil
}

// materializeGroups turns the GROUP BY buckets into result rows, in
// group-key order (id by id) for determinism when no ORDER BY is given.
// Group columns are the bucket's ids; an aggregate's count is a computed
// term, one per distinct count. ORDER BY variables are output columns
// here (group keys or aggregate aliases), so each row's sort keys come
// from its own cells.
func (ev *evaluator) materializeGroups() error {
	q := ev.q
	na := len(ev.aggSlots)
	ev.seen = nil
	// Column c < len(q.Vars) shows GROUP BY variable groupCol[c] (-1: the
	// variable is not grouped on, so it is unbound in every row).
	groupCol := make([]int, len(q.Vars))
	for c, name := range q.Vars {
		groupCol[c] = slices.Index(q.GroupBy, name)
	}
	orderCol := make([]int, len(q.OrderBy))
	for i, k := range q.OrderBy {
		orderCol[i] = slices.Index(ev.vars, k.Var)
	}
	res := ev.res
	counts := map[int]core.ID{} // a count's computed cell
	var countKeys []sortKey     // a computed cell's sort key
	res.ids = make([]core.ID, 0, ev.groups.n*len(ev.vars))
	for _, g := range ev.groups.sorted() {
		base := len(res.ids)
		tuple := ev.groups.tuple(g)
		for _, gi := range groupCol {
			id := core.None
			if gi >= 0 {
				id = tuple[gi]
			}
			res.ids = append(res.ids, id)
		}
		for _, n := range ev.groupCounts[g*na : (g+1)*na] {
			id, ok := counts[n]
			if !ok {
				id = computedID | core.ID(len(res.computed))
				counts[n] = id
				lit := rdf.NewLiteral(strconv.Itoa(n))
				res.computed = append(res.computed, lit.Key())
				if len(orderCol) > 0 {
					countKeys = append(countKeys, newSortKey(lit))
				}
			}
			res.ids = append(res.ids, id)
		}
		for _, c := range orderCol {
			var k sortKey
			var err error
			switch {
			case c < 0:
			case res.ids[base+c]&computedID != 0:
				k = countKeys[res.ids[base+c]&^computedID]
			default:
				k, err = ev.terms.keyOf(res.ids[base+c])
			}
			if err != nil {
				return err
			}
			ev.orderKeys = append(ev.orderKeys, k)
		}
		if len(orderCol) > 0 {
			ev.orderSeq = append(ev.orderSeq, res.n)
		}
		res.n++
	}
	return nil
}

// filterOp is a FILTER comparison operator.
type filterOp uint8

const (
	opEq filterOp = iota
	opNe
	opLt
	opLe
	opGt
	opGe
)

var filterOps = map[string]filterOp{"=": opEq, "!=": opNe, "<": opLt, "<=": opLe, ">": opGt, ">=": opGe}

// operand is one side of a compiled FILTER: a variable's solution slot,
// or a constant with its comparison key prepared once per query.
type operand struct {
	slot int     // -1 for a constant
	name string  // the variable
	key  sortKey // the constant
}

// id returns the operand's id in solution cur (None for a constant or an
// unbound variable).
func (o *operand) id(cur []core.ID) core.ID {
	if o.slot < 0 {
		return core.None
	}
	return cur[o.slot]
}

// cfilter is a FILTER compiled for per-row evaluation.
type cfilter struct {
	Filter
	op   filterOp
	l, r operand
}

// compileFilters prepares the query's filters once: operator decoded,
// variables resolved to slots, constants parsed.
func (ev *evaluator) compileFilters() error {
	compile := func(t Term) operand {
		if t.Kind == Const {
			return operand{slot: -1, key: newSortKey(t.RDF)}
		}
		return operand{slot: ev.slotOf(t.Name), name: t.Name}
	}
	ev.filters = make([]cfilter, len(ev.q.Filters))
	for i, f := range ev.q.Filters {
		op, ok := filterOps[f.Op]
		if !ok {
			return fmt.Errorf("sparql: unknown filter operator %q", f.Op)
		}
		ev.filters[i] = cfilter{Filter: f, op: op, l: compile(f.Left), r: compile(f.Right)}
	}
	return nil
}

// filterPass evaluates f for one solution, given the ids of its variable
// operands (ignored for constants). A filter whose variable is unbound
// (possible only for optional variables) fails. Equality compares whole
// terms — for two variables, their ids; ordering compares numerically
// when both operands are numeric, lexicographically on the term value
// otherwise.
func (tr *termReader) filterPass(f *cfilter, lid, rid core.ID) (bool, error) {
	lvar, rvar := f.l.slot >= 0, f.r.slot >= 0
	if (lvar && lid == core.None) || (rvar && rid == core.None) {
		return false, nil
	}
	if lvar && rvar && f.op <= opNe {
		return (lid == rid) == (f.op == opEq), nil
	}
	left, right := f.l.key, f.r.key
	var err error
	if lvar {
		if left, err = tr.keyOf(lid); err != nil {
			return false, err
		}
	}
	if rvar {
		if right, err = tr.keyOf(rid); err != nil {
			return false, err
		}
	}
	var cmp int
	switch {
	case f.op <= opNe:
		return (left.term == right.term) == (f.op == opEq), nil
	case left.num.ok && right.num.ok:
		cmp = compareFloats(left.num.f, right.num.f)
	default:
		cmp = strings.Compare(left.term.Value, right.term.Value)
	}
	switch f.op {
	case opLt:
		return cmp < 0, nil
	case opLe:
		return cmp <= 0, nil
	case opGt:
		return cmp > 0, nil
	default:
		return cmp >= 0, nil
	}
}

// applyModifiers sorts, offsets and limits the collected rows.
func (ev *evaluator) applyModifiers() {
	if len(ev.q.OrderBy) > 0 {
		ev.sortRows()
		return
	}
	// Trim in place, so the id array's capacity stays the whole of what
	// the result retains — and a capacity that growth left more than
	// twice the ids kept is given back.
	res := ev.res
	lo, hi := window(res.n, ev.q.Offset, ev.q.Limit)
	nc := len(res.Vars)
	res.ids = res.ids[:copy(res.ids, res.ids[lo*nc:hi*nc])]
	res.n = hi - lo
	if cap(res.ids) > 2*len(res.ids) {
		res.ids = slices.Clone(res.ids)
	}
}

// resolvePos returns the id to use for position j of an OPTIONAL pattern
// (a constant id, a bound variable's id, or None) and the slot to bind
// if the position is an unbound variable (-1 otherwise).
func (ev *evaluator) resolvePos(p *idPattern, j int) (core.ID, int) {
	s := p.slot[j]
	if s < 0 {
		return p.ids[j], -1
	}
	if id := ev.cur[s]; id != core.None {
		return id, -1
	}
	return core.None, s
}

// estimateSteps prices each step of the chosen order for the trace,
// simulating the evolving join: with statistics, the cost model's
// estimated intermediate cardinality after each step (directly
// comparable to the step's rowsOut actual in EXPLAIN ANALYZE); without,
// the engine's index cardinality (core.Store.PatternCardinality under
// the hood); -1 when the backend answers neither without a scan. A
// semijoin step only keeps or drops rows, so its estimate never exceeds
// the step before's.
func (ev *evaluator) estimateSteps(pats []idPattern, order []int) []float64 {
	ests := make([]float64, len(order))
	if ev.sum != nil {
		js := newJoinState(ev.sum, nil)
		var vars []string
		for si, pi := range order {
			before := js.card
			js.advance(&pats[pi])
			if len(ev.batch.exist) > 0 {
				if sp := classify(&pats[pi], vars); isSemi(&sp, ev.batch.exist) {
					js.card = min(js.card, before)
				} else {
					vars = append(vars, sp.newNames...)
				}
			}
			ests[si] = js.card
		}
		return ests
	}
	for si, pi := range order {
		p := &pats[pi]
		if ev.eng == nil {
			ests[si] = -1
			continue
		}
		var qp query.Pattern
		if p.pat.S.Kind == Const {
			qp.S = p.ids[0]
		}
		if p.pat.P.Kind == Const {
			qp.P = p.ids[1]
		}
		if p.pat.O.Kind == Const {
			qp.O = p.ids[2]
		}
		ests[si] = float64(ev.eng.Selectivity(qp))
	}
	return ests
}

// planOrder returns the pattern evaluation order: greedy most-bound-
// first with selectivity tie-breaking. preBound names variables already
// bound before the first step (used when planning optional groups).
func planOrder(eng *query.Engine, pats []idPattern, preBound map[string]bool) []int {
	n := len(pats)
	chosen := make([]int, 0, n)
	used := make([]bool, n)
	bound := map[string]bool{}
	for v := range preBound {
		bound[v] = true
	}

	// Static selectivity with only constants bound, priced once per
	// pattern — it does not depend on the evolving bound set. A nil
	// engine (generic Source) prices every pattern equally, so ordering
	// falls back to the pure most-bound-first heuristic.
	constSel := make([]int, n)
	if eng != nil {
		for i := range pats {
			var qp query.Pattern
			if pats[i].pat.S.Kind == Const {
				qp.S = pats[i].ids[0]
			}
			if pats[i].pat.P.Kind == Const {
				qp.P = pats[i].ids[1]
			}
			if pats[i].pat.O.Kind == Const {
				qp.O = pats[i].ids[2]
			}
			constSel[i] = eng.Selectivity(qp)
		}
	}

	for len(chosen) < n {
		best, bestBound, bestSel := -1, -1, 0
		for i := range pats {
			if used[i] {
				continue
			}
			nb := 0
			for j := 0; j < 3; j++ {
				t := pats[i].term(j)
				if t.Kind == Const || bound[t.Name] {
					nb++
				}
			}
			sel := constSel[i]
			if nb > bestBound || (nb == bestBound && sel < bestSel) {
				best, bestBound, bestSel = i, nb, sel
			}
		}
		used[best] = true
		chosen = append(chosen, best)
		for _, name := range pats[best].pat.Vars() {
			bound[name] = true
		}
	}
	return chosen
}
