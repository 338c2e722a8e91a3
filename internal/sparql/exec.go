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
	"hexastore/internal/idlist"
	"hexastore/internal/obs"
	"hexastore/internal/rdf"
)

// idPattern is a pattern with its constant positions resolved to
// dictionary ids. resolved is false when some constant is not in the
// dictionary at all (the pattern cannot match anything).
type idPattern struct {
	pat      Pattern
	ids      [3]core.ID
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
	return EvalOpts(ctx, g, q, EvalOptions{})
}

// EvalOpts is the fully governed evaluation entry point: ctx carries
// cancellation and deadlines, opt carries the worker budget and the
// memory limit (see EvalOptions).
//
// Planning: each UNION clause multiplies the query into branches (the
// standard BGP rewriting); within a branch, required patterns are
// ordered by the cost model, priced from the counts of the pinned
// snapshot — connected patterns first, then the smallest estimated join,
// then the one with the most positions bound, then text order (see
// planOrderJoin). A Planner orders the same way and adds the plan and
// result caches. FILTERs run at the earliest step where their variables
// are bound. Each OPTIONAL group is a left-outer step after the required
// patterns (batch.go); a FILTER reading a variable only a group binds,
// or none, runs last.
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
// package-level ones (no caches). The result is columnar only: Rows is
// left nil.
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
		rkey     []byte
		keyBuf   [512]byte // rkey on the stack: get and put never keep the key
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
				rkey = appendResultKey(keyBuf[:0], shape, outVars, consts)
				if res, ok := results.get(rkey, epoch, g.Dictionary(), outVars); ok {
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

	ev := &evaluator{
		src:     g,
		dict:    g.Dictionary(),
		q:       q,
		pl:      pl,
		plans:   plans,
		shape:   shape,
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
		size := recordBytes(rkey, res)
		if ev.mem.Grow(size) == nil {
			defer ev.mem.Shrink(size)
			results.put(rkey, epoch, ev.dict, res)
		}
	}
	return res, err
}

type evaluator struct {
	src  graph.Graph
	dict *dictionary.Dictionary
	q    *Query

	// cost prices this evaluation's plans from src; made on first use
	// (costs), so a plan-cache hit reads no count.
	cost *costSource

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
	// planning and emission (see parallel.go).
	cancelTick

	// mem accounts what the query holds (nil: unlimited). rowBytes is the
	// accounted estimate of one materialized result row, and grown what
	// the rows emitted since the meter was last updated retain (retain).
	mem      *govern.Meter
	rowBytes int64
	grown    int64

	vars []string

	// optionals holds the OPTIONAL groups, resolved once for every branch.
	optionals [][]idPattern

	// reads holds the variables the query reads besides joining on them,
	// when its answer is a set; nil when it is not (see setReads).
	reads map[string]bool

	// Every variable a pattern or the output reads is numbered once, in
	// run: slots maps a name to its slot and cur holds the solution being
	// emitted, by slot, with core.None for "unbound". The projection,
	// GROUP BY, aggregates and ORDER BY carry slots resolved up front, so
	// no per-row or per-cell work looks a name up.
	slots      map[string]int
	cur        []core.ID
	projSlots  []int // per output column of a non-aggregate query
	orderSlots []int // per ORDER BY key of a non-aggregate query
	groupSlots []int // per GROUP BY variable
	aggSlots   []int // per aggregate; -1 for COUNT(*)
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

	// terms decodes ids for ORDER BY keys (order.go); its snapshot's term
	// table is what the result keeps.
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
	ev.batch.sorted = graph.SortedOf(ev.src)
	ev.batch.keys, _ = ev.batch.sorted.(graph.KeySource)
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
		ev.projSlots = ev.slotsOf(ev.vars)
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

	for _, group := range q.Optionals {
		ev.optionals = append(ev.optionals, ev.resolve(group))
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
		if err := ev.runBranch(pats); err != nil {
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
	// Freeze the term table the result decodes through: every id the
	// answer holds was assigned by now.
	ev.res.terms = ev.terms.snap.View()
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

// resolve maps the constants of pats to dictionary ids and numbers
// their variables.
func (ev *evaluator) resolve(pats []Pattern) []idPattern {
	out := make([]idPattern, len(pats))
	for i, p := range pats {
		out[i] = idPattern{pat: p, resolved: true}
		for j, term := range [3]Term{p.S, p.P, p.O} {
			if term.Kind != Const {
				ev.slotOf(term.Name)
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
func (ev *evaluator) runBranch(pats []idPattern) error {
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
	// cache holds one priced at about the snapshot's size, otherwise
	// cost-based join ordering. A memoized plan keeps the per-step
	// estimates it was priced with, so a traced hit (every query, while
	// the server's slow-query log is on) reads no count from the store.
	branch := ev.branchIdx
	ev.branchIdx++
	ev.batch.exist = ev.existentials(pats)
	var order []int
	var hints []stepHint
	var ests []float64
	planCacheAttr := ""
	if ev.plans != nil && ev.shape != "" {
		var ok bool
		order, hints, ests, ok = ev.plans.get(ev.shape, branch, len(pats), ev.src.Len())
		if ok {
			ev.pl.planHits.Add(1)
			planCacheAttr = "hit"
		} else {
			ev.pl.planMisses.Add(1)
			planCacheAttr = "miss"
		}
	}
	if order == nil {
		var err error
		if order, hints, err = planOrderJoin(ev.costs(), pats); err != nil {
			return err
		}
		if planCacheAttr == "miss" || br != nil {
			if ests, err = ev.estimateSteps(pats, order); err != nil {
				return err
			}
		}
		if planCacheAttr == "miss" {
			ev.plans.put(ev.shape, branch, len(pats), ev.cost.n, order, hints, ests)
		}
	}
	ev.batch.stepHints = hints

	// Record the chosen plan — pattern order plus the per-step
	// cardinality estimates the planner saw — and hand the branch span to
	// the batch engine so each step gets its own child with actuals.
	if br != nil {
		plan := br.Child("plan")
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
	// its variables are bound; one that reads a variable no required
	// pattern binds, after the OPTIONAL groups (stepFilters[len(order)+1]).
	stepFilters := make([][]*cfilter, len(order)+2)
	for fi := range ev.filters {
		f, step := &ev.filters[fi], 0
		for _, v := range f.Vars() {
			at := slices.IndexFunc(order, func(pi int) bool { return slices.Contains(pats[pi].pat.Vars(), v) })
			if at < 0 {
				at = len(order)
			}
			step = max(step, at+1)
		}
		stepFilters[step] = append(stepFilters[step], f)
	}
	if ev.q.Explain == ExplainPlan {
		// EXPLAIN without ANALYZE: emit the plan's step spans with the
		// estimates and the forms planning chose; no join step runs.
		plan := ev.batch.planBranch(pats, order, stepFilters)
		for k := range plan.steps {
			if !plan.steps[k].closes {
				plan.steps[k].openSpan(br).Finish()
			}
		}
		return nil
	}

	// Join the required patterns and the OPTIONAL groups with the
	// columnar batch engine; rows that survive are materialized from the
	// binding table.
	return ev.batch.runBatch(pats, order, stepFilters)
}

// emit turns the current solution (ev.cur), a complete one, into a
// result row — the one place rows are made one at a time. DISTINCT is
// decided on ids, an ORDER BY … LIMIT candidate that cannot make the cut
// is dropped on its keys alone, and a kept row is its ids: terms are
// decoded when the result is read.
func (ev *evaluator) emit() error {
	cur := ev.cur
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
		dst[i] = cur[s] // unbound: None
	}
	if ev.heap != nil {
		ev.siftDown(0)
	}
	if ev.target > 0 && res.n >= ev.target {
		ev.done = true
	}
	return nil
}

// retain notes n bytes a kept row or key holds. The meter hears of them
// once a piece's worth of rows has gathered, and at the end of each
// piece (flushRetained).
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
	g, err := ev.bucket(key)
	if err != nil {
		return err
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

// bucket returns the number of the GROUP BY bucket of key, making it —
// and charging what it holds — when key is new.
func (ev *evaluator) bucket(key []core.ID) (int, error) {
	before := ev.groups.size()
	g, added := ev.groups.insert(key)
	if added {
		ev.groupCounts = append(ev.groupCounts, make([]int, len(ev.aggSlots))...)
		if err := ev.retain(ev.groups.size() - before + int64(len(ev.aggSlots))*8 + ev.rowBytes); err != nil {
			return g, err
		}
	}
	return g, nil
}

// groupWalk is a branch the group walk answers (walkGroups), as
// planGroupWalk found it: the seed pattern pats[seed] — one constant, the
// group variable ?g and one other variable ?x — with the cursor over the
// vector its constant heads, keyed by ?g, whose lists hold ?x; and the
// branch's other patterns, every one a semijoin on ?x or on ?g.
type groupWalk struct {
	seed  int
	cur   idlist.KeyCursor
	semis []groupSemi
}

// groupSemi is one semijoin of a group walk: pattern pats[pat], a cursor
// over the keys of the vector its constant heads — the values of ?x, or
// of ?g where onKey, that have a match — and the bitset of those keys.
type groupSemi struct {
	pat   int
	onKey bool
	cur   idlist.KeyCursor
	bits  idBits
}

// semiKeysPerRow bounds the semijoin vectors a group walk takes: at most
// this many keys per value of the seed vector (its total list length).
// The walk marks every key of the vector in a bitset and then walks the
// seed values; the join pipeline runs each seed row through a semijoin
// probe instead. On a 2-core x86-64 host (BenchmarkSemijoinCrossover,
// DISTINCT and COUNT(DISTINCT) under one semijoin, seeds at random
// subjects) the walk costs some 4 ns a key on top of 25–60 ns a seed
// value, and the pipeline 120–170 ns a seed row: the walk costs
// ×0.5–0.9 of the pipeline at 12–24 keys a row, the two tie at 32, and
// the walk costs ×1.1–1.9 at 48–64. The bound sits at that crossover,
// and keeps a rare seed from building a bitset over every subject. (A
// server's pipeline row also pays for its collection, so its crossover
// is no lower.) It is a variable so that the benchmark can move it.
var semiKeysPerRow = 32

// planGroupWalk reports whether the group walk answers the branch pats,
// and opens its cursors if so. It reads the branch's patterns and its
// existentials, not the plan's order: the query has no UNION, OPTIONAL or
// FILTER; it groups on one variable ?g only, with the counts
// rowCounts accepts, or is a DISTINCT projecting ?g alone and sorting
// on nothing else; one pattern, the seed, has one constant, ?g and
// another variable ?x, and every other pattern has one constant, one
// existential and ?x or ?g — the first pattern that makes the others so
// is the seed; the backend has key cursors; and no semijoin's vector has
// more than semiKeysPerRow keys per seed value.
func (ev *evaluator) planGroupWalk(pats []idPattern) (*groupWalk, bool) {
	q, keys := ev.q, ev.batch.keys
	if keys == nil || len(q.Unions)+len(q.Optionals)+len(q.Filters) > 0 {
		return nil, false
	}
	var g string
	switch {
	case ev.aggMode && len(q.GroupBy) == 1:
		g = q.GroupBy[0]
	case !ev.aggMode && q.Distinct && !q.Ask && len(ev.vars) == 1:
		g = ev.vars[0]
		for _, k := range q.OrderBy {
			if k.Var != g {
				return nil, false
			}
		}
	default:
		return nil, false
	}
seeds:
	for si := range pats {
		head, a, b, ok := pairShape(&pats[si])
		if ok && pats[si].term(b).Name == g {
			a, b = b, a
		}
		if !ok || pats[si].term(a).Name != g {
			continue
		}
		x := pats[si].term(b).Name
		if ev.aggMode && !rowCounts(q.Aggregates, g, x) {
			continue
		}
		gw := &groupWalk{seed: si}
		for i := range pats {
			if i == si {
				continue
			}
			h, e, on, ok := pairShape(&pats[i])
			if ok && !ev.batch.exist[pats[i].term(e).Name] {
				e, on = on, e
			}
			name := pats[i].term(on).Name
			if !ok || !ev.batch.exist[pats[i].term(e).Name] || (name != x && name != g) {
				continue seeds
			}
			gw.semis = append(gw.semis, groupSemi{pat: i, onKey: name == g, cur: keys.KeyCursor(h, on, pats[i].ids[h])})
		}
		gw.cur = keys.KeyCursor(head, a, pats[si].ids[head])
		for i := range gw.semis {
			if gw.semis[i].cur.Len() > semiKeysPerRow*gw.cur.Total() {
				return nil, false
			}
		}
		return gw, true
	}
	return nil, false
}

// pairShape returns the position of p's one constant and of its two
// variables, ok=false unless p has one constant and two distinct
// variables.
func pairShape(p *idPattern) (head, a, b int, ok bool) {
	head, a = -1, -1
	for j := 0; j < 3; j++ {
		switch {
		case p.term(j).Kind == Const:
			if head >= 0 {
				return 0, 0, 0, false
			}
			head = j
		case a < 0:
			a = j
		default:
			b = j
		}
	}
	return head, a, b, head >= 0 && p.term(a).Name != p.term(b).Name
}

// rowCounts reports whether every aggregate is one a group's number of
// rows answers, grouped on g over rows of distinct (g, x) pairs:
// COUNT(*), COUNT(?x) or COUNT(DISTINCT ?x), or COUNT(?g).
func rowCounts(aggs []Aggregate, g, x string) bool {
	for _, a := range aggs {
		if a.Var != "" && a.Var != x && (a.Var != g || a.Distinct) {
			return false
		}
	}
	return true
}

// walkGroups answers branch br by the group walk, a group at a time as
// the paper's BQ1–BQ4 plans do: the seed's key cursor walks the vector
// its constant heads, each entry one group ?g whose list holds its ?x
// values — distinct, since a store holds each triple once. A semijoin is
// a bitset of its vector's keys, one bit per dictionary id, built by one
// pass of header reads: a semijoin on ?g drops a group whose key it
// lacks, one on ?x each list value it lacks. A group keeps the values
// every semijoin has; a count is how many it keeps, so without a
// semijoin on ?x its list length, and a DISTINCT stops at the first. The
// groups are made as fold makes them, so materializeGroups turns them
// into the same rows; DISTINCT rows go through emit — in key order, each
// once, so with no id table — and LIMIT, OFFSET and ORDER BY apply as on
// any row.
func (ev *evaluator) walkGroups(br *branchRun, pats []idPattern, order []int, gw *groupWalk) error {
	bx := &ev.batch
	var sp *obs.Span
	if br.span != nil {
		est := func(pi int) int64 { return int64(bx.stepEsts[slices.Index(order, pi)]) }
		sp = br.span.ChildOf("step", &pats[gw.seed].pat)
		sp.SetInt("estRows", est(gw.seed))
		sp.Set("kind", "group-keys")
		defer sp.Finish()
		for i := range gw.semis {
			s := &gw.semis[i]
			c := sp.ChildOf("step", &pats[s.pat].pat)
			c.SetInt("estRows", est(s.pat))
			c.Set("kind", "semi-bitset")
			c.SetInt("keys", int64(s.cur.Len()))
			defer c.Finish()
		}
	}
	// Dictionary ids run from 1 to Len; the bitsets are held until the
	// branch ends.
	words := (ev.dict.Len() + 64) / 64
	n := words * len(gw.semis)
	if err := bx.hold(int64(n) * 8); err != nil {
		return err
	}
	bx.bits = slices.Grow(bx.bits[:0], n)[:n]
	clear(bx.bits)
	onX := false
	for i := range gw.semis {
		s := &gw.semis[i]
		s.bits = bx.bits[i*words : (i+1)*words]
		for s.cur.MarkKeys(s.bits, chunkRows) > 0 {
			if err := ev.ctxCheck(); err != nil {
				return err
			}
		}
		onX = onX || !s.onKey
	}

	ev.distinct = nil // each key comes once
	na := len(ev.aggSlots)
	cur := &gw.cur
	var keys, rows int64
	for k, ok := cur.Next(); ok && !ev.done; k, ok = cur.Next() {
		if !ev.tickOK() {
			return ev.ctxErr
		}
		keys++
		if !gw.keeps(k) {
			continue
		}
		n := cur.ListLen()
		if onX {
			n = gw.kept(cur.View(), !ev.aggMode)
		}
		if n == 0 {
			continue
		}
		if !ev.aggMode {
			ev.cur[ev.projSlots[0]] = k
			if err := ev.emit(); err != nil {
				return err
			}
			rows++
			continue
		}
		ev.tuple = append(ev.tuple[:0], k)
		g, err := ev.bucket(ev.tuple)
		if err != nil {
			return err
		}
		for i := range na {
			ev.groupCounts[g*na+i] = n
		}
		rows += int64(n)
	}
	if sp != nil {
		sp.SetInt("keys", keys)
		sp.SetInt("rowsOut", rows)
	}
	return ev.flushRetained()
}

// keeps reports whether every semijoin on ?g has key k.
func (gw *groupWalk) keeps(k core.ID) bool {
	for i := range gw.semis {
		if s := &gw.semis[i]; s.onKey && !s.bits.has(k) {
			return false
		}
	}
	return true
}

// kept returns how many values of list v every semijoin on ?x has,
// stopping at the first if first.
func (gw *groupWalk) kept(v idlist.View, first bool) int {
	n := 0
	v.Range(func(x core.ID) bool {
		for i := range gw.semis {
			if s := &gw.semis[i]; !s.onKey && !s.bits.has(x) {
				return true
			}
		}
		n++
		return !first
	})
	return n
}

// idBits is a set of ids, bit id%64 of word id/64.
type idBits []uint64

func (b idBits) has(id core.ID) bool {
	w := id >> 6
	return w < core.ID(len(b)) && b[w]&(1<<(id&63)) != 0
}

// keyDistinct drops the pair table of every COUNT(DISTINCT ?x) whose
// pairs branch br already makes unique. The joined rows are distinct on
// the columns of the branch's table — the variables its steps bind; a
// semijoin's existential is not one. So in a query of one branch and no
// OPTIONAL whose GROUP BY keys and ?x cover every column, each (group,
// ?x) pair arrives at most once, and the aggregate counts rows. It reads
// the planned schema, not the pattern text: a variable that occurs once
// is still a column where the seed binds it.
func (ev *evaluator) keyDistinct(br *branchRun) {
	q := ev.q
	for i := range q.Aggregates {
		if ev.seen[i] == nil {
			continue
		}
		keyed := len(q.Unions) == 0 && len(q.Optionals) == 0
		for _, s := range br.colSlot {
			keyed = keyed && (s == ev.aggSlots[i] || slices.Contains(ev.groupSlots, s))
		}
		how := "table"
		if keyed {
			ev.seen[i], how = nil, "keyed"
		}
		if br.span != nil {
			sp := br.span.ChildOf("aggregate", &q.Aggregates[i])
			sp.Set("distinct", how)
			sp.Finish()
		}
	}
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
				res.computed = append(res.computed, lit)
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

// operand is one side of a compiled FILTER: a variable, or a constant
// with its comparison key prepared once per query.
type operand struct {
	name string  // the variable; "" for a constant
	key  sortKey // the constant
}

// cfilter is a FILTER compiled for per-row evaluation.
type cfilter struct {
	Filter
	op   filterOp
	l, r operand
}

// compileFilters prepares the query's filters once: operator decoded,
// constants parsed.
func (ev *evaluator) compileFilters() error {
	compile := func(t Term) operand {
		if t.Kind == Const {
			return operand{key: newSortKey(t.RDF)}
		}
		return operand{name: t.Name}
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
	lvar, rvar := f.l.name != "", f.r.name != ""
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

// estimateSteps prices each step of the chosen order for the trace,
// simulating the evolving join: the cost model's estimated intermediate
// cardinality after each step (directly comparable to the step's rowsOut
// actual in EXPLAIN ANALYZE). A semijoin step only keeps or drops rows,
// so its estimate never exceeds the step before's.
func (ev *evaluator) estimateSteps(pats []idPattern, order []int) ([]float64, error) {
	ests := make([]float64, len(order))
	js := newJoinState(ev.costs())
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
	return ests, ev.cost.err
}

// costs returns the evaluation's cost source, made on first use.
func (ev *evaluator) costs() *costSource {
	if ev.cost == nil {
		ev.cost = newCostSource(ev.src)
	}
	return ev.cost
}
