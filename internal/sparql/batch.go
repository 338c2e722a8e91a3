package sparql

// This file implements the vectorized batch execution engine under the
// SPARQL evaluator. A basic graph pattern is evaluated against a
// columnar binding table: one []core.ID column per variable, one join
// step per triple pattern.
//
// Each step is one of three shapes (paper §4.2 — every Hexastore vector
// and terminal list is sorted, so pairwise joins are linear
// merge-joins):
//
//   - merge/probe filter: the pattern binds no new variable. When the
//     pattern is one join column against two constants, its sorted
//     candidate list is merge-intersected against the column with
//     galloping (idlist.MergeFilter); otherwise each row is an existence
//     probe.
//   - expansion: the pattern binds new variables. Candidate values come
//     from the backend's sorted lists (graph.SortedSource) and are
//     appended to the output columns with bulk slice copies — a batched
//     bind join with no per-triple callback into the evaluator.
//   - fallback: backends without sorted-list access (the flat baseline
//     table) collect candidates through Match into reusable scratch
//     buffers; the table machinery is identical, only the fetch differs.
//
// The join is a pipeline over chunks. The steps up to the first one that
// binds a variable run once and leave the seed table, materialised in
// full (a probe made from inside a fetch callback would re-enter the
// disk store's read lock, so the seed is never streamed; the sealed
// memory store has no lock, but shares the path). The seed is then cut
// into chunks of chunkRows rows, and each chunk runs through the
// remaining steps, the staged FILTERs and emission before the next one
// starts: the binding table at any moment is one chunk and what it fans
// out to, not the whole intermediate result, its columns come from and
// return to the executor's free list, and LIMIT / ASK stop the loop
// between chunks. What a step fetches that does not depend on the row —
// a merge filter's candidate list, the shared list of a cross product, a
// constant pattern's existence — is fetched by the first chunk that
// reaches the step and kept for the branch (a disk backend pays a
// B+-tree scan for each). A table of at most one chunk is the
// one-iteration case of the same loop. See parallel.go for how chunks
// spread over workers.
//
// Rows stay dictionary-encoded IDs until final projection (late
// materialization): DISTINCT and GROUP BY key on fixed-width binary ID
// tuples and a term is decoded only for a cell that is kept.

import (
	"slices"
	"strings"
	"sync"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/idlist"
	"hexastore/internal/obs"
)

// chunkRows is how many seed rows one pass of the join pipeline carries.
// Large enough that per-chunk bookkeeping vanishes beside the row loops,
// small enough that a chunk and its fan-out stay in cache. It is a
// constant of the engine: only the chunk-boundary tests assign it.
var chunkRows = 1024

// batchTable is the columnar binding table: cols[i] holds the value of
// variable vars[i] for every row. n is the row count; the unit table (one
// row, no columns) is what a branch starts from, so seeding and cross
// products need no special casing. sorted[i] records that cols[i] is
// non-decreasing, which is what licenses the galloping merge in filter
// steps. vars and sorted belong to the branch's plan (the schema after a
// step is the same for every chunk); cols belongs to the executor.
type batchTable struct {
	vars   []string
	cols   [][]core.ID
	sorted []bool
	n      int
}

// compact keeps only the rows whose indices are listed in keep
// (ascending), preserving order — so sortedness flags survive.
func (t *batchTable) compact(keep []int) {
	for c, col := range t.cols {
		for w, r := range keep {
			col[w] = col[r]
		}
		t.cols[c] = col[:len(keep)]
	}
	t.n = len(keep)
}

// stepKind classifies each pattern position against the current table.
type stepKind uint8

const (
	posConst stepKind = iota // constant id (sp.ids[j])
	posCol                   // already-bound variable (column sp.colAt[j])
	posFree                  // new variable (output slot sp.slot[j])
)

// stepSpec is one pattern classified against the binding table's schema.
type stepSpec struct {
	kind [3]stepKind
	ids  [3]core.ID // constants; None at col/free positions — i.e. the fetch pattern before per-row substitution
	// colAt[j] is the table column substituted into position j per row.
	colAt [3]int
	// slot[j] is the output slot of a free position; positions sharing a
	// variable name share a slot, which encodes repeated-variable
	// equality (?x <p> ?x).
	slot     [3]int
	newNames []string // distinct new variable names, in position order
	nCols    int      // number of posCol positions
	nFree    int      // number of posFree positions (duplicates counted)
}

// stepPlan is one join step of a branch: its pattern classified once
// against the schema the steps before it leave, the FILTERs staged in
// front of it, and the part of its work that is the same for every chunk.
type stepPlan struct {
	stepSpec
	hint    stepHint   // the planner's access-path choice (advisory: it biases merge-vs-probe, never the rows)
	filters []*cfilter // staged FILTERs applied before the step
	seeds   bool       // first step to bind a variable: it runs once, on the unit table
	last    bool       // final join step of the branch: the one a row cap applies to
	vars    []string   // schema after the step
	sorted  []bool

	// Tracing (span stays nil with tracing off): the step's span opens
	// when the first chunk reaches it, named after pat and carrying est,
	// the planner's cardinality estimate.
	pat  *Pattern
	est  int64
	span *obs.Span

	// The row-independent fetch, made by the first chunk that reaches the
	// step (fetchShared) and read-only afterwards: whether a constant
	// pattern exists, the candidate view of a one-column merge filter, or
	// the candidate lists of an expansion with no bound column. lists
	// backs view when the backend has no zero-copy one; held is what the
	// meter carries for it until the branch ends.
	fetch, open sync.Once
	err         error
	exists      bool
	view        idlist.View
	lists       [3][]core.ID
	held        int64
}

// branchRun is one union branch's join as the chunk pipeline sees it.
type branchRun struct {
	steps       []stepPlan
	tail        []*cfilter // FILTERs staged after the last step
	optionals   [][]idPattern
	lateFilters []*cfilter
	colSlot     []int // solution slot of each column of the joined table
	// capped: nothing after the join can reject or merge rows, so the
	// last step needs to produce only as many rows as are still wanted.
	// emitsAll: every joined row becomes a result row.
	capped, emitsAll bool

	// The seed: the table the steps before from leave, in memory or
	// spilled, and what the meter carries for it.
	from      int
	seed      batchTable
	seedSpill *spillTable
	seedBytes int64

	// span is the branch's span and emitSp the one emission accumulates
	// into; both nil with tracing off.
	span, emitSp *obs.Span
}

// batchExec is a join executor: the binding table of the chunk it is
// running and the scratch that outlives chunks. The evaluator's own
// (ev.batch) plans each branch, runs the seed and drives the pipeline;
// with more than one worker it is also the first of the lanes chunks
// spread over.
type batchExec struct {
	ev     *evaluator
	src    graph.Graph
	sorted graph.SortedSource // nil → Match-collect fallback
	views  graph.ViewSource   // nil → no zero-copy candidate views
	tbl    batchTable

	// workers is the intra-query parallelism budget for this evaluation
	// (see parallel.go); 1 keeps every chunk on the calling goroutine.
	workers int

	// Cancellation and term decoding private to the goroutine running the
	// executor, so lanes share neither a counter nor a cache.
	cancelTick
	terms termReader

	// Reusable buffers, pooled between evaluations (see scratch); spare is
	// the column header an expansion builds its output in — it never
	// shares an array with tbl.cols — and borrowed says tbl.cols are views
	// of the seed rather than buffers to recycle.
	*scratch
	spare    [][]core.ID
	borrowed bool

	// Budget/spill state (see spill.go). spilled, when non-nil, holds
	// the current binding table's rows on disk (tbl keeps the schema and
	// serves as per-chunk scratch). accounted is what the meter currently
	// carries for the table; pendCells batches expansion accounting;
	// decBuf is chunk-decode scratch.
	spilled   *spillTable
	accounted int64
	pendCells int
	decBuf    []byte

	// rowCap, when ≥ 0, bounds the rows produced by the current step: it
	// is finalCap on the last step of a capped branch and -1 elsewhere.
	finalCap int
	rowCap   int

	// chunksLeft is how many chunks of the seed rows at hand remain, the
	// one being run included. curSp is the in-flight step's span (nil when
	// tracing is off — the nil-safe span methods keep every recording site
	// a cheap no-op).
	chunksLeft int
	curSp      *obs.Span

	// Set while planning a branch: its span, the planner's per-step
	// estimates and access-path hints, each aligned with the order.
	branchSp  *obs.Span
	stepEsts  []float64
	stepHints []stepHint

	// Lane state (parallel.go): the outcome of the chunk last run and the
	// signal that it is ready.
	err  error
	done chan struct{}
}

// scratch is what keeps an executor's steady state allocation-free: free
// holds the column buffers no table uses — every column of every chunk
// comes from it and goes back to it — beside the row-index and candidate
// buffers of the step kernels. An evaluation takes its executors' scratch
// from scratchPool and returns it when it ends, so a query also starts
// with the buffers an earlier one grew.
type scratch struct {
	free [][]core.ID
	keep []int
	bufA []core.ID
	bufB []core.ID
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// getCol returns an empty column buffer, recycled when one is free.
func (bx *batchExec) getCol() []core.ID {
	if n := len(bx.free); n > 0 {
		col := bx.free[n-1]
		bx.free = bx.free[:n-1]
		return col[:0]
	}
	return nil
}

// setCols makes cols the table's columns — buffers the executor owns —
// and recycles the ones it replaces.
func (bx *batchExec) setCols(cols [][]core.ID, n int) {
	old := bx.tbl.cols
	if !bx.borrowed {
		bx.free = append(bx.free, old...)
	}
	bx.spare = old[:0]
	bx.tbl.cols, bx.tbl.n = cols, n
	bx.borrowed = false
}

// planBranch classifies the ordered patterns against the schema each
// step inherits and stages the FILTERs.
func (bx *batchExec) planBranch(pats []idPattern, order []int, stepFilters [][]*cfilter, optionals [][]idPattern, lateFilters []*cfilter) *branchRun {
	ev := bx.ev
	br := &branchRun{
		steps:       make([]stepPlan, len(order)),
		tail:        stepFilters[len(order)],
		optionals:   optionals,
		lateFilters: lateFilters,
	}
	br.span = bx.branchSp
	br.emitsAll = len(optionals) == 0 && len(lateFilters) == 0 && ev.keepsEveryRow()
	br.capped = br.emitsAll && ev.target > 0 && len(br.tail) == 0
	var vars []string
	var sorted []bool
	for k, pi := range order {
		st := &br.steps[k]
		st.stepSpec = classify(&pats[pi], vars)
		st.filters = stepFilters[k]
		st.last = k == len(order)-1
		if k < len(bx.stepHints) {
			st.hint = bx.stepHints[k]
		}
		// A single sorted fetch expanding the unit table seeds a genuinely
		// sorted first column (SortedList values, or the first position of
		// a SortedPairs stream); everything else is only sorted within runs.
		seeds := len(vars) == 0 && len(st.newNames) > 0
		for i, name := range st.newNames {
			vars = append(vars, name)
			sorted = append(sorted, seeds && i == 0 && bx.sorted != nil && st.nFree <= 2)
		}
		st.vars, st.sorted = vars, sorted
		if st.seeds = seeds; seeds {
			br.from = k + 1
		}
		st.pat = &pats[pi].pat
		if bx.stepEsts != nil {
			st.est = int64(bx.stepEsts[k])
		}
	}
	if len(vars) == 0 {
		br.from = len(order) // nothing binds: the unit table is the seed
	}
	br.colSlot = make([]int, len(vars))
	for c, name := range vars {
		br.colSlot[c] = ev.slots[name]
	}
	return br
}

// runBatch joins the ordered patterns: the seed on this executor, the
// rest of the steps chunk by chunk, each staged filter applied as soon
// as its variables are bound and the surviving rows emitted (emitChunk).
func (bx *batchExec) runBatch(pats []idPattern, order []int, stepFilters [][]*cfilter, optionals [][]idPattern, lateFilters []*cfilter) error {
	ev := bx.ev
	br := bx.planBranch(pats, order, stepFilters, optionals, lateFilters)
	defer bx.endBranch(br)
	clear(ev.cur) // drop ids left over from a previous union branch

	bx.beginChunk(br, nil, 0, 1, 1) // the unit table
	for k := 0; k < br.from; k++ {
		if err := bx.runStep(br, &br.steps[k]); err != nil || bx.rows() == 0 {
			return err
		}
	}
	// The seed leaves the executor, whose table is about to hold chunks;
	// the unit table, when nothing bound a variable, has no columns to
	// hand over. The executor gets a fresh column header: the one it had
	// is the seed's now, and spare must never share its array.
	br.seed, br.seedSpill, br.seedBytes = bx.tbl, bx.spilled, bx.accounted
	if bx.borrowed {
		br.seed.cols = nil
	}
	bx.tbl.cols, bx.spilled, bx.accounted, bx.borrowed = nil, nil, 0, true

	if br.span != nil {
		// The emit span opens with the first chunk emitted (emitChunk).
		chunks, decoded := ev.chunks, ev.terms.decoded
		defer func() {
			br.emitSp.SetInt("emitted", int64(ev.res.n))
			br.emitSp.SetInt("chunks", int64(ev.chunks-chunks))
			br.emitSp.SetInt("termsDecoded", int64(ev.terms.decoded-decoded))
			br.emitSp.Finish()
		}()
	}
	if br.seedSpill == nil {
		return bx.runChunks(br, br.seed.cols, br.seed.n)
	}
	// A seed that spilled comes back one spill chunk at a time.
	in := br.seedSpill
	for k := range in.chunks {
		if err := ev.ctxCheck(); err != nil || ev.done {
			return err
		}
		buf, cols, n, err := in.readChunk(k, bx.decBuf, br.seed.cols)
		bx.decBuf, br.seed.cols = buf, cols
		if err != nil {
			return err
		}
		if err := ev.reaccount(&br.seedBytes, int64(n)*int64(len(cols))*8); err != nil {
			return err
		}
		if err := bx.runChunks(br, cols, n); err != nil {
			return err
		}
	}
	return nil
}

// endBranch gives back what the branch held: the seed's columns and the
// shared fetches' lists to the free list, their bytes to the meter, the
// seed's spill file to the filesystem.
func (bx *batchExec) endBranch(br *branchRun) {
	bx.endChunk()
	bx.free = append(bx.free, br.seed.cols...)
	br.seedSpill.drop()
	held := br.seedBytes
	for k := range br.steps {
		st := &br.steps[k]
		for _, l := range st.lists {
			if l != nil {
				bx.free = append(bx.free, l)
			}
		}
		held += st.held
		st.span.Finish()
	}
	if bx.ev.mem != nil {
		bx.ev.mem.Shrink(held)
	}
}

// beginChunk points the executor's table at rows [lo, hi) of the seed
// columns cols. Called by the goroutine driving the pipeline, before the
// chunk is handed to a lane.
func (bx *batchExec) beginChunk(br *branchRun, cols [][]core.ID, lo, hi, chunksLeft int) {
	tbl := &bx.tbl
	tbl.cols = tbl.cols[:0]
	for _, col := range cols {
		tbl.cols = append(tbl.cols, col[lo:hi])
	}
	tbl.n = hi - lo
	tbl.vars, tbl.sorted = br.seed.vars, br.seed.sorted
	bx.borrowed = true
	bx.chunksLeft = chunksLeft
	bx.finalCap = -1
	if br.capped {
		bx.finalCap = bx.ev.target - bx.ev.res.n
	}
}

// runChunk takes the executor's table through the steps after the seed
// and the trailing FILTERs; what is left is the chunk's share of the
// join, ready for emitChunk.
func (bx *batchExec) runChunk(br *branchRun) error {
	for k := br.from; k < len(br.steps); k++ {
		if err := bx.runStep(br, &br.steps[k]); err != nil || bx.rows() == 0 {
			return err
		}
	}
	for _, f := range br.tail {
		if err := bx.applyFilter(f); err != nil {
			return err
		}
	}
	return nil
}

// endChunk drops the chunk's table: its spill file, its accounted bytes,
// and its columns back to the free list.
func (bx *batchExec) endChunk() {
	bx.release()
	bx.setCols(bx.spare[:0], 0)
}

// runStep applies one step, and the FILTERs staged in front of it, to
// the executor's table.
func (bx *batchExec) runStep(br *branchRun, st *stepPlan) error {
	if err := bx.ctxCheck(); err != nil {
		return err
	}
	for _, f := range st.filters {
		if err := bx.applyFilter(f); err != nil {
			return err
		}
	}
	if bx.rows() == 0 {
		return nil
	}
	bx.rowCap = -1
	if st.last {
		bx.rowCap = bx.finalCap
	}
	if br.span == nil {
		return bx.stepGoverned(st)
	}
	// A step's span runs from the first chunk that reaches it to the last
	// chunk leaving it (endBranch, if a LIMIT stops the pipeline sooner or
	// the seed comes back from a spill in pieces); rows and chunks
	// accumulate in between.
	sp := st.openSpan(br.span)
	sp.Add("chunks", 1)
	sp.Add("rowsIn", int64(bx.rows()))
	bx.curSp = sp
	err := bx.stepGoverned(st)
	bx.curSp = nil
	sp.Add("rowsOut", int64(bx.rows()))
	if bx.chunksLeft == 1 {
		sp.Finish()
	}
	return err
}

// openSpan returns the step's span, starting it under parent on the
// first call.
func (st *stepPlan) openSpan(parent *obs.Span) *obs.Span {
	st.open.Do(func() {
		st.span = parent.ChildOf("step", st.pat)
		st.span.SetInt("estRows", st.est)
	})
	return st.span
}

// classify resolves one pattern against the schema vars.
func classify(p *idPattern, vars []string) stepSpec {
	sp := stepSpec{colAt: [3]int{-1, -1, -1}, slot: [3]int{-1, -1, -1}}
	for j := 0; j < 3; j++ {
		t := p.term(j)
		if t.Kind == Const {
			sp.kind[j] = posConst
			sp.ids[j] = p.ids[j]
			continue
		}
		if c := slices.Index(vars, t.Name); c >= 0 {
			sp.kind[j] = posCol
			sp.colAt[j] = c
			sp.nCols++
			continue
		}
		sp.kind[j] = posFree
		sp.nFree++
		slot := -1
		for k := 0; k < j; k++ {
			if sp.kind[k] == posFree && p.term(k).Name == t.Name {
				slot = sp.slot[k]
				break
			}
		}
		if slot < 0 {
			slot = len(sp.newNames)
			sp.newNames = append(sp.newNames, t.Name)
		}
		sp.slot[j] = slot
	}
	return sp
}

// subst returns the value of position j for row r: the constant, or the
// row's value of the bound column. Free positions return None.
func (bx *batchExec) subst(sp *stepPlan, j, r int) core.ID {
	if sp.colAt[j] >= 0 {
		return bx.tbl.cols[sp.colAt[j]][r]
	}
	return sp.ids[j]
}

// fetchShared makes the step's row-independent fetch if no chunk has
// yet: whichever lane reaches the step first pays for it, the others
// wait and then read. The lists it keeps are accounted until the branch
// ends — except the seed's, which become the table and are accounted as
// that.
func (bx *batchExec) fetchShared(sp *stepPlan) error {
	sp.fetch.Do(func() {
		sp.err = bx.fetchOnce(sp)
		if sp.err == nil && bx.ev.mem != nil && !sp.seeds {
			held := int64(len(sp.lists[0])+len(sp.lists[1])+len(sp.lists[2])) * 8
			if sp.err = bx.ev.mem.Grow(held); sp.err == nil {
				sp.held = held
			}
		}
	})
	return sp.err
}

func (bx *batchExec) fetchOnce(sp *stepPlan) error {
	var err error
	switch {
	case len(sp.newNames) > 0:
		// The candidates of an expansion none of whose positions is a
		// column: one list per new variable, shared by every row. The row
		// cap bounds them — it only shrinks as rows are emitted, so the
		// chunk that fetches has the loosest one any chunk will need.
		switch sp.nFree {
		case 1:
			sp.lists[0], err = bx.fetchOne(sp, 0, bx.getCol())
		case 2:
			sp.lists[0], sp.lists[1], err = bx.fetchPair(sp, 0, bx.rowCap, bx.getCol(), bx.getCol())
		default:
			err = bx.fetchAll(sp, bx.rowCap)
		}
		if err == nil {
			err = bx.ctxErr
		}
		bx.curSp.SetInt("candidates", int64(len(sp.lists[0])))
	case sp.nCols == 0:
		sp.exists, err = bx.src.Has(sp.ids[0], sp.ids[1], sp.ids[2])
	default:
		sp.view, err = bx.candidateView(sp)
		bx.curSp.SetInt("candidates", int64(sp.view.Len()))
	}
	return err
}

// filterStep handles patterns that bind nothing new: every position is
// a constant or a join column, so the step only discards rows.
func (bx *batchExec) filterStep(sp *stepPlan) error {
	tbl := &bx.tbl
	switch {
	case sp.nCols == 0:
		// Fully constant pattern: one existence probe decides all rows.
		bx.curSp.Set("kind", "const-probe")
		if err := bx.fetchShared(sp); err != nil {
			return err
		}
		if !sp.exists {
			tbl.compact(nil)
		}
		return nil

	case sp.nCols == 1 && sp.hint != hintProbe:
		// The merge-join step: the pattern's sorted candidate list — one
		// join column against two constants — intersected with the column.
		// On a block-compressed backend the list arrives as a zero-copy
		// view of the packed blob and the merge skips whole blocks via the
		// skip table; raw backends hand over a copied slice and take the
		// slice gallop. A sorted column takes the linear merge; an unsorted
		// one degrades to one binary probe per row against the single list.
		if err := bx.fetchShared(sp); err != nil {
			return err
		}
		c := max(sp.colAt[0], sp.colAt[1], sp.colAt[2])
		keep := bx.keep[:0]
		if tbl.sorted[c] {
			bx.curSp.Set("kind", "merge")
			idlist.MergeFilterView(tbl.cols[c], sp.view, func(i int) { keep = append(keep, i) })
		} else {
			bx.curSp.Set("kind", "probe-list")
			for i, v := range tbl.cols[c] {
				if sp.view.Contains(v) {
					keep = append(keep, i)
				}
			}
		}
		tbl.compact(keep)
		bx.keep = keep
		return nil

	default:
		// Two or more bound columns — or one whose candidate list the
		// planner's distinct-count model says dwarfs the binding table, so
		// that fetching it to merge is the wrong trade: a per-row existence
		// probe, which the store answers from the right index for any
		// binding shape.
		bx.curSp.Set("kind", "probe")
		if sp.nCols == 1 {
			bx.curSp.Set("access", "hinted")
		}
		return bx.probeFilter(sp)
	}
}

// probeFilter keeps the rows whose substituted pattern exists in the
// store: one indexed Has per row.
func (bx *batchExec) probeFilter(sp *stepPlan) error {
	tbl := &bx.tbl
	keep := bx.keep[:0]
	for r := 0; r < tbl.n; r++ {
		if !bx.tickOK() {
			return bx.ctxErr
		}
		if bx.rowCap >= 0 && len(keep) >= bx.rowCap {
			break
		}
		ok, err := bx.src.Has(bx.subst(sp, 0, r), bx.subst(sp, 1, r), bx.subst(sp, 2, r))
		if err != nil {
			return err
		}
		if ok {
			keep = append(keep, r)
		}
	}
	tbl.compact(keep)
	bx.keep = keep
	return nil
}

// candidateView returns the sorted candidate values of the single free
// position of the 2-bound fetch pattern in sp as a read-only view:
// zero-copy from a ViewSource backend (compressed memory store, delta
// overlay over one), else a view over a list the step keeps — appended
// by a SortedSource, or collected through Match and sorted for backends
// without sorted-list access.
func (bx *batchExec) candidateView(sp *stepPlan) (idlist.View, error) {
	if bx.views != nil {
		v, ok, err := bx.views.SortedListView(sp.ids[0], sp.ids[1], sp.ids[2])
		if err != nil {
			return idlist.View{}, err
		}
		if ok {
			return v, nil
		}
	}
	var ids []core.ID
	var err error
	if bx.sorted != nil {
		ids, err = bx.sorted.AppendSortedList(bx.getCol(), sp.ids[0], sp.ids[1], sp.ids[2])
	} else {
		// The fetch pattern leaves None exactly at the join-column
		// position; that is the position whose values are collected.
		free := slices.IndexFunc(sp.colAt[:], func(c int) bool { return c >= 0 })
		ids, err = bx.matchInto(bx.getCol(), free, sp.ids[0], sp.ids[1], sp.ids[2])
		if err == nil {
			err = bx.ctxErr
		}
		slices.Sort(ids)
	}
	sp.lists[0] = ids
	return idlist.ViewOf(ids), err
}

func pick(j int, s, p, o core.ID) core.ID {
	switch j {
	case 0:
		return s
	case 1:
		return p
	default:
		return o
	}
}

// appendRun appends k copies of v to dst.
func appendRun(dst []core.ID, v core.ID, k int) []core.ID {
	for i := 0; i < k; i++ {
		dst = append(dst, v)
	}
	return dst
}

// expandStep handles patterns that bind one or two new variables (three
// only for the all-free pattern): for every row, the candidate values
// of the free positions are fetched — one sorted-list or sorted-pairs
// access per row, or the step's shared fetch when the bound positions
// are all constants — and spliced onto the table with bulk appends into
// recycled columns.
func (bx *batchExec) expandStep(sp *stepPlan) error {
	tbl := &bx.tbl
	if bx.curSp != nil {
		bx.curSp.Set("kind", "expand")
		bx.curSp.Set("newVars", strings.Join(sp.newNames, ","))
	}
	if sp.nCols == 0 {
		if err := bx.fetchShared(sp); err != nil {
			return err
		}
	}
	nOld, nNew := len(tbl.cols), len(sp.newNames)
	if sp.seeds {
		// The shared lists are the table, so they move into it where any
		// other expansion would copy them row by row.
		k := len(sp.lists[0])
		if bx.rowCap >= 0 {
			k = min(k, bx.rowCap)
		}
		if err := bx.noteGrowth(k * nNew); err != nil {
			return err
		}
		out := bx.spare[:0]
		for j := 0; j < nNew; j++ {
			out = append(out, sp.lists[j][:k])
			sp.lists[j] = nil
		}
		bx.setCols(out, k)
		tbl.vars, tbl.sorted = sp.vars, sp.sorted
		return nil
	}

	out := bx.spare[:0]
	for i := 0; i < nOld+nNew; i++ {
		out = append(out, bx.getCol())
	}
	produced := 0
	err := bx.expandRows(sp, &produced, func(r, k int, news [3][]core.ID) error {
		for c := 0; c < nOld; c++ {
			out[c] = appendRun(out[c], tbl.cols[c][r], k)
		}
		for j := 0; j < nNew; j++ {
			out[nOld+j] = append(out[nOld+j], news[j][:k]...)
		}
		produced += k
		return bx.noteGrowth(k * len(out))
	})
	if err != nil {
		bx.free = append(bx.free, out...)
		return err
	}
	bx.setCols(out, produced)
	tbl.vars, tbl.sorted = sp.vars, sp.sorted
	return nil
}

// expandRows is the row loop of an expansion: for every row of the
// table it hands emit the row's candidates — the step's shared lists, or
// the row's own fetch — cut to what the row cap still allows given the
// *produced rows so far; rows without candidates are skipped.
func (bx *batchExec) expandRows(sp *stepPlan, produced *int, emit func(r, k int, news [3][]core.ID) error) error {
	news := sp.lists
	for r := 0; r < bx.tbl.n; r++ {
		if !bx.tickOK() {
			return bx.ctxErr
		}
		left := -1
		if bx.rowCap >= 0 {
			if left = bx.rowCap - *produced; left <= 0 {
				break
			}
		}
		if sp.nCols > 0 {
			var err error
			if news[0], news[1], err = bx.candidates(sp, r, left); err != nil {
				return err
			}
		}
		k := len(news[0])
		if left >= 0 {
			k = min(k, left)
		}
		if k == 0 {
			continue
		}
		if err := emit(r, k, news); err != nil {
			return err
		}
	}
	return nil
}

// candidates fetches row r's candidate values for the one or two free
// positions of a row-dependent expansion into the executor's scratch
// buffers; b is nil when the step binds one variable. A non-negative
// limit stops a pair collection once that many pairs are kept.
func (bx *batchExec) candidates(sp *stepPlan, r, limit int) (a, b []core.ID, err error) {
	if sp.nFree == 1 {
		a, err = bx.fetchOne(sp, r, bx.bufA[:0])
		bx.bufA = a
	} else {
		a, b, err = bx.fetchPair(sp, r, limit, bx.bufA[:0], bx.bufB[:0])
		bx.bufA, bx.bufB = a, b
	}
	if err == nil {
		err = bx.ctxErr
	}
	return a, b, err
}

// fetchOne appends the candidate values of the single free position for
// row r into dst and returns the extended slice — one sorted-list copy
// with a SortedSource, a Match collection otherwise. Both backends' sorted accessors and Match are safe for
// concurrent readers, and everything else it touches is the executor's.
func (bx *batchExec) fetchOne(sp *stepPlan, r int, dst []core.ID) ([]core.ID, error) {
	s, p, o := bx.subst(sp, 0, r), bx.subst(sp, 1, r), bx.subst(sp, 2, r)
	if bx.sorted != nil {
		return bx.sorted.AppendSortedList(dst, s, p, o)
	}
	free := slices.Index(sp.kind[:], posFree)
	return bx.matchInto(dst, free, s, p, o)
}

// matchInto is the fallback for backends without sorted-list access:
// position free of every match of ⟨s,p,o⟩ is appended to dst. It is a
// function of its own so that the callback's capture of dst costs the
// sorted path nothing (a captured, reassigned variable lives on the
// heap from function entry — one allocation per row of the join). A
// cancellation stops the stream; the caller surfaces bx.ctxErr.
func (bx *batchExec) matchInto(dst []core.ID, free int, s, p, o core.ID) ([]core.ID, error) {
	err := bx.src.Match(s, p, o, func(ms, mp, mo core.ID) bool {
		if !bx.tickOK() {
			return false
		}
		dst = append(dst, pick(free, ms, mp, mo))
		return true
	})
	return dst, err
}

// fetchPair collects the value pairs of the two free positions for row r
// into the caller's a/b buffers and returns the extended slices,
// applying the repeated-variable constraint when both positions share a
// slot (?x <p> ?x keeps only equal pairs, in a alone). A non-negative
// limit stops collection once that many pairs are kept.
func (bx *batchExec) fetchPair(sp *stepPlan, r, limit int, a, b []core.ID) ([]core.ID, []core.ID, error) {
	s, p, o := bx.subst(sp, 0, r), bx.subst(sp, 1, r), bx.subst(sp, 2, r)
	ja, jb := -1, -1
	for j := 0; j < 3; j++ {
		if sp.kind[j] == posFree {
			if ja < 0 {
				ja = j
			} else {
				jb = j
			}
		}
	}
	same := sp.slot[ja] == sp.slot[jb]
	add := func(x, y core.ID) bool {
		if !bx.tickOK() {
			return false
		}
		if same {
			if x == y {
				a = append(a, x)
			}
		} else {
			a = append(a, x)
			b = append(b, y)
		}
		return limit < 0 || len(a) < limit
	}
	var err error
	if bx.sorted != nil {
		err = bx.sorted.SortedPairs(s, p, o, add)
	} else {
		err = bx.src.Match(s, p, o, func(ms, mp, mo core.ID) bool {
			return add(pick(ja, ms, mp, mo), pick(jb, ms, mp, mo))
		})
	}
	return a, b, err
}

// fetchAll fills the step's lists with the values of the (up to three
// distinct) free variables of an all-free pattern, enforcing slot
// equality for repeated names (?x ?x ?o, ?x ?p ?x, ?x ?x ?x). A
// non-negative limit stops the scan once that many matches are kept.
func (bx *batchExec) fetchAll(sp *stepPlan, limit int) error {
	for i := range sp.newNames {
		sp.lists[i] = bx.getCol()
	}
	return bx.src.Match(core.None, core.None, core.None, func(ms, mp, mo core.ID) bool {
		if !bx.tickOK() {
			return false
		}
		vals := [3]core.ID{ms, mp, mo}
		var out [3]core.ID
		var seen [3]bool
		for j := 0; j < 3; j++ {
			sl := sp.slot[j]
			if seen[sl] {
				if out[sl] != vals[j] {
					return true // repeated variable, differing values
				}
				continue
			}
			out[sl], seen[sl] = vals[j], true
		}
		for i := range sp.newNames {
			sp.lists[i] = append(sp.lists[i], out[i])
		}
		return limit < 0 || len(sp.lists[0]) < limit
	})
}

// filterRows applies one staged FILTER to every row, reading its
// variable operands straight from their columns.
func (bx *batchExec) filterRows(f *cfilter) error {
	tbl := &bx.tbl
	lcol, rcol := bx.operandCol(&f.l), bx.operandCol(&f.r)
	keep := bx.keep[:0]
	for r := 0; r < tbl.n; r++ {
		if !bx.tickOK() {
			return bx.ctxErr
		}
		var lid, rid core.ID
		if lcol != nil {
			lid = lcol[r]
		}
		if rcol != nil {
			rid = rcol[r]
		}
		ok, err := bx.terms.filterPass(f, lid, rid)
		if err != nil {
			return err
		}
		if ok {
			keep = append(keep, r)
		}
	}
	tbl.compact(keep)
	bx.keep = keep
	return nil
}

// operandCol returns the table column holding a filter operand's
// variable; nil for a constant (and for a variable the table does not
// bind, which reads as unbound).
func (bx *batchExec) operandCol(o *operand) []core.ID {
	if o.slot < 0 {
		return nil
	}
	if c := slices.Index(bx.tbl.vars, o.name); c >= 0 {
		return bx.tbl.cols[c]
	}
	return nil
}

// emitChunk emits the executor's table on the evaluator's goroutine:
// each surviving row's ids are installed in the evaluator's solution
// slots (every slot no column maps to reads unbound), then the row is
// emitted — directly, or through the tuple-at-a-time OPTIONAL matcher,
// which extends the solution in the same slots before emitting.
func (bx *batchExec) emitChunk(br *branchRun) error {
	if bx.spilled != nil {
		return bx.emitSpilled(br)
	}
	ev := bx.ev
	tbl := &bx.tbl
	if br.span != nil {
		if br.emitSp == nil {
			br.emitSp = br.span.Child("emit")
		}
		br.emitSp.Add("rowsIn", int64(tbl.n))
	}
	if br.emitsAll {
		// Every table row becomes a result row: make room for this chunk's
		// in one step. Nothing is assumed of the chunks to come — fan-out
		// may be skewed — so across chunks the cells grow as append grows.
		n := tbl.n
		if ev.target > 0 {
			n = min(n, ev.target-ev.res.n)
		}
		ev.res.cells = slices.Grow(ev.res.cells, n*len(ev.projSlots))
	}
	for r := 0; r < tbl.n && !ev.done; r++ {
		if !ev.tickOK() {
			return ev.ctxErr
		}
		for c, s := range br.colSlot {
			ev.cur[s] = tbl.cols[c][r]
		}
		if err := ev.runOptionals(br.optionals, 0, br.lateFilters); err != nil {
			return err
		}
	}
	return nil
}
