package sparql

// This file implements the vectorized batch execution engine under the
// SPARQL evaluator. Instead of the historical tuple-at-a-time bind join
// (one map[string]ID binding per step, one Match callback per candidate
// triple), a basic graph pattern is evaluated against a columnar
// binding table: one []core.ID column per variable, one join step per
// triple pattern.
//
// Each step is one of three shapes (paper §4.2 — every Hexastore vector
// and terminal list is sorted, so pairwise joins are linear
// merge-joins):
//
//   - merge/probe filter: the pattern binds no new variable. When the
//     pattern is one join column against two constants, its sorted
//     candidate list is fetched once and merge-intersected against the
//     column with galloping (idlist.MergeFilter); otherwise each row is
//     an existence probe.
//   - expansion: the pattern binds new variables. Candidate values come
//     from the backend's sorted lists (graph.SortedSource) and are
//     appended to fresh columns with bulk slice copies — a batched bind
//     join with no per-triple callback into the evaluator.
//   - fallback: backends without sorted-list access (the flat baseline
//     table) collect candidates through Match into reusable scratch
//     buffers; the table machinery is identical, only the fetch differs.
//
// Rows stay dictionary-encoded IDs until final projection (late
// materialization): DISTINCT and GROUP BY key on fixed-width binary ID
// tuples and terms are decoded once per emitted row through a per-query
// cache.
//
// Trade-off versus the old depth-first walk: batch execution
// materializes each intermediate table in full. The final join step is
// capped when every surviving row is guaranteed to be emitted (rowCap,
// restoring early termination for plain ASK/LIMIT), but intermediate
// steps — and queries where DISTINCT, trailing filters or OPTIONAL
// groups sit between the join and emission — do the whole join before
// the limit applies, where the streaming walk could stop mid-join.
// Chunked (per-seed-range) execution would recover that and is the
// natural follow-up once execution is partitioned for parallelism.

import (
	"slices"
	"strings"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/idlist"
	"hexastore/internal/obs"
)

// batchTable is the columnar binding table: cols[i] holds the value of
// variable vars[i] for every intermediate row. n is the row count; the
// table starts as one logical row with no columns (the unit table), so
// seeding and cross products need no special casing. sorted[i] records
// that cols[i] is non-decreasing, which is what licenses the galloping
// merge in filter steps.
type batchTable struct {
	vars   []string
	cols   [][]core.ID
	sorted []bool
	n      int
}

func (t *batchTable) reset() {
	t.vars = t.vars[:0]
	t.cols = t.cols[:0]
	t.sorted = t.sorted[:0]
	t.n = 1
}

func (t *batchTable) colIndex(name string) int {
	for i, v := range t.vars {
		if v == name {
			return i
		}
	}
	return -1
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

// stepSpec is one pattern classified against the current binding table.
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

// batchExec evaluates one union branch over a binding table.
type batchExec struct {
	ev     *evaluator
	src    graph.Graph
	sorted graph.SortedSource // nil → Match-collect fallback
	views  graph.ViewSource   // nil → no zero-copy candidate views
	tbl    batchTable

	// workers is the intra-query parallelism budget for this evaluation
	// (see parallel.go); 1 keeps every step on the calling goroutine.
	workers int

	// Reusable scratch, to keep the steady state allocation-free.
	keep []int
	bufA []core.ID
	bufB []core.ID
	bufC []core.ID

	// Budget/spill state (see spill.go). spilled, when non-nil, holds
	// the current binding table's rows on disk (tbl keeps the schema and
	// serves as per-chunk scratch). accounted is what the meter currently
	// carries for engine state; pendCells batches expansion accounting;
	// scratchBytes covers a streaming step's shared candidate buffers;
	// decBuf is chunk-decode scratch.
	spilled      *spillTable
	accounted    int64
	pendCells    int
	scratchBytes int64
	decBuf       []byte

	// rowCap, when ≥ 0, bounds the rows produced by the current step.
	// It is set only on the final join step of a branch where every
	// surviving row is guaranteed to be emitted (no DISTINCT, trailing
	// filters or OPTIONAL groups), restoring the streaming engine's
	// early termination for ASK and plain LIMIT queries.
	rowCap int

	// Tracing state (nil when tracing is off — the common case, and the
	// nil-safe span methods keep every recording site a cheap no-op).
	// branchSp is the current union branch's span and stepEsts the
	// planner's per-step estimates aligned with the order; curSp is the
	// in-flight step's span, annotated by the step shapes below.
	branchSp *obs.Span
	stepEsts []float64
	curSp    *obs.Span

	// stepHints, when non-nil, carries the planner's per-step access-path
	// choices aligned with the order (memoized by the plan cache);
	// curHint is the in-flight step's. Hints are advisory: they bias the
	// merge-vs-probe choice of one-column filter steps, never the rows.
	stepHints []stepHint
	curHint   stepHint
}

// runBatch joins the ordered patterns into the binding table, applying
// each staged filter as soon as its variables are bound, then emits the
// surviving rows (emitRows).
func (bx *batchExec) runBatch(pats []idPattern, order []int, stepFilters [][]*cfilter, optionals [][]idPattern, lateFilters []*cfilter) error {
	bx.release() // drop any previous branch's spill/accounting
	bx.tbl.reset()
	defer bx.release()
	// When nothing after the join can reject or merge rows, the final
	// step needs to produce only as many rows as are still wanted.
	finalCap := -1
	ev := bx.ev
	if ev.target > 0 && ev.keepsEveryRow() &&
		len(optionals) == 0 && len(lateFilters) == 0 && len(stepFilters[len(order)]) == 0 {
		finalCap = ev.target - ev.res.n
	}
	for k, pi := range order {
		if err := ev.ctxCheck(); err != nil {
			return err
		}
		for _, f := range stepFilters[k] {
			if err := bx.applyFilter(f); err != nil {
				return err
			}
		}
		if bx.rows() == 0 {
			return nil
		}
		bx.rowCap = -1
		if k == len(order)-1 {
			bx.rowCap = finalCap
		}
		bx.curHint = hintNone
		if k < len(bx.stepHints) {
			bx.curHint = bx.stepHints[k]
		}
		if bx.branchSp != nil {
			sp := bx.branchSp.ChildOf("step", &pats[pi].pat)
			if bx.stepEsts != nil {
				sp.SetInt("estRows", int64(bx.stepEsts[k]))
			}
			sp.SetInt("rowsIn", int64(bx.rows()))
			bx.curSp = sp
		}
		err := bx.stepGoverned(&pats[pi])
		if bx.curSp != nil {
			bx.curSp.SetInt("rowsOut", int64(bx.rows()))
			bx.curSp.Finish()
			bx.curSp = nil
		}
		if err != nil {
			return err
		}
		if bx.rows() == 0 {
			return nil
		}
	}
	for _, f := range stepFilters[len(order)] {
		if err := bx.applyFilter(f); err != nil {
			return err
		}
	}
	var emitSp *obs.Span
	if bx.branchSp != nil {
		emitSp = bx.branchSp.Child("emit")
		emitSp.SetInt("rowsIn", int64(bx.rows()))
		defer func() {
			emitSp.SetInt("emitted", int64(ev.res.n))
			emitSp.Finish()
		}()
	}
	if bx.spilled != nil {
		return bx.emitSpilled(optionals, lateFilters)
	}
	return bx.emitRows(optionals, lateFilters)
}

// classify resolves one pattern against the current table.
func (bx *batchExec) classify(p *idPattern) stepSpec {
	sp := stepSpec{colAt: [3]int{-1, -1, -1}, slot: [3]int{-1, -1, -1}}
	for j := 0; j < 3; j++ {
		t := p.term(j)
		if t.Kind == Const {
			sp.kind[j] = posConst
			sp.ids[j] = p.ids[j]
			continue
		}
		if c := bx.tbl.colIndex(t.Name); c >= 0 {
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
func (bx *batchExec) subst(sp *stepSpec, j, r int) core.ID {
	if sp.colAt[j] >= 0 {
		return bx.tbl.cols[sp.colAt[j]][r]
	}
	return sp.ids[j]
}

func (bx *batchExec) step(p *idPattern) error {
	sp := bx.classify(p)
	if len(sp.newNames) == 0 {
		return bx.filterStep(&sp)
	}
	return bx.expandStep(&sp)
}

// filterStep handles patterns that bind nothing new: every position is
// a constant or a join column, so the step only discards rows.
func (bx *batchExec) filterStep(sp *stepSpec) error {
	tbl := &bx.tbl
	switch {
	case sp.nCols == 0:
		// Fully constant pattern: one existence probe decides all rows.
		bx.curSp.Set("kind", "const-probe")
		ok, err := bx.src.Has(sp.ids[0], sp.ids[1], sp.ids[2])
		if err != nil {
			return err
		}
		if !ok {
			tbl.compact(nil)
		}
		return nil

	case sp.nCols == 1:
		// One join column against two constants. The planner's
		// distinct-count model may have hinted that the candidate list
		// dwarfs the binding table — then fetching it to merge is the
		// wrong trade and the step probes the store once per row instead.
		if bx.curHint == hintProbe {
			bx.curSp.Set("kind", "probe")
			bx.curSp.Set("access", "hinted")
			return bx.probeFilter(sp)
		}
		// The merge-join step: fetch the pattern's sorted candidate list
		// once and intersect it with the column. On a block-compressed
		// backend the list arrives as a zero-copy view of the packed blob
		// and the merge skips whole blocks via the skip table; raw
		// backends hand over a copied slice and take the slice gallop. A
		// sorted column takes the linear merge; an unsorted one degrades
		// to one binary probe per row against the single list.
		view, err := bx.candidateView(sp)
		if err != nil {
			return err
		}
		c := -1
		for j := 0; j < 3; j++ {
			if sp.colAt[j] >= 0 {
				c = sp.colAt[j]
			}
		}
		if bx.curSp != nil {
			bx.curSp.SetInt("candidates", int64(view.Len()))
			if tbl.sorted[c] {
				bx.curSp.Set("kind", "merge")
			} else {
				bx.curSp.Set("kind", "probe-list")
			}
		}
		keep := bx.keep[:0]
		if tbl.sorted[c] {
			idlist.MergeFilterView(tbl.cols[c], view, func(i int) { keep = append(keep, i) })
		} else {
			for i, v := range tbl.cols[c] {
				if view.Contains(v) {
					keep = append(keep, i)
				}
			}
		}
		tbl.compact(keep)
		bx.keep = keep
		return nil

	default:
		// Two or more bound columns: per-row existence probe, which the
		// store answers from the right index for any binding shape.
		bx.curSp.Set("kind", "probe")
		return bx.probeFilter(sp)
	}
}

// probeFilter keeps the rows whose substituted pattern exists in the
// store: one indexed Has per row, partitioned across workers when the
// table is large.
func (bx *batchExec) probeFilter(sp *stepSpec) error {
	tbl := &bx.tbl
	if bx.parallelOK(tbl.n) {
		return bx.probeRowsParallel(sp)
	}
	keep := bx.keep[:0]
	for r := 0; r < tbl.n; r++ {
		if !bx.ev.tickOK() {
			return bx.ev.ctxErr
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
// overlay over one), else a view over the copied/collected slice from
// candidateList.
func (bx *batchExec) candidateView(sp *stepSpec) (idlist.View, error) {
	if bx.views != nil {
		v, ok, err := bx.views.SortedListView(sp.ids[0], sp.ids[1], sp.ids[2])
		if err != nil {
			return idlist.View{}, err
		}
		if ok {
			return v, nil
		}
	}
	ids, err := bx.candidateList(sp)
	if err != nil {
		return idlist.View{}, err
	}
	return idlist.ViewOf(ids), nil
}

// candidateList returns the sorted candidate values of the single free
// (None) position of the 2-bound fetch pattern in sp — appended into
// the reused scratch buffer by a SortedSource, or collected through
// Match and sorted for backends without sorted-list access.
func (bx *batchExec) candidateList(sp *stepSpec) ([]core.ID, error) {
	if bx.sorted != nil {
		ids, err := bx.sorted.AppendSortedList(bx.bufA[:0], sp.ids[0], sp.ids[1], sp.ids[2])
		if err != nil {
			return nil, err
		}
		bx.bufA = ids
		return ids, nil
	}
	// The fetch pattern leaves None exactly at the join-column position;
	// that is the position whose values we collect.
	free := 0
	for j := 0; j < 3; j++ {
		if sp.colAt[j] >= 0 {
			free = j
		}
	}
	bx.bufA = bx.bufA[:0]
	if err := bx.src.Match(sp.ids[0], sp.ids[1], sp.ids[2], func(ms, mp, mo core.ID) bool {
		if !bx.ev.tickOK() {
			return false
		}
		bx.bufA = append(bx.bufA, pick(free, ms, mp, mo))
		return true
	}); err != nil {
		return nil, err
	}
	if bx.ev.ctxErr != nil {
		return nil, bx.ev.ctxErr
	}
	slices.Sort(bx.bufA)
	return bx.bufA, nil
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
// access per row, or a single shared fetch when the bound positions are
// all constants — and spliced onto the table with bulk appends.
func (bx *batchExec) expandStep(sp *stepSpec) error {
	tbl := &bx.tbl
	rowIndep := sp.nCols == 0
	if bx.curSp != nil {
		bx.curSp.Set("kind", "expand")
		bx.curSp.Set("newVars", strings.Join(sp.newNames, ","))
	}
	// Row-dependent expansions over a large table partition across
	// workers; row-independent fetches are a single shared list and the
	// all-free seed is one scan, so neither benefits from splitting.
	if !rowIndep && sp.nFree <= 2 && bx.parallelOK(tbl.n) {
		return bx.expandStepParallel(sp)
	}
	oldCols := tbl.cols
	out := make([][]core.ID, len(oldCols)+len(sp.newNames))

	// remaining returns how many more rows this step may produce, or -1
	// for unlimited; 0 means stop.
	remaining := func() int {
		if bx.rowCap < 0 {
			return -1
		}
		left := bx.rowCap - len(out[len(oldCols)])
		if left < 0 {
			return 0
		}
		return left
	}

	switch sp.nFree {
	case 1:
		var shared []core.ID
		if rowIndep {
			ids, err := bx.candidates1(sp, 0)
			if err != nil {
				return err
			}
			shared = ids
			bx.curSp.SetInt("candidates", int64(len(shared)))
		}
		for r := 0; r < tbl.n; r++ {
			if !bx.ev.tickOK() {
				return bx.ev.ctxErr
			}
			left := remaining()
			if left == 0 {
				break
			}
			ids := shared
			if !rowIndep {
				var err error
				ids, err = bx.candidates1(sp, r)
				if err != nil {
					return err
				}
			}
			if left >= 0 && len(ids) > left {
				ids = ids[:left]
			}
			if len(ids) == 0 {
				continue
			}
			for c := range oldCols {
				out[c] = appendRun(out[c], oldCols[c][r], len(ids))
			}
			out[len(oldCols)] = append(out[len(oldCols)], ids...)
			if err := bx.noteGrowth(len(ids) * (len(oldCols) + 1)); err != nil {
				return err
			}
		}

	case 2:
		for r := 0; r < tbl.n; r++ {
			if !bx.ev.tickOK() {
				return bx.ev.ctxErr
			}
			left := remaining()
			if left == 0 {
				break
			}
			if rowIndep && r > 0 {
				// Cross product against a shared fetch: the scratch
				// buffers still hold row 0's candidates.
			} else if err := bx.candidates2(sp, r, left); err != nil {
				return err
			}
			k := len(bx.bufA)
			if left >= 0 && k > left {
				k = left
			}
			if k == 0 {
				continue
			}
			for c := range oldCols {
				out[c] = appendRun(out[c], oldCols[c][r], k)
			}
			out[len(oldCols)] = append(out[len(oldCols)], bx.bufA[:k]...)
			if len(sp.newNames) == 2 {
				out[len(oldCols)+1] = append(out[len(oldCols)+1], bx.bufB[:k]...)
			}
			if err := bx.noteGrowth(k * (len(oldCols) + len(sp.newNames))); err != nil {
				return err
			}
		}

	default: // 3 free positions: full scan seed (or cross product)
		if err := bx.candidates3(sp, bx.rowCap); err != nil {
			return err
		}
		for r := 0; r < tbl.n && len(bx.bufA) > 0; r++ {
			if !bx.ev.tickOK() {
				return bx.ev.ctxErr
			}
			k := len(bx.bufA)
			left := remaining()
			if left == 0 {
				break
			}
			if left >= 0 && k > left {
				k = left
			}
			for c := range oldCols {
				out[c] = appendRun(out[c], oldCols[c][r], k)
			}
			out[len(oldCols)] = append(out[len(oldCols)], bx.bufA[:k]...)
			if len(sp.newNames) >= 2 {
				out[len(oldCols)+1] = append(out[len(oldCols)+1], bx.bufB[:k]...)
			}
			if len(sp.newNames) == 3 {
				out[len(oldCols)+2] = append(out[len(oldCols)+2], bx.bufC[:k]...)
			}
			if err := bx.noteGrowth(k * (len(oldCols) + len(sp.newNames))); err != nil {
				return err
			}
		}
	}

	newSorted := make([]bool, len(out))
	copy(newSorted, tbl.sorted)
	// A single sorted fetch expanding the unit table seeds a genuinely
	// sorted first column (SortedList values, or the first position of a
	// SortedPairs stream); everything else is only sorted within runs.
	if rowIndep && tbl.n == 1 && bx.sorted != nil && sp.nFree <= 2 {
		newSorted[len(oldCols)] = true
	}
	tbl.vars = append(tbl.vars, sp.newNames...)
	tbl.cols = out
	tbl.sorted = newSorted
	if len(out) > 0 {
		tbl.n = len(out[len(out)-1])
	} else {
		tbl.n = 0
	}
	if bx.rowCap >= 0 && tbl.n > bx.rowCap {
		for c := range tbl.cols {
			tbl.cols[c] = tbl.cols[c][:bx.rowCap]
		}
		tbl.n = bx.rowCap
	}
	return nil
}

// candidates1 returns the candidate values of the single free position
// for row r, appended into the reused scratch buffer — one sorted-list
// copy under the store's lock with a SortedSource, a Match collection
// otherwise.
func (bx *batchExec) candidates1(sp *stepSpec, r int) ([]core.ID, error) {
	ids, err := bx.fetchOne(sp, r, bx.bufA[:0], bx.ev.tickFn)
	if err != nil {
		return nil, err
	}
	if bx.ev.ctxErr != nil {
		return nil, bx.ev.ctxErr
	}
	bx.bufA = ids
	return ids, nil
}

// fetchOne appends the candidate values of the single free position for
// row r into dst and returns the extended slice. It reads only immutable
// step state and the table columns, so concurrent workers may call it as
// long as each owns its dst (both backends' sorted accessors and Match
// are safe for concurrent readers). tick, when non-nil, is consulted per
// streamed candidate; returning false stops the stream (the caller then
// surfaces its context error) — sequential callers pass the evaluator's
// tick, parallel workers pass a private one, so no counter is shared.
func (bx *batchExec) fetchOne(sp *stepSpec, r int, dst []core.ID, tick func() bool) ([]core.ID, error) {
	s, p, o := bx.subst(sp, 0, r), bx.subst(sp, 1, r), bx.subst(sp, 2, r)
	if bx.sorted != nil {
		return bx.sorted.AppendSortedList(dst, s, p, o)
	}
	free := 0
	for j := 0; j < 3; j++ {
		if sp.kind[j] == posFree {
			free = j
		}
	}
	return bx.matchInto(dst, free, s, p, o, tick)
}

// matchInto is fetchOne's fallback for backends without sorted-list
// access: position free of every match of ⟨s,p,o⟩ is appended to dst. It
// is a function of its own so that the callback's capture of dst costs
// the sorted path nothing (a captured, reassigned variable lives on the
// heap from function entry — one allocation per row of the join).
func (bx *batchExec) matchInto(dst []core.ID, free int, s, p, o core.ID, tick func() bool) ([]core.ID, error) {
	if err := bx.src.Match(s, p, o, func(ms, mp, mo core.ID) bool {
		if tick != nil && !tick() {
			return false
		}
		dst = append(dst, pick(free, ms, mp, mo))
		return true
	}); err != nil {
		return nil, err
	}
	return dst, nil
}

// candidates2 fills bufA/bufB with the value pairs of the two free
// positions for row r, applying the repeated-variable constraint when
// both positions share a slot (?x <p> ?x keeps only equal pairs, in
// bufA alone). A non-negative limit stops collection once that many
// pairs are kept.
func (bx *batchExec) candidates2(sp *stepSpec, r, limit int) error {
	a, b, err := bx.fetchPair(sp, r, limit, bx.bufA[:0], bx.bufB[:0], bx.ev.tickFn)
	bx.bufA, bx.bufB = a, b
	if err == nil && bx.ev.ctxErr != nil {
		return bx.ev.ctxErr
	}
	return err
}

// fetchPair collects the value pairs of the two free positions for row r
// into the caller's a/b buffers (a alone when the positions share a slot)
// and returns the extended slices. Like fetchOne it is safe for
// concurrent workers with private buffers and a private tick.
func (bx *batchExec) fetchPair(sp *stepSpec, r, limit int, a, b []core.ID, tick func() bool) ([]core.ID, []core.ID, error) {
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
		if tick != nil && !tick() {
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

// candidates3 fills bufA/bufB/bufC with the values of the (up to three
// distinct) free variables of an all-free pattern, enforcing slot
// equality for repeated names (?x ?x ?o, ?x ?p ?x, ?x ?x ?x). A
// non-negative limit stops the scan once that many matches are kept.
func (bx *batchExec) candidates3(sp *stepSpec, limit int) error {
	bx.bufA, bx.bufB, bx.bufC = bx.bufA[:0], bx.bufB[:0], bx.bufC[:0]
	bufs := [3]*[]core.ID{&bx.bufA, &bx.bufB, &bx.bufC}
	err := bx.src.Match(core.None, core.None, core.None, func(ms, mp, mo core.ID) bool {
		if !bx.ev.tickOK() {
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
			*bufs[i] = append(*bufs[i], out[i])
		}
		return limit < 0 || len(bx.bufA) < limit
	})
	if err == nil && bx.ev.ctxErr != nil {
		return bx.ev.ctxErr
	}
	return err
}

// filterRows applies one staged FILTER to every row, reading its
// variable operands straight from their columns.
func (bx *batchExec) filterRows(f *cfilter) error {
	tbl := &bx.tbl
	lcol, rcol := bx.operandCol(&f.l), bx.operandCol(&f.r)
	keep := bx.keep[:0]
	for r := 0; r < tbl.n; r++ {
		if !bx.ev.tickOK() {
			return bx.ev.ctxErr
		}
		var lid, rid core.ID
		if lcol != nil {
			lid = lcol[r]
		}
		if rcol != nil {
			rid = rcol[r]
		}
		ok, err := bx.ev.filterPass(f, lid, rid)
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
	if c := bx.tbl.colIndex(o.name); c >= 0 {
		return bx.tbl.cols[c]
	}
	return nil
}

// emitRows emits the table: each surviving row's ids are installed in
// the evaluator's solution slots (the table's columns are mapped to
// slots once per call, every other slot reads unbound), then the row is
// emitted — directly, or through the tuple-at-a-time OPTIONAL matcher,
// which extends the solution in the same slots before emitting.
func (bx *batchExec) emitRows(optionals [][]idPattern, lateFilters []*cfilter) error {
	ev := bx.ev
	tbl := &bx.tbl
	clear(ev.cur) // drop ids left over from a previous union branch
	if len(optionals) == 0 && len(lateFilters) == 0 && ev.keepsEveryRow() {
		// Every table row becomes a result row: size the cells once
		// instead of doubling into them.
		n := tbl.n
		if ev.target > 0 {
			n = min(n, ev.target-ev.res.n)
		}
		ev.res.cells = slices.Grow(ev.res.cells, n*len(ev.projSlots))
	}
	colSlot := make([]int, len(tbl.vars))
	for c, name := range tbl.vars {
		colSlot[c] = ev.slots[name]
	}
	for r := 0; r < tbl.n && !ev.done; r++ {
		if !ev.tickOK() {
			return ev.ctxErr
		}
		for c, s := range colSlot {
			ev.cur[s] = tbl.cols[c][r]
		}
		if err := ev.runOptionals(optionals, 0, lateFilters); err != nil {
			return err
		}
	}
	return nil
}
