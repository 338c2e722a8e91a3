package sparql

// This file implements the vectorized batch execution engine under the
// SPARQL evaluator. A basic graph pattern is evaluated against a
// columnar binding table: one []core.ID column per variable, one join
// step per triple pattern.
//
// A step either narrows the rows it is given or expands them (paper
// §4.2 — every Hexastore vector and terminal list is sorted, so pairwise
// joins are linear merge-joins):
//
//   - filter: the pattern binds no new variable. When the pattern is one
//     join column against two constants, its sorted candidate list is
//     merge-intersected against the column with galloping
//     (idlist.MergeFilter); otherwise each row is an existence probe.
//   - semijoin: the pattern's one free position holds an existential
//     variable — one that occurs nowhere else in the branch and that no
//     output, FILTER, ORDER BY or OPTIONAL reads — in a query whose
//     answer is a set (DISTINCT, ASK, or COUNT(DISTINCT) aggregates
//     only), so how many matches a row has cannot change the answer.
//     The step binds nothing and keeps the rows with at least one match:
//     over a sorted column, one forward pass of the column over the keys
//     of the vector the constant heads (semi-merge, graph.KeySource);
//     elsewhere one question per distinct column value, answered by the
//     step's key cursor (below) or a zero-copy list view (semi-probe).
//   - expansion: the pattern binds new variables. Candidate values come
//     from the backend's sorted lists (graph.SortedSource) and are
//     appended to the output columns with bulk slice copies — a batched
//     bind join with no per-triple callback into the evaluator. A row
//     whose substituted pattern equals the previous row's reuses the
//     candidates already fetched. When a later step binds nothing and
//     closes a cycle through the one variable the expansion binds — its
//     other positions constants or columns bound before the expansion,
//     one at least a column — the expansion intersects each row's
//     candidates with that step's list for the row and the later step is
//     folded away: the triangle's per-row probes become one merge.
//   - left-outer: an OPTIONAL group, after the required steps. Its entry
//     copies the piece, headed by a column of row numbers, and runs the
//     group's patterns on the copy in text order as steps of the kinds
//     above; its end marker passes on the rows that reach it and notes
//     their numbers; then the piece's rows no match reached pass on, the
//     group's columns None (unbound). A piece leaves a column an earlier
//     group binds unbound in all its rows or in none, so a step fetches
//     such a column as free for the pieces that leave it so.
//
// A per-row list of one column, one constant and one free position — an
// expansion's candidates, a folded step's list, a semijoin's match — is
// a list of the vector the constant heads, keyed by the column's
// position. On a backend with key cursors (graph.KeySource: the sealed
// memory store, and an overlay with nothing pending) each step opens one
// cursor over that vector per executor and seeks it to each row's value:
// the step walks one vector in place instead of looking a record up per
// row, and a value behind the cursor restarts it from the vector's skip
// table, which costs what the lookup did. Other backends look each list
// up (graph.ViewSource, graph.SortedSource).
//
// Every candidate list comes from graph.SortedOf, so a backend without
// sorted storage of its own (the flat baseline table) runs the same
// steps over lists its adapter sorts from Match output. Every form is
// decided from the query's structure when the branch is planned, so the
// join order, the plan cache and the rows are the same with or without
// key cursors and views.
//
// The join is bounded by construction: every step hands its output to
// the next in pieces of at most chunkRows rows, depth first. A branch
// starts from the unit table (one row, no columns); a filter step
// discards rows of the piece it is given in place — a piece of a sorted
// column is still sorted, so the galloping merge stays licensed — and an
// expansion appends into its own bounded output piece, and whenever that
// piece fills, even in the middle of one row's candidates, runs the rest
// of the branch on it before it resumes. The first step that binds a
// variable is an expansion of the unit table like any other; its pieces,
// the chunks of the seed, are views of the lists it fetched. So the
// binding table at any step depth is never more than one piece, whatever
// the fan-out, and governed and ungoverned queries run one code path.
// What a step fetches that does not depend on the row — a merge filter's
// candidate list, the shared lists of an expansion with no bound column
// (the seed's among them), a constant pattern's existence — is fetched by
// the first piece that reaches the step and held for the branch (a disk
// backend pays a B+-tree scan for each). The seed is still fetched in
// full before its first piece runs, on every backend: a LIMIT stops the
// pipeline between pieces, not inside the seed's fetch. See parallel.go
// for how seed pieces spread over workers.
//
// Rows stay dictionary-encoded IDs into the result (late
// materialization): DISTINCT and GROUP BY number id tuples (idtable.go),
// and a term is decoded only when the result is read. A GROUP BY count or
// a DISTINCT keyed on one variable ?g whose one pattern that is not a
// semijoin has a constant, ?g and one other variable bypasses the
// pipeline on a backend with key cursors (walkGroups, exec.go): a key
// cursor walks the vector the constant heads a group — one entry — at a
// time, each semijoin is a bitset of its vector's keys, and a count is
// how many of a list's values the bitsets keep, with no semijoin on them
// its length.

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/idlist"
	"hexastore/internal/obs"
)

// chunkRows is the most rows one piece of a step's output carries.
// Large enough that per-piece bookkeeping vanishes beside the row loops,
// small enough that a piece stays in cache. It is a constant of the
// engine: only the chunk-boundary tests assign it.
var chunkRows = 1024

// errStop unwinds a branch that needs no more rows: its LIMIT or ASK is
// answered. It never leaves runBatch.
var errStop = errors.New("sparql: internal: branch stopped")

// batchTable is the columnar binding table: cols[i] holds the value of
// variable vars[i] for every row. n is the row count; the unit table (one
// row, no columns) is what a branch starts from, so seeding and cross
// products need no special casing. sorted[i] records that cols[i] is
// non-decreasing, which is what licenses the galloping merge in filter
// steps. vars and sorted belong to the branch's plan (the schema after a
// step is the same for every piece).
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

// col returns the table column of a pattern with one bound column.
func (sp *stepSpec) col() int { return max(sp.colAt[0], sp.colAt[1], sp.colAt[2]) }

// stepPlan is one join step of a branch: its pattern classified once
// against the schema the steps before it leave, the FILTERs staged in
// front of it, and the part of its work that is the same for every piece.
type stepPlan struct {
	stepSpec
	hint    stepHint   // the planner's access-path choice (advisory: it biases merge-vs-probe, never the rows)
	filters []*cfilter // staged FILTERs applied before the step
	last    bool       // final join step of the branch: the one a row cap applies to
	vars    []string   // schema after the step
	sorted  []bool

	// A semijoin step (semi) — one column, one constant and one free
	// position, the free one existential — binds nothing: it keeps the
	// rows with a match. merge names its EXPLAIN kind: the column is
	// sorted and the backend has key cursors, so the step's seeks only
	// ever walk forward.
	semi, merge bool

	// walk: the step reads its per-row lists from a key cursor (keyWalk)
	// — its own fetch, its folded step's or both — so EXPLAIN shows
	// access=cursor.
	walk bool

	// isect is the fetch pattern, for the rows of this expansion, of the
	// later step folded into it — its one position on the new variable
	// free; nil when none is.
	isect *stepSpec

	// A left-outer group is the steps between two markers, its entry
	// (opens) and its end (closes), each with the other's index in mate.
	opens, closes bool
	mate          int

	// nullable lists the columns of the pattern an earlier group may
	// leave unbound; wild[m-1], for the bit mask m of those a piece leaves
	// so, is the step's form that fetches them as free, and its fill maps
	// each new variable to the column it fills, -1 for one of its own.
	nullable []int
	wild     []stepPlan
	fill     []int

	// Tracing (span stays nil with tracing off): the step's span opens
	// when the first piece reaches it and closes when the branch ends,
	// named after pat, numbered num in the plan's order and carrying est,
	// the planner's cardinality estimate (-1 in a group). foldPat and
	// foldEst are those of the step folded into this one, whose span is
	// opened beside it.
	pat     fmt.Stringer
	num     int
	est     int64
	foldPat fmt.Stringer
	foldEst int64
	span    *obs.Span

	// The row-independent fetch, made by the first piece that reaches the
	// step (fetchShared) and read-only afterwards: whether a constant
	// pattern exists, the candidate view of a one-column merge filter, or
	// the candidate lists of an expansion with no bound column. lists
	// backs view when the backend has no zero-copy one.
	fetch, open sync.Once
	err         error
	exists      bool
	view        idlist.View
	lists       [3][]core.ID
}

// branchRun is one union branch's join as the pipeline sees it.
type branchRun struct {
	steps   []stepPlan
	tail    []*cfilter // FILTERs staged after the last step
	colSlot []int      // solution slot of each column of the joined table
	slotCol []int      // per solution slot, the column that binds it; -1 for none
	// capped: nothing after the join can reject or merge rows, so the
	// last step needs to produce only as many rows as are still wanted.
	// emitsAll: every joined row becomes a result row.
	capped, emitsAll bool
	// from is the depth seed pieces arrive at: the step after the first
	// one that binds a variable.
	from int

	// The lanes seed pieces run on (parallel.go; nil: the driver runs
	// them itself): next pieces handed out, drained of them emitted or
	// discarded, stop set by the driver once the branch wants no more rows.
	lanes         []*batchExec
	next, drained int
	stop          bool
	wg            sync.WaitGroup

	// span is the branch's span and emitSp the one emission accumulates
	// into; both nil with tracing off.
	span, emitSp *obs.Span
}

// batchExec is a join executor: one output piece per step depth and the
// scratch that outlives pieces. The evaluator's own (ev.batch) plans each
// branch, runs it from the unit table and emits; with more than one
// worker it is the driver that hands seed pieces to the lanes, executors
// of their own (parallel.go).
type batchExec struct {
	ev     *evaluator
	src    graph.Graph
	sorted graph.SortedSource // graph.SortedOf(src)
	views  graph.ViewSource   // nil → no zero-copy candidate views
	keys   graph.KeySource    // nil → no key cursors: per-row lists are looked up

	// workers is the intra-query parallelism budget for this evaluation
	// (see parallel.go); only the driver has one, and 1 keeps every piece
	// on the calling goroutine.
	workers int

	// Cancellation and term decoding private to the goroutine running the
	// executor, so lanes share neither a counter nor a cache.
	cancelTick
	terms termReader

	// Reusable buffers, pooled between evaluations (see scratch), and
	// what the meter carries for the executor's pieces until the branch
	// ends.
	*scratch
	held int64

	// Lane state (parallel.go): the seed piece handed over, the queue of
	// finished pieces, and the slots those pieces travel in and come back
	// through.
	jobs  chan batchTable
	out   chan *piece
	slots chan *piece
	piece [laneQueue]piece

	// Set while planning a branch: its span, the planner's per-step
	// estimates and access-path hints, each aligned with the order, and
	// the branch's existential variables (nil: the query's answer is not
	// a set, so none is).
	branchSp  *obs.Span
	stepEsts  []float64
	stepHints []stepHint
	exist     map[string]bool
}

// level is what a step keeps on one executor: the piece an expansion's
// output accumulates in; the candidates of the row being expanded — a
// and b for the free positions, c what is left of a after a folded
// step's list for the row narrows it — and the substituted pattern key
// they were fetched for (have: a and b still hold its candidates, so a
// row with the same key reuses them); lst, the per-row list an
// intersection or a semi-probe reads when the backend has no zero-copy
// view; the key cursors the step's own per-row lists and its folded
// step's come from (walk, fold); what the meter carries for the
// buffers; and on a group's entry, the rows a match reached (hit).
type level struct {
	out        batchTable
	a, b, c    []core.ID
	lst        []core.ID
	key        [3]core.ID
	have       bool
	walk, fold keyWalk
	held       int64
	hit        []bool
}

// keyWalk is the key cursor of one per-row fetch — one column, one
// constant and one free position — on one executor: over the vector the
// constant heads, keyed by the column's position, whose entries' lists
// hold the free position's values. The first row opens it for its
// fetch pattern sp (a step's forms for unbound columns take turns on one
// level); every later row seeks it to the row's value, so a step walks
// one vector instead of looking a list up per row, and a row whose value
// is behind the cursor's costs no more than that lookup.
type keyWalk struct {
	cur idlist.KeyCursor
	sp  *stepSpec
}

// walks reports whether sp's per-row list comes from a key cursor: the
// backend has them and sp is one column, one constant and one free
// position.
func (bx *batchExec) walks(sp *stepSpec) bool {
	return bx.keys != nil && sp.nCols == 1 && sp.nFree == 1
}

// cursor returns the walk's cursor, opening it for sp unless it is open
// for sp already.
func (w *keyWalk) cursor(keys graph.KeySource, sp *stepSpec) *idlist.KeyCursor {
	if w.sp != sp {
		head := slices.Index(sp.kind[:], posConst)
		w.cur, w.sp = keys.KeyCursor(head, slices.Index(sp.kind[:], posCol), sp.ids[head]), sp
	}
	return &w.cur
}

// seek returns the list of sp's free position for column value v.
func (w *keyWalk) seek(keys graph.KeySource, sp *stepSpec, v core.ID) idlist.View {
	if c := w.cursor(keys, sp); c.Seek(v) {
		return c.View()
	}
	return idlist.View{}
}

// scratch is what keeps an executor's steady state allocation-free: free
// holds the column buffers no piece uses — every column of every piece
// comes from it and goes back to it — beside the row-index buffer of the
// filter kernels, the levels (levels[k] is step k's output piece and
// candidate buffers), the column header of the seed piece in flight and
// the bitsets of a group walk.
// An evaluation takes its executors' scratch from scratchPool and
// returns it when it ends, so a query also starts with the buffers an
// earlier one grew.
type scratch struct {
	free     [][]core.ID
	keep     []int
	levels   []level
	seedCols [][]core.ID
	bits     []uint64
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

// hold accounts n more bytes the executor keeps until the branch ends.
func (bx *batchExec) hold(n int64) error {
	if err := bx.ev.mem.Grow(n); err != nil {
		return err
	}
	bx.held += n
	return nil
}

// release gives back what the executor held for a branch: its pieces'
// and candidates' buffers to its free list, and the bytes the meter
// carries for them, which it returns.
func (bx *batchExec) release() int64 {
	for k := range bx.levels {
		lv := &bx.levels[k]
		bx.free = append(bx.free, lv.out.cols...)
		for _, buf := range [4][]core.ID{lv.a, lv.b, lv.c, lv.lst} {
			if buf != nil {
				bx.free = append(bx.free, buf)
			}
		}
	}
	clear(bx.levels)
	held := bx.held
	bx.held = 0
	return held
}

// planBranch classifies the ordered patterns, then the OPTIONAL groups'
// (planGroups), against the schema each step inherits and stages the
// FILTERs.
func (bx *batchExec) planBranch(pats []idPattern, order []int, stepFilters [][]*cfilter) *branchRun {
	ev := bx.ev
	br := &branchRun{
		steps: make([]stepPlan, len(order)),
		tail:  stepFilters[len(order)],
		from:  len(order), // nothing binds: the unit table is the seed
	}
	br.span = bx.branchSp
	br.emitsAll = !ev.aggMode && ev.distinct == nil && ev.topK == 0
	var vars []string
	var sorted []bool
	for k, pi := range order {
		st := &br.steps[k]
		st.stepSpec = classify(&pats[pi], vars)
		st.filters = stepFilters[k]
		if k < len(bx.stepHints) {
			st.hint = bx.stepHints[k]
		}
		if isSemi(&st.stepSpec, bx.exist) {
			st.semi, st.newNames = true, nil
			st.merge = bx.keys != nil && sorted[st.col()]
		}
		// A single sorted fetch expanding the unit table seeds a genuinely
		// sorted first column (SortedList values, or the first position of
		// a SortedPairs stream); everything else is only sorted within runs.
		seeds := len(vars) == 0 && len(st.newNames) > 0
		for i, name := range st.newNames {
			vars = append(vars, name)
			sorted = append(sorted, seeds && i == 0 && st.nFree <= 2)
		}
		st.vars, st.sorted = vars, sorted
		if seeds {
			br.from = k + 1
		}
		st.pat, st.num = &pats[pi].pat, k+1
		if bx.stepEsts != nil {
			st.est = int64(bx.stepEsts[k])
		}
	}
	for k := 0; k < len(br.steps); k++ {
		br.fold(k)
	}
	vars = br.planGroups(ev.optionals, vars, sorted, stepFilters[len(order)+1])
	for k := range br.steps {
		st := &br.steps[k]
		st.last = k == len(br.steps)-1
		st.walk = bx.walks(&st.stepSpec) && (st.semi || len(st.newNames) > 0) || st.isect != nil && bx.walks(st.isect)
	}
	br.capped = br.emitsAll && ev.target > 0 && len(br.tail) == 0 && len(ev.optionals) == 0
	br.colSlot = make([]int, len(vars))
	br.slotCol = make([]int, len(ev.slots))
	for s := range br.slotCol {
		br.slotCol[s] = -1
	}
	for c, name := range vars {
		br.colSlot[c] = ev.slots[name]
		br.slotCol[ev.slots[name]] = c
	}
	return br
}

// planGroups appends the left-outer groups to the branch's steps: an
// entry, the patterns and an end marker each (a group with a constant
// the dictionary lacks changes no row and is left out). The FILTERs
// after the required steps move in front of the first entry, and late
// ones after the last group. It returns the branch's final schema.
func (br *branchRun) planGroups(groups [][]idPattern, vars []string, sorted []bool, late []*cfilter) []string {
	nullable := map[string]bool{}
	for _, group := range groups {
		if slices.ContainsFunc(group, func(p idPattern) bool { return !p.resolved }) {
			continue
		}
		in := len(br.steps)
		br.steps = append(br.steps, make([]stepPlan, len(group)+2)...)
		entry, end := &br.steps[in], &br.steps[in+len(group)+1]
		entry.opens, entry.mate, end.closes, end.mate = true, in+len(group)+1, true, in
		entry.filters, br.tail = br.tail, nil
		entry.pat, entry.num, entry.est = optGroup(group), in+1, -1
		// Column 0, named "" (no variable's name), numbers the rows.
		vars, sorted = append([]string{""}, vars...), append([]bool{false}, sorted...)
		entry.vars, entry.sorted = vars, sorted
		for i := range group {
			st := &br.steps[in+1+i]
			st.stepSpec = classify(&group[i], vars)
			for _, c := range st.colAt {
				if c >= 0 && nullable[vars[c]] && !slices.Contains(st.nullable, c) {
					st.nullable = append(st.nullable, c)
				}
			}
			st.wild = make([]stepPlan, 1<<len(st.nullable)-1)
			for m := range st.wild {
				masked := slices.Clone(vars)
				for b, c := range st.nullable {
					if (m+1)>>b&1 != 0 {
						masked[c] = ""
					}
				}
				w := &st.wild[m]
				w.stepSpec = classify(&group[i], masked)
				for _, name := range w.newNames {
					w.fill = append(w.fill, slices.Index(vars, name))
				}
			}
			vars, sorted = append(vars, st.newNames...), append(sorted, make([]bool, len(st.newNames))...)
			st.vars, st.sorted = vars, sorted
			st.pat, st.num, st.est = &group[i].pat, in+2+i, -1
		}
		for _, name := range vars[len(entry.vars):] {
			nullable[name] = true
		}
		vars, sorted = vars[1:], sorted[1:]
		end.vars, end.sorted = vars, sorted
	}
	br.tail = append(br.tail, late...)
	return vars
}

// optGroup is an OPTIONAL group, which names its entry's span.
type optGroup []idPattern

func (g optGroup) String() string {
	s := "OPTIONAL {"
	for i := range g {
		s += " " + g[i].pat.String()
	}
	return s + " }"
}

// isSemi reports whether sp — a pattern classified against the schema
// its step inherits — is a semijoin: one bound column, one constant, and
// one free position whose variable is existential.
func isSemi(sp *stepSpec, exist map[string]bool) bool {
	return sp.nCols == 1 && sp.nFree == 1 && exist[sp.newNames[0]]
}

// fold looks for a later step that closes a cycle through the variable
// X expansion k binds — it binds nothing, mentions X once, and its other
// positions are constants or columns bound before k, one at least a
// column — and folds the first one into k: k intersects each row's
// candidates with the later step's list for the row (st.isect), and the
// later step leaves the branch, its staged FILTERs moving to the step
// after it.
func (br *branchRun) fold(k int) {
	st := &br.steps[k]
	if st.semi || len(st.newNames) != 1 || st.nFree != 1 || st.nCols == 0 {
		return
	}
	x := len(st.vars) - 1 // X's column
	for j := k + 1; j < len(br.steps); j++ {
		sj := &br.steps[j]
		if sj.nFree != 0 {
			continue
		}
		onX, before, after := 0, 0, false
		for _, c := range sj.colAt {
			switch {
			case c == x:
				onX++
			case c >= 0 && c < x:
				before++
			case c > x:
				after = true
			}
		}
		if onX != 1 || before == 0 || after {
			continue
		}
		isect := sj.stepSpec
		px := slices.Index(isect.colAt[:], x)
		isect.kind[px], isect.colAt[px], isect.ids[px] = posFree, -1, core.None
		isect.nCols--
		isect.nFree++
		st.isect = &isect
		st.foldPat, st.foldEst = sj.pat, sj.est
		if j+1 < len(br.steps) {
			next := &br.steps[j+1]
			next.filters = append(slices.Clip(sj.filters), next.filters...)
		} else {
			br.tail = append(slices.Clip(sj.filters), br.tail...)
		}
		br.steps = slices.Delete(br.steps, j, j+1)
		return
	}
}

// runBatch joins the ordered patterns and left-joins the OPTIONAL
// groups: the unit table goes through the steps depth first, each staged
// filter applied as soon as its variables are bound, and the pieces that
// leave the last step are emitted (emitPiece).
func (bx *batchExec) runBatch(pats []idPattern, order []int, stepFilters [][]*cfilter) error {
	ev := bx.ev
	br := bx.planBranch(pats, order, stepFilters)
	defer bx.endBranch(br)
	if gw, ok := ev.planGroupWalk(pats); ok {
		return ev.walkGroups(br, pats, order, gw)
	}
	if ev.aggMode {
		ev.keyDistinct(br)
	}
	clear(ev.cur) // drop ids left over from a previous union branch

	if br.span != nil {
		// The emit span opens with the first piece emitted (emitPiece).
		decoded := ev.terms.decoded
		defer func() {
			br.emitSp.SetInt("emitted", int64(ev.res.n))
			br.emitSp.SetInt("termsDecoded", int64(ev.terms.decoded-decoded))
			br.emitSp.Finish()
		}()
	}
	err := bx.run(br, 0, &batchTable{n: 1})
	if br.lanes != nil {
		err = bx.joinLanes(br, err)
	}
	if err == errStop {
		err = nil
	}
	return err
}

// endBranch gives back what the branch held: the shared fetches' lists
// and every executor's pieces to the free lists, their bytes to the
// meter, and closes the step spans.
func (bx *batchExec) endBranch(br *branchRun) {
	held := bx.release()
	for _, ln := range br.lanes {
		for i := range ln.piece {
			p := &ln.piece[i]
			ln.free = append(ln.free, p.tbl.cols...)
			p.tbl.cols = p.tbl.cols[:0]
		}
		held += ln.release()
	}
	for k := range br.steps {
		st := &br.steps[k]
		for _, l := range st.lists {
			if l != nil {
				bx.free = append(bx.free, l)
			}
		}
		st.span.Finish()
	}
	bx.ev.mem.Shrink(held)
}

// run takes piece in through steps k onward, depth first: filter steps
// narrow it in place, the first expansion or group entry takes it over
// (expand, leftOuter), and what leaves the last step is emitted — or, on
// a lane, queued for the driver to emit. On the driver, a seed piece
// goes to a lane instead when the branch runs on several (parallel.go).
func (bx *batchExec) run(br *branchRun, k int, in *batchTable) error {
	for ; ; k++ {
		if k == br.from && bx.workers > 0 {
			bx.ev.chunks++
			if br.lanes != nil || bx.fansOut(br) {
				return bx.dispatch(br, in)
			}
		}
		if k == len(br.steps) {
			break
		}
		st := &br.steps[k]
		if err := bx.ctxCheck(); err != nil {
			return err
		}
		for _, f := range st.filters {
			if err := bx.filterRows(f, in); err != nil {
				return err
			}
		}
		if in.n == 0 {
			return nil
		}
		if st.closes {
			// A group's end: mark the rows that reached it, drop their numbers.
			hit := bx.levelAt(br, st.mate).hit
			for _, r := range in.cols[0][:in.n] {
				hit[r] = true
			}
			br.steps[st.mate].span.Add("rowsOut", int64(in.n))
			in = &batchTable{vars: st.vars, sorted: st.sorted, cols: in.cols[1:], n: in.n}
			continue
		}
		if br.span != nil {
			sp := st.openSpan(br.span)
			sp.Add("chunks", 1)
			sp.Add("rowsIn", int64(in.n))
		}
		if st.opens {
			return bx.leftOuter(br, k, in)
		}
		// The form of st for the nullable columns the piece leaves unbound.
		m := 0
		for b, c := range st.nullable {
			if in.cols[c][0] == core.None {
				m |= 1 << b
			}
		}
		if m > 0 {
			st = &st.wild[m-1]
		}
		if len(st.newNames) > 0 {
			return bx.expand(br, k, st, in)
		}
		var err error
		if st.semi {
			err = bx.semiFilter(br, k, in, bx.capLeft(br, st))
		} else {
			err = bx.filterStep(st, in, bx.capLeft(br, st))
		}
		if err != nil {
			return err
		}
		st.span.Add("rowsOut", int64(in.n))
		if in.n == 0 {
			return nil
		}
	}
	for _, f := range br.tail {
		if err := bx.filterRows(f, in); err != nil {
			return err
		}
	}
	if in.n == 0 {
		return nil
	}
	if bx.out != nil {
		return bx.queue(in)
	}
	if err := bx.ev.emitPiece(br, in); err != nil {
		return err
	}
	if bx.ev.done {
		return errStop
	}
	return nil
}

// capLeft is how many rows step st may still produce: what a capped
// branch still wants, on its last step; -1 (no cap) anywhere else.
// Capped branches run on the driver, so the count it reads is current.
func (bx *batchExec) capLeft(br *branchRun, st *stepPlan) int {
	if !br.capped || !st.last {
		return -1
	}
	return bx.ev.target - bx.ev.res.n
}

// openSpan returns the step's span, starting it under parent on the
// first call with what planning decided: a semijoin's or a group entry's
// kind, the pattern an expansion intersects with, and — right after it —
// the span of that folded step, which never runs.
func (st *stepPlan) openSpan(parent *obs.Span) *obs.Span {
	st.open.Do(func() {
		st.span = parent.ChildOf("step", st.pat)
		st.span.SetInt("estRows", st.est)
		for i := range st.wild {
			st.wild[i].span = st.span
		}
		if st.semi {
			st.span.Set("kind", st.semiKind())
		}
		if st.opens {
			st.span.Set("kind", "left-outer")
		}
		if st.walk {
			st.span.Set("access", "cursor")
		}
		if st.foldPat != nil {
			st.span.Set("intersect", st.foldPat)
			sp := parent.ChildOf("step", st.foldPat)
			sp.SetInt("estRows", st.foldEst)
			sp.Set("kind", "folded")
			sp.Set("into", "step "+strconv.Itoa(st.num))
			sp.Finish()
		}
	})
	return st.span
}

func (st *stepPlan) semiKind() string {
	if st.merge {
		return "semi-merge"
	}
	return "semi-probe"
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

// subst returns the value of position j for row r of tbl: the constant,
// or the row's value of the bound column. Free positions return None.
func subst(sp *stepSpec, tbl *batchTable, j, r int) core.ID {
	if sp.colAt[j] >= 0 {
		return tbl.cols[sp.colAt[j]][r]
	}
	return sp.ids[j]
}

// fetchShared makes the step's row-independent fetch if no piece has
// yet: whichever lane reaches the step first pays for it, the others
// wait and then read. The lists it keeps — the seed's too — are held by
// the executor that fetched them until the branch ends. limit bounds a
// pair or triple collection (see fetchOnce).
func (bx *batchExec) fetchShared(sp *stepPlan, limit int) error {
	sp.fetch.Do(func() {
		if sp.err = bx.fetchOnce(sp, limit); sp.err == nil {
			sp.err = bx.hold(int64(len(sp.lists[0])+len(sp.lists[1])+len(sp.lists[2])) * 8)
		}
	})
	return sp.err
}

func (bx *batchExec) fetchOnce(sp *stepPlan, limit int) error {
	var err error
	switch {
	case len(sp.newNames) > 0:
		// The candidates of an expansion none of whose positions is a
		// column: one list per new variable, shared by every row. The row
		// cap bounds them — it only shrinks as rows are emitted, so the
		// piece that fetches has the loosest one any piece will need.
		s, p, o := sp.ids[0], sp.ids[1], sp.ids[2]
		switch sp.nFree {
		case 1:
			sp.lists[0], err = bx.sorted.AppendSortedList(bx.getCol(), s, p, o)
		case 2:
			sp.lists[0], sp.lists[1], err = bx.fetchPair(&sp.stepSpec, s, p, o, limit, bx.getCol(), bx.getCol())
		default:
			err = bx.fetchAll(sp, limit)
		}
		if err == nil {
			err = bx.ctxErr
		}
		sp.span.SetInt("candidates", int64(len(sp.lists[0])))
	case sp.nCols == 0:
		sp.exists, err = bx.src.Has(sp.ids[0], sp.ids[1], sp.ids[2])
	default:
		sp.view, err = bx.candidateView(sp)
		sp.span.SetInt("candidates", int64(sp.view.Len()))
	}
	return err
}

// filterStep handles patterns that bind nothing new: every position is
// a constant or a join column, so the step only discards rows of tbl, in
// place. A non-negative limit keeps at most that many.
func (bx *batchExec) filterStep(sp *stepPlan, tbl *batchTable, limit int) error {
	switch {
	case sp.nCols == 0:
		// Fully constant pattern: one existence probe decides all rows.
		sp.span.Set("kind", "const-probe")
		if err := bx.fetchShared(sp, -1); err != nil {
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
		if err := bx.fetchShared(sp, -1); err != nil {
			return err
		}
		c := sp.col()
		keep := bx.keep[:0]
		if tbl.sorted[c] {
			sp.span.Set("kind", "merge")
			idlist.MergeFilterView(tbl.cols[c], sp.view, func(i int) { keep = append(keep, i) })
		} else {
			sp.span.Set("kind", "probe-list")
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
		sp.span.Set("kind", "probe")
		if sp.nCols == 1 {
			sp.span.Set("access", "hinted")
		}
		return bx.probeFilter(sp, tbl, limit)
	}
}

// semiFilter runs semijoin step k over tbl, in place: it keeps the rows
// whose substituted pattern — the existential position free — has at
// least one match. A sorted column and a backend with key cursors take
// one forward pass of the column over the keys of the constant's vector,
// galloping the column past keys it lacks (semi-merge). Otherwise each
// distinct column value asks once, a row repeating the previous row's
// value reusing the answer: the step's key cursor seeks to it where the
// backend has key cursors, and elsewhere the row fetches the pattern's
// list, as a zero-copy view where the backend has one (semi-probe). A
// non-negative limit keeps at most that many.
func (bx *batchExec) semiFilter(br *branchRun, k int, tbl *batchTable, limit int) error {
	sp := &br.steps[k]
	col := tbl.cols[sp.col()]
	keep := bx.keep[:0]
	lv := bx.levelAt(br, k)
	if sp.merge {
		var w keyWalk // the piece's own: pieces of a column need not come in order
		cur := w.cursor(bx.keys, &sp.stepSpec)
		for i := 0; i < len(col) && (limit < 0 || len(keep) < limit); {
			key, ok := cur.SeekGE(col[i])
			switch {
			case !ok:
				i = len(col)
			case key == col[i]:
				keep = append(keep, i)
				i++
			default:
				i = idlist.Gallop(col, i+1, key)
			}
		}
	} else {
		walk := bx.walks(&sp.stepSpec)
		found := false
		for r, v := range col {
			if !bx.tickOK() {
				return bx.ctxErr
			}
			if limit >= 0 && len(keep) >= limit {
				break
			}
			if r == 0 || v != col[r-1] {
				if walk {
					found = lv.walk.cursor(bx.keys, &sp.stepSpec).Seek(v)
				} else {
					s, p, o := subst(&sp.stepSpec, tbl, 0, r), subst(&sp.stepSpec, tbl, 1, r), subst(&sp.stepSpec, tbl, 2, r)
					list, err := bx.listView(lv, s, p, o)
					if err != nil {
						return err
					}
					found = list.Len() > 0
				}
			}
			if found {
				keep = append(keep, r)
			}
		}
	}
	tbl.compact(keep)
	bx.keep = keep
	return nil
}

// listView returns the sorted values of the one free position of the
// 2-bound pattern ⟨s,p,o⟩: a zero-copy view from a ViewSource backend,
// else a view of the level's list buffer, appended by the SortedSource.
// The buffer is accounted as it grows.
func (bx *batchExec) listView(lv *level, s, p, o core.ID) (idlist.View, error) {
	if bx.views != nil {
		if v, ok, err := bx.views.SortedListView(s, p, o); ok || err != nil {
			return v, err
		}
	}
	if lv.lst == nil {
		lv.lst = bx.getCol()
	}
	var err error
	lv.lst, err = bx.sorted.AppendSortedList(lv.lst[:0], s, p, o)
	if err == nil {
		err = bx.account(lv)
	}
	return idlist.ViewOf(lv.lst), err
}

// account grows what the meter carries for the level's candidate and
// list buffers to what they now hold: one row's lists may be many ids.
func (bx *batchExec) account(lv *level) error {
	n := int64(len(lv.a)+len(lv.b)+len(lv.c)+len(lv.lst)) * 8
	if n <= lv.held {
		return nil
	}
	if err := bx.hold(n - lv.held); err != nil {
		return err
	}
	lv.held = n
	return nil
}

// probeFilter keeps the rows of tbl whose substituted pattern exists in
// the store: one indexed Has per row.
func (bx *batchExec) probeFilter(sp *stepPlan, tbl *batchTable, limit int) error {
	keep := bx.keep[:0]
	for r := 0; r < tbl.n; r++ {
		if !bx.tickOK() {
			return bx.ctxErr
		}
		if limit >= 0 && len(keep) >= limit {
			break
		}
		ok, err := bx.src.Has(subst(&sp.stepSpec, tbl, 0, r), subst(&sp.stepSpec, tbl, 1, r), subst(&sp.stepSpec, tbl, 2, r))
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
// overlay over one), else a view over a list the step keeps, appended by
// the SortedSource.
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
	ids, err := bx.sorted.AppendSortedList(bx.getCol(), sp.ids[0], sp.ids[1], sp.ids[2])
	sp.lists[0] = ids
	return idlist.ViewOf(ids), err
}

// appendRun appends k copies of v to dst.
func appendRun(dst []core.ID, v core.ID, k int) []core.ID {
	for i := 0; i < k; i++ {
		dst = append(dst, v)
	}
	return dst
}

// expand runs expansion st at step k — a pattern binding one or two new
// variables (three only for the all-free pattern) — over piece in. The
// candidate values of the free positions come from one sorted-list or
// sorted-pairs access per row, or from the step's shared fetch when the
// bound positions are all constants; they are spliced onto the step's
// output piece with bulk appends, and each time that piece reaches
// chunkRows rows the rest of the branch runs on it (flush) before the
// expansion resumes where it stopped — mid-row if need be, without
// fetching the row again. A form for unbound columns writes its values
// for them into those columns (fill).
func (bx *batchExec) expand(br *branchRun, k int, st *stepPlan, in *batchTable) error {
	if st.span != nil {
		st.span.Set("kind", "expand")
		st.span.Set("newVars", strings.Join(st.newNames, ","))
	}
	limit := bx.capLeft(br, st)
	if st.nCols == 0 {
		if err := bx.fetchShared(st, limit); err != nil {
			return err
		}
	}
	nOld, nNew := len(in.cols), len(st.newNames)
	if nOld == 0 {
		return bx.seed(br, k, limit)
	}
	lv, err := bx.level(br, k, len(br.steps[k].vars))
	if err != nil {
		return err
	}
	out := &lv.out
	news := st.lists
	for r := 0; r < in.n; r++ {
		if !bx.tickOK() {
			return bx.ctxErr
		}
		left := -1
		if limit >= 0 {
			// Rows still in the output piece are not emitted yet.
			if left = bx.capLeft(br, st) - out.n; left <= 0 {
				break
			}
		}
		if st.nCols > 0 {
			if news[0], news[1], err = bx.candidates(lv, st, in, r, left); err != nil {
				return err
			}
		}
		n := len(news[0])
		if left >= 0 {
			n = min(n, left)
		}
		for off := 0; off < n; {
			m := min(n-off, chunkRows-out.n)
			for c := 0; c < nOld; c++ {
				out.cols[c] = appendRun(out.cols[c], in.cols[c][r], m)
			}
			for j, c := 0, nOld; j < nNew; j++ {
				if st.fill != nil && st.fill[j] >= 0 {
					copy(out.cols[st.fill[j]][out.n:], news[j][off:off+m])
					continue
				}
				out.cols[c] = append(out.cols[c], news[j][off:off+m]...)
				c++
			}
			out.n += m
			off += m
			if out.n == chunkRows {
				if err := bx.flush(br, k, out); err != nil {
					return err
				}
			}
		}
	}
	if out.n > 0 {
		return bx.flush(br, k, out)
	}
	return nil
}

// leftOuter runs group entry k over piece in: the group's steps take a
// copy of the piece headed by its row numbers, then the rows no match
// reached pass on from the group's end, its columns None.
func (bx *batchExec) leftOuter(br *branchRun, k int, in *batchTable) error {
	st, end := &br.steps[k], &br.steps[br.steps[k].mate]
	lv, err := bx.level(br, k, 1+len(end.vars))
	if err != nil {
		return err
	}
	cols := lv.out.cols
	cols[0] = cols[0][:0]
	for r := range in.n {
		cols[0] = append(cols[0], core.ID(r))
	}
	for c, col := range in.cols {
		cols[1+c] = append(cols[1+c][:0], col[:in.n]...)
	}
	lv.hit = append(lv.hit[:0], make([]bool, in.n)...)
	group := batchTable{vars: st.vars, sorted: st.sorted, cols: cols[:1+len(in.cols)], n: in.n}
	if err := bx.run(br, k+1, &group); err != nil {
		return err
	}
	keep := bx.keep[:0]
	for r, hit := range lv.hit {
		if !hit {
			keep = append(keep, r)
		}
	}
	bx.keep = keep
	st.span.Add("rowsOut", int64(len(keep)))
	st.span.Add("padded", int64(len(keep)))
	if len(keep) == 0 {
		return nil
	}
	pad := batchTable{vars: end.vars, sorted: end.sorted, cols: cols[1:], n: in.n}
	for c := range pad.cols {
		if c < len(in.cols) {
			pad.cols[c] = append(pad.cols[c][:0], in.cols[c][:in.n]...)
		} else {
			pad.cols[c] = appendRun(pad.cols[c][:0], core.None, in.n)
		}
	}
	pad.compact(keep)
	return bx.run(br, st.mate+1, &pad)
}

// seed is the expansion of the unit table by step k: its shared lists
// are the whole output, so its pieces — the chunks of the seed — are
// views of them, cut at chunkRows, and cost no copy.
func (bx *batchExec) seed(br *branchRun, k, limit int) error {
	st := &br.steps[k]
	total := len(st.lists[0])
	if limit >= 0 {
		total = min(total, limit)
	}
	piece := batchTable{vars: st.vars, sorted: st.sorted}
	for lo := 0; lo < total; lo += chunkRows {
		hi := min(lo+chunkRows, total)
		piece.cols = bx.seedCols[:0]
		for j := range st.newNames {
			piece.cols = append(piece.cols, st.lists[j][lo:hi])
		}
		bx.seedCols = piece.cols
		piece.n = hi - lo
		st.span.Add("rowsOut", int64(piece.n))
		if err := bx.run(br, k+1, &piece); err != nil {
			return err
		}
	}
	return nil
}

// flush runs the rest of the branch on the output piece of step k and
// empties it for the rows that follow.
func (bx *batchExec) flush(br *branchRun, k int, out *batchTable) error {
	br.steps[k].span.Add("rowsOut", int64(out.n))
	err := bx.run(br, k+1, out)
	for c := range out.cols {
		out.cols[c] = out.cols[c][:0]
	}
	out.n = 0
	return err
}

// level returns step k's level on this executor, taking ncols buffers of
// chunkRows rows for its output piece on first use in the branch.
func (bx *batchExec) level(br *branchRun, k, ncols int) (*level, error) {
	lv := bx.levelAt(br, k)
	if lv.out.cols == nil {
		if err := bx.hold(int64(ncols*chunkRows) * 8); err != nil {
			return nil, err
		}
		for c := 0; c < ncols; c++ {
			lv.out.cols = append(lv.out.cols, slices.Grow(bx.getCol(), chunkRows))
		}
		lv.out.vars, lv.out.sorted = br.steps[k].vars, br.steps[k].sorted
	}
	return lv, nil
}

// levelAt returns step k's level on this executor.
func (bx *batchExec) levelAt(br *branchRun, k int) *level {
	if len(bx.levels) < len(br.steps) {
		bx.levels = append(bx.levels, make([]level, len(br.steps)-len(bx.levels))...)
	}
	return &bx.levels[k]
}

// candidates fetches row r's candidate values for the one or two free
// positions of a row-dependent expansion into the level's buffers; b is
// nil when the step binds one variable. A row whose substituted pattern
// is the one the buffers hold reuses them, unless a non-negative limit —
// which stops a pair collection once that many pairs are kept — may have
// cut them short. A step with a folded step narrows the candidates to
// that step's list for the row. The buffers are accounted as they grow:
// one row's candidates may be many.
func (bx *batchExec) candidates(lv *level, sp *stepPlan, in *batchTable, r, limit int) (a, b []core.ID, err error) {
	key := [3]core.ID{subst(&sp.stepSpec, in, 0, r), subst(&sp.stepSpec, in, 1, r), subst(&sp.stepSpec, in, 2, r)}
	if !lv.have || key != lv.key {
		lv.have = false
		if lv.a == nil {
			lv.a = bx.getCol()
		}
		switch {
		case bx.walks(&sp.stepSpec):
			lv.a = lv.walk.seek(bx.keys, &sp.stepSpec, in.cols[sp.col()][r]).AppendTo(lv.a[:0])
		case sp.nFree == 1:
			lv.a, err = bx.sorted.AppendSortedList(lv.a[:0], key[0], key[1], key[2])
		default:
			if lv.b == nil {
				lv.b = bx.getCol()
			}
			lv.a, lv.b, err = bx.fetchPair(&sp.stepSpec, key[0], key[1], key[2], limit, lv.a[:0], lv.b[:0])
		}
		if err == nil {
			err = bx.ctxErr
		}
		if err != nil {
			return nil, nil, err
		}
		lv.key, lv.have = key, limit < 0
	}
	a = lv.a
	if sp.nFree > 1 {
		b = lv.b
	}
	if sp.isect != nil {
		if a, err = bx.intersect(lv, sp.isect, in, r); err != nil {
			return nil, nil, err
		}
	}
	return a, b, bx.account(lv)
}

// intersect narrows the level's candidates to the values of the folded
// step's free position for row r, into the level's c buffer: a merge of
// the two sorted lists. The folded step's list comes from its key cursor
// where it has one.
func (bx *batchExec) intersect(lv *level, j *stepSpec, in *batchTable, r int) ([]core.ID, error) {
	var list idlist.View
	if bx.walks(j) {
		list = lv.fold.seek(bx.keys, j, in.cols[j.col()][r])
	} else {
		var err error
		if list, err = bx.listView(lv, subst(j, in, 0, r), subst(j, in, 1, r), subst(j, in, 2, r)); err != nil {
			return nil, err
		}
	}
	if lv.c == nil {
		lv.c = bx.getCol()
	}
	c := lv.c[:0]
	idlist.MergeFilterView(lv.a, list, func(i int) { c = append(c, lv.a[i]) })
	lv.c = c
	return c, nil
}

// fetchPair collects the value pairs of the two free positions for row r
// of in into the caller's a/b buffers and returns the extended slices,
// applying the repeated-variable constraint when both positions share a
// slot (?x <p> ?x keeps only equal pairs, in a alone). A non-negative
// limit stops collection once that many pairs are kept.
func (bx *batchExec) fetchPair(sp *stepSpec, s, p, o core.ID, limit int, a, b []core.ID) ([]core.ID, []core.ID, error) {
	same := len(sp.newNames) == 1 // both free positions hold one variable
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
	err := bx.sorted.SortedPairs(s, p, o, add)
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

// filterRows applies one staged FILTER to every row of tbl, in place,
// reading its variable operands straight from their columns.
func (bx *batchExec) filterRows(f *cfilter, tbl *batchTable) error {
	lcol, rcol := operandCol(tbl, &f.l), operandCol(tbl, &f.r)
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

// operandCol returns the column of tbl holding a filter operand's
// variable; nil for a constant (and for a variable the table does not
// bind, which reads as unbound).
func operandCol(tbl *batchTable, o *operand) []core.ID {
	if c := slices.Index(tbl.vars, o.name); o.name != "" && c >= 0 {
		return tbl.cols[c]
	}
	return nil
}

// emitPiece emits a piece that left the last step, on the evaluator's
// goroutine. A piece every row of which becomes a result row, in the
// order it comes (emitsAll, no ORDER BY), is appended column by column:
// one copy loop per projected column. Otherwise each row's ids are
// installed in the evaluator's solution slots (every slot no column maps
// to reads unbound) and the row is emitted. What the rows retain reaches
// the meter at most a piece's worth at a time (retain).
func (ev *evaluator) emitPiece(br *branchRun, tbl *batchTable) error {
	if br.span != nil {
		if br.emitSp == nil {
			br.emitSp = br.span.Child("emit")
		}
		br.emitSp.Add("rowsIn", int64(tbl.n))
		br.emitSp.Add("chunks", 1)
	}
	if br.emitsAll && len(ev.orderSlots) == 0 {
		return ev.appendPiece(br, tbl)
	}
	for r := 0; r < tbl.n && !ev.done; r++ {
		if !ev.tickOK() {
			return ev.ctxErr
		}
		for c, s := range br.colSlot {
			ev.cur[s] = tbl.cols[c][r]
		}
		if err := ev.emit(); err != nil {
			return err
		}
	}
	return ev.flushRetained()
}

// appendPiece appends the rows of a piece that all become result rows,
// up to the row target, one projected column at a time.
func (ev *evaluator) appendPiece(br *branchRun, tbl *batchTable) error {
	if err := ev.ctxCheck(); err != nil {
		return err
	}
	res := ev.res
	n := tbl.n
	if ev.target > 0 {
		n = min(n, ev.target-res.n)
	}
	// Make room for the piece in one step. Nothing is assumed of the
	// pieces to come — fan-out may be skewed — but a growth at least
	// doubles the ids: pieces are small beside a large answer, and
	// append's gentler growth of a large array would copy it over and
	// over.
	nc := len(ev.projSlots)
	base := len(res.ids)
	if need := n * nc; cap(res.ids)-base < need {
		res.ids = slices.Grow(res.ids, max(need, base))
	}
	res.ids = res.ids[:base+n*nc]
	for i, s := range ev.projSlots {
		dst := res.ids[base+i:]
		c := br.slotCol[s]
		if c < 0 { // unbound in every row: an OPTIONAL or UNION variable
			for r := 0; r < n; r++ {
				dst[r*nc] = core.None
			}
			continue
		}
		for r, id := range tbl.cols[c][:n] {
			dst[r*nc] = id
		}
	}
	res.n += n
	ev.grown += int64(n) * ev.rowBytes
	if ev.target > 0 && res.n >= ev.target {
		ev.done = true
	}
	return ev.flushRetained()
}
