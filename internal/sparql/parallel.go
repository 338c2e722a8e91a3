package sparql

// Intra-query parallelism for the batch engine: the seed piece is the
// unit of fan-out. The goroutine evaluating the query is the driver: it
// runs the branch down to the seed, and with a worker budget above one
// and a seed of more than one piece it hands seed pieces round-robin to
// up to that many lanes — executors with their own pieces, free list,
// cancellation tick and term reader, each run by a goroutine. A lane
// runs its seed piece depth first exactly as the driver would and sends
// every piece that leaves the last step into its queue; the driver emits
// the lanes' queues in seed order (emission funnels into the evaluator's
// result rows, DISTINCT set and aggregation buckets) — so rows and their
// order do not depend on the worker count or on GOMAXPROCS, which is what
// the differential suites assert. A queued piece travels in one of the
// lane's laneQueue slots and comes back through the same channel once it
// is emitted, so a lane whose slots are all out waits, and at most
// laneQueue pieces per lane wait for their turn. With one worker, a seed
// of one piece, or a branch whose last step is row-capped (a plain LIMIT
// or ASK: the first pieces answer it, and running others ahead is the
// work the cap avoids), the driver runs every piece itself and starts no
// goroutine.

import (
	"context"
	"runtime"
	"sync/atomic"

	"hexastore/internal/obs"
)

// laneQueue is how many finished pieces one lane may have waiting for
// the driver.
const laneQueue = 4

// piece is one slot of a lane's queue: a finished piece's rows, copied
// into buffers of the lane, or — end set — the outcome of the lane's
// seed piece.
type piece struct {
	tbl batchTable
	end bool
	err error
}

// maxWorkersSetting holds the configured package-wide worker budget;
// <= 0 means "use runtime.GOMAXPROCS(0) at evaluation time".
var maxWorkersSetting atomic.Int64

// SetMaxWorkers sets the package-wide intra-query worker budget used by
// every evaluation whose EvalOptions.Workers is 0 (the
// hexserver/hexbench -workers flag lands here). n <= 0 restores the default, runtime.GOMAXPROCS(0); n == 1
// disables intra-query parallelism. Safe to call concurrently with
// running queries; in-flight evaluations keep the budget they started
// with.
func SetMaxWorkers(n int) { maxWorkersSetting.Store(int64(n)) }

// MaxWorkers returns the current intra-query worker budget.
func MaxWorkers() int {
	if n := maxWorkersSetting.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// cancelTick is one goroutine's view of the evaluation's cancellation:
// ctx is non-nil only when the evaluation is cancelable (the caller's
// context has a Done channel). ctxTick counts tick sites so the check
// itself runs once per 128 of them, and ctxErr latches the first error
// observed so every later tick fails fast.
type cancelTick struct {
	ctx     context.Context
	ctxTick int
	ctxErr  error
}

// tickOK is the cancellation check, called once per row in join loops
// and once per streamed candidate in fetch callbacks: it returns false
// once the context is done, with the error latched in ctxErr. The
// context is consulted every 128 ticks, so the steady-state cost is one
// increment and one branch.
func (t *cancelTick) tickOK() bool {
	if t.ctxErr != nil {
		return false
	}
	if t.ctxTick++; t.ctxTick&127 != 0 {
		return true
	}
	return t.ctxCheck() == nil
}

// ctxCheck consults the context directly (no tick amortization); used
// at step and piece boundaries.
func (t *cancelTick) ctxCheck() error {
	if t.ctxErr == nil && t.ctx != nil {
		t.ctxErr = t.ctx.Err()
	}
	return t.ctxErr
}

var (
	chunksTotal = obs.Default.Counter(
		"hex_sparql_chunks_total", "Seed pieces run through join pipelines.")
	termsDecodedTotal = obs.Default.Counter(
		"hex_sparql_terms_decoded_total", "Dictionary ids decoded to terms by queries.")
)

// finish ends the evaluation's executors: their scratch goes back to the
// pool — every piece has been dropped by now, so nothing refers to it —
// and their counts to /metrics, once per query from counters the
// evaluator and its lanes kept anyway.
func (ev *evaluator) finish() {
	decoded := ev.terms.decoded + ev.batch.terms.decoded
	scratchPool.Put(ev.batch.scratch)
	for _, ln := range ev.laneSet {
		decoded += ln.terms.decoded
		scratchPool.Put(ln.scratch)
		ln.scratch = nil
	}
	chunksTotal.Add(int64(ev.chunks))
	termsDecodedTotal.Add(int64(decoded))
}

// init readies an executor for its evaluation's pieces.
func (bx *batchExec) init() {
	bx.ctx = bx.ev.ctx
	bx.terms = newTermReader(bx.ev.dict)
	bx.scratch = scratchPool.Get().(*scratch)
}

// fansOut reports whether the branch's seed pieces should run on lanes,
// and if so starts them: more than one worker, a seed of more than one
// piece, and no row cap.
func (bx *batchExec) fansOut(br *branchRun) bool {
	if bx.workers <= 1 || br.capped || br.from == 0 {
		return false
	}
	pieces := (len(br.steps[br.from-1].lists[0]) + chunkRows - 1) / chunkRows
	if pieces <= 1 {
		return false
	}
	ev := bx.ev
	for len(ev.laneSet) < min(bx.workers, pieces) {
		ln := &batchExec{ev: ev, src: ev.src, sorted: bx.sorted, views: bx.views, keys: bx.keys}
		ln.init()
		ln.slots = make(chan *piece, laneQueue)
		for i := range ln.piece {
			ln.slots <- &ln.piece[i]
		}
		ev.laneSet = append(ev.laneSet, ln)
	}
	br.lanes = ev.laneSet[:min(bx.workers, pieces)]
	for _, ln := range br.lanes {
		ln.jobs = make(chan batchTable, 1)
		ln.out = make(chan *piece, laneQueue)
		br.wg.Add(1)
		go ln.serve(br)
	}
	return true
}

// serve is a lane's goroutine: it runs each seed piece it is handed and
// closes it with an end marker carrying the outcome.
func (ln *batchExec) serve(br *branchRun) {
	defer br.wg.Done()
	for job := range ln.jobs {
		err := ln.run(br, br.from, &job)
		p := <-ln.slots
		p.end, p.err = true, err
		ln.out <- p
	}
}

// queue sends a finished piece to the driver, copied into one of the
// lane's slots; with every slot out, it waits for the driver to emit or
// discard one.
func (ln *batchExec) queue(in *batchTable) error {
	p := <-ln.slots
	p.end = false
	cols := p.tbl.cols
	for len(cols) < len(in.cols) {
		cols = append(cols, ln.getCol())
	}
	for c, col := range in.cols {
		cols[c] = append(cols[c][:0], col[:in.n]...)
	}
	p.tbl = batchTable{vars: in.vars, sorted: in.sorted, cols: cols, n: in.n}
	ln.out <- p
	return nil
}

// dispatch hands the driver's seed piece to the next lane round-robin,
// once that lane's previous piece has been emitted. The slots every
// lane's queue may fill are accounted when the first piece goes out.
func (bx *batchExec) dispatch(br *branchRun, in *batchTable) error {
	if br.next == 0 {
		slots := len(br.lanes) * laneQueue * len(br.colSlot) * chunkRows
		if err := bx.hold(int64(slots) * 8); err != nil {
			return err
		}
	}
	ln := br.lanes[br.next%len(br.lanes)]
	if br.next-br.drained == len(br.lanes) {
		if err := bx.drainNext(br); err != nil {
			return err
		}
	}
	ln.seedCols = append(ln.seedCols[:0], in.cols...)
	job := *in
	job.cols = ln.seedCols
	ln.jobs <- job
	br.next++
	return nil
}

// drainNext emits the oldest seed piece still out, reading its lane's
// queue up to the end marker and returning every slot. Once the branch
// has stopped it reads without emitting. It returns the first error the
// piece met, errStop when it completed the branch's answer.
func (bx *batchExec) drainNext(br *branchRun) error {
	ln := br.lanes[br.drained%len(br.lanes)]
	br.drained++
	var err error
	for {
		p := <-ln.out
		if p.end {
			if err == nil {
				err = p.err
			}
			ln.slots <- p
			return err
		}
		if err == nil && !br.stop {
			if err = bx.ev.emitPiece(br, &p.tbl); err == nil && bx.ev.done {
				err = errStop
			}
			br.stop = err != nil
		}
		ln.slots <- p
	}
}

// joinLanes ends a branch that ran on lanes: the pieces still out are
// emitted in order — or, after err or a reached LIMIT, only collected —
// and the lanes' goroutines exit. It returns the first error.
func (bx *batchExec) joinLanes(br *branchRun, err error) error {
	for br.drained < br.next {
		if err != nil {
			br.stop = true
		}
		if e := bx.drainNext(br); err == nil {
			err = e
		}
	}
	for _, ln := range br.lanes {
		close(ln.jobs)
	}
	br.wg.Wait()
	for _, ln := range br.lanes {
		ln.jobs, ln.out = nil, nil
	}
	return err
}
