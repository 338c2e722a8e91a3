package sparql

// Intra-query parallelism for the batch engine: the chunk is the unit of
// fan-out. The goroutine evaluating the query drives the pipeline — it
// cuts the seed into chunks, hands each to a lane, and emits the
// finished chunks in seed order — and with a worker budget above one
// the lanes are up to that many executors, each with its own table,
// free list, scratch buffers, cancellation tick and term reader, run by
// as many goroutines. A lane computes for its chunk exactly what a
// single lane would, emission happens on one goroutine in seed order
// (it funnels into the evaluator's result rows, DISTINCT set and
// aggregation buckets) — so rows and their order do not depend on the
// worker count or on GOMAXPROCS, which is what the differential suites
// assert. With one worker, a seed of one chunk, or a branch whose last
// step is row-capped (a plain LIMIT or ASK: the first chunks answer it,
// and running others ahead is the work the cap avoids), the same loop
// runs every chunk inline and starts no goroutine.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"hexastore/internal/core"
	"hexastore/internal/obs"
)

// maxWorkersSetting holds the configured package-wide worker budget;
// <= 0 means "use runtime.GOMAXPROCS(0) at evaluation time".
var maxWorkersSetting atomic.Int64

// SetMaxWorkers sets the package-wide intra-query worker budget used by
// Eval and Planner.Eval (the hexserver/hexbench -workers flag lands
// here). n <= 0 restores the default, runtime.GOMAXPROCS(0); n == 1
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
// at step and chunk boundaries.
func (t *cancelTick) ctxCheck() error {
	if t.ctxErr == nil && t.ctx != nil {
		t.ctxErr = t.ctx.Err()
	}
	return t.ctxErr
}

var (
	chunksTotal = obs.Default.Counter(
		"hex_sparql_chunks_total", "Binding-table chunks run through join pipelines.")
	termsDecodedTotal = obs.Default.Counter(
		"hex_sparql_terms_decoded_total", "Dictionary ids decoded to terms by queries.")
)

// finish ends the evaluation's executors: their scratch goes back to the
// pool — every table has been dropped by now, so nothing refers to it —
// and their counts to /metrics, once per query from counters the
// evaluator and its lanes kept anyway.
func (ev *evaluator) finish() {
	decoded := ev.terms.decoded
	for _, ln := range ev.laneSet {
		decoded += ln.terms.decoded
		scratchPool.Put(ln.scratch)
		ln.scratch = nil
	}
	chunksTotal.Add(int64(ev.chunks))
	termsDecodedTotal.Add(int64(decoded))
}

// lanes returns n executors for a branch's chunks, the evaluator's own
// first; the others are made on first need and kept for the branches
// that follow.
func (ev *evaluator) lanes(n int) []*batchExec {
	for len(ev.laneSet) < n {
		ln := &batchExec{ev: ev, src: ev.src, sorted: ev.batch.sorted, views: ev.batch.views}
		ln.init()
		ev.laneSet = append(ev.laneSet, ln)
	}
	return ev.laneSet[:n]
}

// init readies an executor for its evaluation's chunks.
func (bx *batchExec) init() {
	bx.ctx = bx.ev.ctx
	bx.terms = newTermReader(bx.ev.dict)
	bx.scratch = scratchPool.Get().(*scratch)
}

// runChunks is the pipeline: the n seed rows in cols are cut into
// chunks, chunk i runs on lane i mod len(lanes), and chunks are emitted
// in order, each lane taking its next chunk once its last one has been
// emitted — so at most one chunk per lane is in memory.
func (bx *batchExec) runChunks(br *branchRun, cols [][]core.ID, n int) error {
	ev := bx.ev
	nChunks := (n + chunkRows - 1) / chunkRows
	workers := bx.workers
	if br.capped {
		// A plain LIMIT or ASK wants a few rows of the first chunks: a
		// chunk run ahead on another lane is work the cap exists to avoid.
		workers = 1
	}
	lanes := ev.lanes(max(1, min(workers, nChunks)))
	var jobs chan *batchExec
	if len(lanes) > 1 {
		// Every lane can be queued at once, so handing out never blocks.
		jobs = make(chan *batchExec, len(lanes))
		var wg sync.WaitGroup
		for range lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ln := range jobs {
					ln.err = ln.runChunk(br)
					ln.done <- struct{}{}
				}
			}()
		}
		defer func() {
			close(jobs)
			wg.Wait()
		}()
	}

	var firstErr error
	stopped := false
	for next, emitted := 0, 0; ; emitted++ {
		for ; !stopped && next < nChunks && next-emitted < len(lanes); next++ {
			ln := lanes[next%len(lanes)]
			lo := next * chunkRows
			ln.beginChunk(br, cols, lo, min(lo+chunkRows, n), nChunks-next)
			ev.chunks++
			if jobs != nil {
				if ln.done == nil {
					ln.done = make(chan struct{}, 1)
				}
				jobs <- ln
			} else {
				ln.err = ln.runChunk(br)
			}
		}
		if emitted == next {
			return firstErr
		}
		ln := lanes[emitted%len(lanes)]
		if jobs != nil {
			<-ln.done
		}
		if !stopped {
			err := ln.err
			if err == nil {
				err = ln.emitChunk(br)
			}
			// An error or a reached LIMIT ends the pipeline: nothing more
			// is handed out, and the loop goes on only to collect the at
			// most len(lanes)-1 chunks in flight, whose rows are dropped.
			if firstErr = err; err != nil || ev.done {
				stopped = true
			}
		}
		ln.endChunk()
	}
}
