package sparql

// Query governance knobs: cancellation and one memory limit. The
// evaluator observes a context.Context at block granularity (one check
// per row in join loops, one per 128 streamed callbacks — see exec.go
// and batch.go), and accounts what a query holds against a govern.Meter:
// its pieces (at most one per step depth and lane, plus the queued ones),
// the shared lists its steps fetched, its result rows and a result-cache
// fill, each once per piece or per fetch, never per row. Crossing the
// limit fails the query with govern.ErrBudgetExceeded instead of OOMing
// the process.

import (
	"hexastore/internal/govern"
	"hexastore/internal/obs"
)

// EvalOptions parameterizes one evaluation beyond the package-wide
// defaults. The zero value means "no limits, package-default workers".
type EvalOptions struct {
	// Workers is the intra-query parallelism budget; <= 0 uses the
	// package-wide MaxWorkers.
	Workers int

	// MemBudget is the per-query memory limit in bytes: accounting that
	// would cross it fails the query with govern.ErrBudgetExceeded. 0
	// means unlimited.
	MemBudget int64

	// Meter, when non-nil, is used for accounting instead of a meter
	// built from MemBudget — callers that want to read the peak after the
	// query pass their own.
	Meter *govern.Meter

	// NoResultCache bypasses the Planner's result cache for this
	// evaluation (both lookup and fill). EXPLAIN queries bypass it
	// implicitly; servers set it for ?explain=1 requests so a trace is
	// never paired with cached rows it did not produce.
	NoResultCache bool

	// Trace, when non-nil, collects a per-query execution span tree:
	// planning (pattern order, cardinality estimates) and every batch
	// step (rows in/out, candidate sizes, merge-vs-probe, pieces). nil
	// disables tracing entirely; the engine's hot loops never touch it.
	Trace *obs.Trace
}

// meterFor resolves the meter an evaluation accounts against: the
// caller's, or one built from MemBudget; nil when the evaluation is
// unlimited.
func meterFor(opt *EvalOptions) *govern.Meter {
	if opt.Meter != nil || opt.MemBudget <= 0 {
		return opt.Meter
	}
	return govern.NewMeter(opt.MemBudget)
}
