package shard

import (
	"context"

	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
	"hexastore/internal/obs"
)

// ctxView wraps a pinned cluster view with a context: every operation
// checks the context on entry, and streaming operations re-check it
// every ctxCheckEvery emitted elements. This is the cluster's side of
// the graph.ContextAware seam — a canceled query must stop the
// scatter-gather merges *inside* one Match or AppendSortedList call,
// because a single cluster-wide scan can run for the whole query while
// the evaluator never gets a gap to notice cancellation in.
//
// A callback returning false already stops gatherMerge's producers
// without leaks (the shared done channel), so the wrapper's streaming
// checks simply return false into that protocol and surface ctx.Err()
// afterwards.
type ctxView struct {
	v   *view
	ctx context.Context
}

// ctxCheckEvery is the streaming check interval: one check per 128
// emitted elements, matching the evaluator's block granularity.
const ctxCheckEvery = 128

// WithContext implements graph.ContextAware on the pinned view. When
// the context carries an execution trace (obs.NewContext — the SPARQL
// evaluator plants one for EXPLAIN ANALYZE and slow-query capture), the
// wrapper works on a shallow copy of the view that records per-shard
// scanned/pruned stream counts into that trace; the shared pinned view
// itself stays trace-free.
func (v *view) WithContext(ctx context.Context) graph.Graph {
	if ctx == nil {
		return v
	}
	vv := v
	if sp := obs.FromContext(ctx); sp != nil && v.tr == nil {
		cp := *v
		cp.tr = newShardTrace(sp, len(v.shards))
		vv = &cp
	}
	return &ctxView{v: vv, ctx: ctx}
}

// WithContext re-anchors an already-wrapped view to a new context.
func (cv *ctxView) WithContext(ctx context.Context) graph.Graph {
	return cv.v.WithContext(ctx)
}

func (cv *ctxView) Dictionary() *dictionary.Dictionary { return cv.v.Dictionary() }
func (cv *ctxView) Len() int                           { return cv.v.Len() }

// Snapshot returns the wrapper itself: the underlying view is already
// an immutable pin.
func (cv *ctxView) Snapshot() graph.Graph { return cv }

func (cv *ctxView) Add(s, p, o ID) (bool, error)    { return false, graph.ErrReadOnly }
func (cv *ctxView) Remove(s, p, o ID) (bool, error) { return false, graph.ErrReadOnly }

func (cv *ctxView) Has(s, p, o ID) (bool, error) {
	if err := cv.ctx.Err(); err != nil {
		return false, err
	}
	return cv.v.Has(s, p, o)
}

func (cv *ctxView) Count(s, p, o ID) (int, error) {
	if err := cv.ctx.Err(); err != nil {
		return 0, err
	}
	return cv.v.Count(s, p, o)
}

func (cv *ctxView) Match(s, p, o ID, fn func(s, p, o ID) bool) error {
	if err := cv.ctx.Err(); err != nil {
		return err
	}
	tick := 0
	err := cv.v.Match(s, p, o, func(ms, mp, mo ID) bool {
		if tick++; tick%ctxCheckEvery == 0 && cv.ctx.Err() != nil {
			return false
		}
		return fn(ms, mp, mo)
	})
	if err != nil {
		return err
	}
	return cv.ctx.Err()
}

func (cv *ctxView) AppendSortedList(dst []ID, s, p, o ID) ([]ID, error) {
	if err := cv.ctx.Err(); err != nil {
		return dst, err
	}
	return cv.v.AppendSortedList(dst, s, p, o)
}

func (cv *ctxView) SortedPairs(s, p, o ID, fn func(a, b ID) bool) error {
	if err := cv.ctx.Err(); err != nil {
		return err
	}
	tick := 0
	err := cv.v.SortedPairs(s, p, o, func(a, b ID) bool {
		if tick++; tick%ctxCheckEvery == 0 && cv.ctx.Err() != nil {
			return false
		}
		return fn(a, b)
	})
	if err != nil {
		return err
	}
	return cv.ctx.Err()
}
