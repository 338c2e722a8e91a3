package main

import (
	"context"
	"fmt"
	"time"

	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
	"hexastore/internal/idlist"
)

// graphCounters is what the graph decorator records: every call into the
// storage layer, how long it took and how many ids it delivered. The
// traced passes run on one goroutine, so plain fields suffice.
type graphCounters struct {
	calls         int64
	ids           int64 // ids delivered: list lengths, pair and triple callbacks times their free positions
	viewFallbacks int64 // SortedListView answered ok=false: the caller had to copy the list instead
	busy          time.Duration

	applyCalls int64 // ApplyTriples batches
	applyBusy  time.Duration

	// patterns are the distinct two-bound patterns whose candidate lists
	// were fetched, capped: the posting lists the idlist ladder decodes.
	patterns map[[3]graph.ID]struct{}
}

const maxPatterns = 512

func (c *graphCounters) reset() { *c = graphCounters{patterns: map[[3]graph.ID]struct{}{}} }

func (c *graphCounters) note(start time.Time, ids int) {
	c.calls++
	c.ids += int64(ids)
	c.busy += time.Since(start)
}

func (c *graphCounters) pattern(s, p, o graph.ID) {
	if len(c.patterns) < maxPatterns {
		c.patterns[[3]graph.ID{s, p, o}] = struct{}{}
	}
}

func free(ids ...graph.ID) int {
	n := 0
	for _, id := range ids {
		if id == graph.None {
			n++
		}
	}
	return n
}

// traced decorates a graph.Graph: every method forwards to inner and is
// timed and counted. Time spent in a Match or SortedPairs callback counts
// as access time, since the store holds its cursor (and often its lock)
// for that long.
//
// The methods here are the capabilities that can be forwarded without
// changing what a caller observes — graph.EpochOf, graph.WithContext,
// graph.Flush, graph.ApplyTriples and graph.Unwrap give the same result
// on the decorator as on inner, whether or not inner has the method. The
// capabilities callers branch on (SortedSource, ViewSource, Snapshotter)
// are added by the wrapper types below, only when inner has them, so the
// decorator's capability set is exactly inner's.
type traced struct {
	inner graph.Graph
	c     *graphCounters
}

func (t traced) Dictionary() *dictionary.Dictionary { return t.inner.Dictionary() }
func (t traced) Len() int                           { return t.inner.Len() }
func (t traced) Unwrap() any                        { return graph.Unwrap(t.inner) }
func (t traced) Epoch() string                      { return graph.EpochOf(t.inner) }
func (t traced) Flush() error                       { return graph.Flush(t.inner) }

func (t traced) Add(s, p, o graph.ID) (bool, error) {
	defer t.c.note(time.Now(), 0)
	return t.inner.Add(s, p, o)
}

func (t traced) Remove(s, p, o graph.ID) (bool, error) {
	defer t.c.note(time.Now(), 0)
	return t.inner.Remove(s, p, o)
}

func (t traced) Has(s, p, o graph.ID) (bool, error) {
	defer t.c.note(time.Now(), 0)
	return t.inner.Has(s, p, o)
}

func (t traced) Count(s, p, o graph.ID) (int, error) {
	defer t.c.note(time.Now(), 0)
	return t.inner.Count(s, p, o)
}

func (t traced) Match(s, p, o graph.ID, fn func(s, p, o graph.ID) bool) error {
	start, n, per := time.Now(), 0, free(s, p, o)
	err := t.inner.Match(s, p, o, func(s, p, o graph.ID) bool {
		n += per
		return fn(s, p, o)
	})
	t.c.note(start, n)
	return err
}

func (t traced) ApplyTriples(ops []graph.TripleOp) (int, int, error) {
	start := time.Now()
	ins, del, err := graph.ApplyTriples(t.inner, ops)
	t.c.applyCalls++
	t.c.applyBusy += time.Since(start)
	return ins, del, err
}

func (t traced) WithContext(ctx context.Context) graph.Graph {
	return mustWrap(graph.WithContext(ctx, t.inner), t.c)
}

// tracedSorted adds graph.SortedSource (the disk store's set).
type tracedSorted struct {
	traced
	sorted graph.SortedSource
}

func (t tracedSorted) AppendSortedList(dst []graph.ID, s, p, o graph.ID) ([]graph.ID, error) {
	start := time.Now()
	t.c.pattern(s, p, o)
	out, err := t.sorted.AppendSortedList(dst, s, p, o)
	t.c.note(start, len(out)-len(dst))
	return out, err
}

func (t tracedSorted) SortedPairs(s, p, o graph.ID, fn func(a, b graph.ID) bool) error {
	start, n := time.Now(), 0
	err := t.sorted.SortedPairs(s, p, o, func(a, b graph.ID) bool {
		n += 2
		return fn(a, b)
	})
	t.c.note(start, n)
	return err
}

// tracedViews adds graph.ViewSource (the memory store's set).
type tracedViews struct {
	tracedSorted
	views graph.ViewSource
}

func (t tracedViews) SortedListView(s, p, o graph.ID) (idlist.View, bool, error) {
	start := time.Now()
	t.c.pattern(s, p, o)
	v, ok, err := t.views.SortedListView(s, p, o)
	if ok {
		t.c.note(start, v.Len())
	} else {
		t.c.viewFallbacks++
		t.c.note(start, 0)
	}
	return v, ok, err
}

// tracedLive adds graph.Snapshotter (the delta overlay's set); the pinned
// snapshot is decorated too, since that is what queries read.
type tracedLive struct {
	tracedViews
}

func (t tracedLive) Snapshot() graph.Graph {
	return mustWrap(graph.Snapshot(t.inner), t.c)
}

// wrapGraph decorates g with the wrapper type whose capability set equals
// g's. The three sets are those of the repository's serving backends;
// anything else is refused rather than served with a different set.
func wrapGraph(g graph.Graph, c *graphCounters) (graph.Graph, error) {
	base := traced{inner: g, c: c}
	ss, sorted := graph.AsSortedSource(g)
	vs, views := graph.AsViewSource(g)
	_, snaps := g.(graph.Snapshotter)
	switch {
	case sorted && !views && !snaps:
		return tracedSorted{base, ss}, nil
	case sorted && views && !snaps:
		return tracedViews{tracedSorted{base, ss}, vs}, nil
	case sorted && views && snaps:
		return tracedLive{tracedViews{tracedSorted{base, ss}, vs}}, nil
	}
	return nil, fmt.Errorf("graph decorator: no wrapper for %T (sorted=%v views=%v snapshots=%v)", g, sorted, views, snaps)
}

// mustWrap re-wraps a graph derived from an already wrapped one (its
// snapshot, its context view), which has a supported set by construction.
func mustWrap(g graph.Graph, c *graphCounters) graph.Graph {
	w, err := wrapGraph(g, c)
	if err != nil {
		panic(err)
	}
	return w
}
