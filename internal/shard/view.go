package shard

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
)

// view is a pinned cross-shard snapshot: one immutable delta-overlay
// state per shard, all captured under the shared side of the cluster's
// batch lock. It implements graph.Graph and graph.SortedSource, so the
// SPARQL evaluator's per-query graph.Snapshot pin lands here and every
// read of the query sees the same cluster-wide state.
type view struct {
	c      *Cluster
	shards []graph.Graph
	sorted []graph.SortedSource

	// tr, when non-nil, records per-shard scanned/pruned stream counts
	// into the query's execution trace. It is attached by WithContext
	// when the query context carries an obs trace; the pinned view kept
	// by the cluster never has one.
	tr *shardTrace
}

func (v *view) Dictionary() *dictionary.Dictionary { return v.c.dict }

// Snapshot returns the view itself — it is already immutable.
func (v *view) Snapshot() graph.Graph { return v }

// Epoch implements graph.Epocher for the pinned view: the cluster epoch
// is the vector of per-shard epochs, read from the pinned snapshots so
// the token describes exactly the state this view serves. Any shard
// without epoch support poisons the whole vector (returns ""), which
// disables result caching rather than risking staleness.
func (v *view) Epoch() string {
	var b strings.Builder
	for i, g := range v.shards {
		e := graph.EpochOf(g)
		if e == "" {
			return ""
		}
		if i > 0 {
			b.WriteByte('|')
		}
		b.WriteString(e)
	}
	return b.String()
}

func (v *view) Add(s, p, o ID) (bool, error)    { return false, graph.ErrReadOnly }
func (v *view) Remove(s, p, o ID) (bool, error) { return false, graph.ErrReadOnly }

func (v *view) Len() int {
	n := 0
	for _, g := range v.shards {
		n += g.Len()
	}
	return n
}

func (v *view) Has(s, p, o ID) (bool, error) {
	if s == None || p == None || o == None {
		return false, nil
	}
	i := v.c.shardFor(s)
	v.tr.one(i)
	return v.shards[i].Has(s, p, o)
}

// targets lists the shards a subject-free pattern must touch: the
// router's presence set when p is bound, every shard otherwise.
func (v *view) targets(p ID) []int {
	if p == None {
		all := make([]int, len(v.shards))
		for i := range all {
			all[i] = i
		}
		return all
	}
	return v.c.router.targets(p)
}

// Match streams matching triples in sorted order. Routing:
//
//   - bound subject → the owning shard answers alone;
//   - ⟨·,p,o⟩ → scatter to the router's shards, merge sorted subject
//     lists (disjoint across shards);
//   - ⟨·,p,·⟩ / ⟨·,·,o⟩ → scatter, k-way merge of the shards' sorted
//     (a,b) pair streams;
//   - full scan → per-shard materialize-and-sort, then k-way merge
//     (shard-local full scans are unordered, so each shard's result is
//     sorted before merging; cost is O(n) memory across goroutines —
//     full scans are already O(n) by nature).
//
// A single-store graph's Match is only ordered per index walk, not
// specified globally; the cluster's merged order is spo-lexicographic
// for every shape, which is stricter than the interface requires.
func (v *view) Match(s, p, o ID, fn func(s, p, o ID) bool) error {
	switch {
	case s != None:
		i := v.c.shardFor(s)
		v.tr.one(i)
		return v.shards[i].Match(s, p, o, fn)
	case p != None && o != None:
		subjects, err := v.AppendSortedList(nil, s, p, o)
		if err != nil {
			return err
		}
		for _, subj := range subjects {
			if !fn(subj, p, o) {
				return nil
			}
		}
		return nil
	case p != None:
		ts := v.targets(p)
		v.tr.scatter(ts, len(v.shards))
		return v.gatherPairs(ts, s, p, o, func(a, b ID) bool { return fn(a, p, b) })
	case o != None:
		ts := v.targets(None)
		v.tr.scatter(ts, len(v.shards))
		return v.gatherPairs(ts, s, p, o, func(a, b ID) bool { return fn(a, b, o) })
	default:
		v.tr.scatter(v.targets(None), len(v.shards))
		return v.scanAll(fn)
	}
}

// gatherPairs merges the shards' SortedPairs streams for a 1-bound
// pattern. Pair streams are ordered by (first free, second free); the
// first free position of every subject-free 1-bound pattern is the
// subject, and subjects are disjoint across shards, so streams never
// tie.
func (v *view) gatherPairs(targets []int, s, p, o ID, fn func(a, b ID) bool) error {
	return gatherMerge(len(targets), lessPair,
		func(k int, emit func([2]ID) bool) error {
			return v.sorted[targets[k]].SortedPairs(s, p, o, func(a, b ID) bool {
				return emit([2]ID{a, b})
			})
		},
		func(ab [2]ID) bool { return fn(ab[0], ab[1]) })
}

// scanAll merges full scans of every shard into one spo-ordered stream.
func (v *view) scanAll(fn func(s, p, o ID) bool) error {
	return gatherMerge(len(v.shards), lessTriple,
		func(k int, emit func([3]ID) bool) error {
			var ts [][3]ID
			if err := v.shards[k].Match(None, None, None, func(s, p, o ID) bool {
				ts = append(ts, [3]ID{s, p, o})
				return true
			}); err != nil {
				return err
			}
			slices.SortFunc(ts, func(a, b [3]ID) int {
				if lessTriple(a, b) {
					return -1
				}
				if lessTriple(b, a) {
					return 1
				}
				return 0
			})
			for _, t := range ts {
				if !emit(t) {
					break
				}
			}
			return nil
		},
		func(t [3]ID) bool { return fn(t[0], t[1], t[2]) })
}

func (v *view) Count(s, p, o ID) (int, error) {
	if s != None {
		i := v.c.shardFor(s)
		v.tr.one(i)
		return v.shards[i].Count(s, p, o)
	}
	targets := v.targets(p)
	v.tr.scatter(targets, len(v.shards))
	counts := make([]int, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for k, i := range targets {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			counts[k], errs[k] = v.shards[i].Count(s, p, o)
		}(k, i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	// Disjoint subject sets: no triple is counted twice, so the sum is
	// exact, not an upper bound.
	return total, nil
}

// AppendSortedList implements graph.SortedSource. A bound subject
// delegates to the owner; ⟨·,p,o⟩ scatters and merges the disjoint
// per-shard subject lists.
func (v *view) AppendSortedList(dst []ID, s, p, o ID) ([]ID, error) {
	if s != None {
		i := v.c.shardFor(s)
		v.tr.one(i)
		return v.sorted[i].AppendSortedList(dst, s, p, o)
	}
	if p == None || o == None {
		return dst, fmt.Errorf("shard: AppendSortedList needs a 2-bound pattern, got ⟨%d,%d,%d⟩", s, p, o)
	}
	targets := v.targets(p)
	v.tr.scatter(targets, len(v.shards))
	switch len(targets) {
	case 0:
		return dst, nil
	case 1:
		return v.sorted[targets[0]].AppendSortedList(dst, s, p, o)
	}
	bufs := make([][]ID, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for k, i := range targets {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			bufs[k], errs[k] = v.sorted[i].AppendSortedList(nil, s, p, o)
		}(k, i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return dst, err
	}
	return mergeAppend(dst, bufs), nil
}

// SortedPairs implements graph.SortedSource for 1-bound patterns.
func (v *view) SortedPairs(s, p, o ID, fn func(a, b ID) bool) error {
	if s != None {
		if p != None || o != None {
			return fmt.Errorf("shard: SortedPairs needs a 1-bound pattern, got ⟨%d,%d,%d⟩", s, p, o)
		}
		i := v.c.shardFor(s)
		v.tr.one(i)
		return v.sorted[i].SortedPairs(s, p, o, fn)
	}
	var targets []int
	switch {
	case p != None && o == None:
		targets = v.targets(p)
	case o != None && p == None:
		targets = v.targets(None)
	default:
		return fmt.Errorf("shard: SortedPairs needs a 1-bound pattern, got ⟨%d,%d,%d⟩", s, p, o)
	}
	v.tr.scatter(targets, len(v.shards))
	if len(targets) == 1 {
		return v.sorted[targets[0]].SortedPairs(s, p, o, fn)
	}
	return v.gatherPairs(targets, s, p, o, fn)
}
