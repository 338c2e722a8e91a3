// Package graph defines the backend-neutral Graph interface that the
// query, sparql and server layers are written against, together with
// adapters for the repository's three storage engines:
//
//   - the sealed in-memory sextuple-indexed core.Store (Memory, read-only;
//     writable memory graphs are delta overlays over one),
//   - the B-tree-paged disk.Store (Disk), and
//   - the flat-table triplestore.Store baseline (Baseline).
//
// Every method that can touch fallible storage is error-returning, so
// disk-backed (and, later, remote) implementations fit the
// same interface as the in-memory stores. The in-memory adapters simply
// return nil errors.
//
// The interface is intentionally small — dictionary access plus the
// five primitive triple operations. Everything else (SPARQL evaluation,
// path expressions, serialization, HTTP serving) is built on top of it,
// which is what makes new backends cheap: implement these seven methods
// and the whole upper half of the system works unchanged.
package graph

import (
	"errors"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/disk"
	"hexastore/internal/rdf"
	"hexastore/internal/triplestore"
)

// ID is a dictionary-encoded resource identifier.
type ID = dictionary.ID

// None is the wildcard / unbound marker in pattern lookups.
const None = dictionary.None

// Graph is a pattern-matchable RDF graph. Implementations must be safe
// for concurrent use (all built-in backends are).
//
// Match streams every triple matching the pattern ⟨s,p,o⟩, where None in
// any position is a wildcard; iteration stops early when fn returns
// false. Add and Remove report whether the graph changed; a read-only
// graph returns ErrReadOnly.
type Graph interface {
	// Dictionary returns the term dictionary the graph encodes ids with.
	Dictionary() *dictionary.Dictionary
	// Len returns the number of distinct triples.
	Len() int
	// Add inserts the triple ⟨s,p,o⟩.
	Add(s, p, o ID) (bool, error)
	// Remove deletes the triple ⟨s,p,o⟩.
	Remove(s, p, o ID) (bool, error)
	// Has reports whether the triple ⟨s,p,o⟩ is present.
	Has(s, p, o ID) (bool, error)
	// Match streams matching triples to fn (None = wildcard).
	Match(s, p, o ID, fn func(s, p, o ID) bool) error
	// Count returns the number of triples matching the pattern.
	Count(s, p, o ID) (int, error)
}

// Flusher is implemented by graphs with buffered durable state (the disk
// backend). Callers that mutate a graph should flush it if supported;
// see Flush.
type Flusher interface {
	Flush() error
}

// Snapshotter is an optional Graph capability: a consistent, immutable
// read view of the graph at one instant. Multi-step readers (the SPARQL
// evaluator, serializers) pin one snapshot for their whole run, so a
// stream of concurrent updates cannot make two pattern fetches of the
// same query observe different states. The delta-overlay backend
// implements it with an atomic state-pointer load — pinning is free and
// never blocks writers — and a sealed memory graph is its own snapshot.
// Use Snapshot to pin when supported.
type Snapshotter interface {
	// Snapshot returns a read-only view of the graph's current state.
	// Mutating the view is an error; the view stays valid (and
	// unchanging) however many writes land on the parent graph.
	Snapshot() Graph
}

// Snapshot pins a consistent read view of g when the backend supports
// it, and returns g itself otherwise. Backends without the capability
// either serialize writers externally (the DB/server request locks) or
// accept per-call-consistent reads.
func Snapshot(g Graph) Graph {
	if s, ok := g.(Snapshotter); ok {
		return s.Snapshot()
	}
	return g
}

// Epocher is an optional Graph capability: a cheap token identifying the
// graph's current content version. Two reads that observe the same epoch
// token are guaranteed to observe identical triple sets, which is what
// makes the token usable as a result-cache key — a cached answer tagged
// with epoch E may be served verbatim while the graph still reports E.
//
// Implementations bump (or otherwise change) the token on every state
// transition that can alter query answers. Physical reorganizations that
// preserve content (overlay compaction) may keep the token, so cached
// results validly survive them. Snapshots report the epoch of the pinned
// instant, which never changes.
type Epocher interface {
	// Epoch returns the current content-version token. The empty string
	// means "unknown" and disables caching.
	Epoch() string
}

// EpochOf returns g's content-version token, or "" when the backend does
// not support epochs (result caching is then disabled for g).
func EpochOf(g Graph) string {
	if e, ok := g.(Epocher); ok {
		return e.Epoch()
	}
	return ""
}

// TripleOp is one entry of a batched update: an insert, or a delete when
// Del is set.
type TripleOp struct {
	Del bool
	T   rdf.Triple
}

// BatchUpdater is an optional Graph capability: apply a sequence of
// triple operations as one atomic, durable batch. The delta overlay uses
// it to absorb a whole SPARQL UPDATE request with a single WAL group
// commit and a single copy-on-write state swap, instead of paying both
// per triple; readers observe either none or all of the batch.
type BatchUpdater interface {
	// ApplyTriples applies ops in order and reports how many triples
	// were actually inserted (not present before) and deleted (present
	// before). A backend error aborts the whole batch.
	ApplyTriples(ops []TripleOp) (inserted, deleted int, err error)
}

// ApplyTriples applies a batch of triple operations to g: through one
// atomic BatchUpdater call when the backend supports it, or triple by
// triple otherwise (counts and final state are identical; only atomicity
// and write amplification differ).
func ApplyTriples(g Graph, ops []TripleOp) (inserted, deleted int, err error) {
	if bu, ok := g.(BatchUpdater); ok {
		return bu.ApplyTriples(ops)
	}
	for _, op := range ops {
		if op.Del {
			changed, err := RemoveTriple(g, op.T)
			if err != nil {
				return inserted, deleted, err
			}
			if changed {
				deleted++
			}
		} else {
			changed, err := AddTriple(g, op.T)
			if err != nil {
				return inserted, deleted, err
			}
			if changed {
				inserted++
			}
		}
	}
	return inserted, deleted, nil
}

// ErrReadOnly is returned by Add and Remove on a graph that cannot
// change: a sealed memory store, or a pinned snapshot of a live graph.
var ErrReadOnly = errors.New("graph: read-only")

// memGraph adapts a sealed in-memory Hexastore to the error-returning
// Graph shape. The store never changes, so the graph refuses writes, is
// its own snapshot and reports one epoch for its whole life; a memory
// graph that accepts writes is a delta overlay over one.
type memGraph struct{ st *core.Store }

// Memory adapts a sealed in-memory Hexastore to the Graph interface.
func Memory(st *core.Store) Graph { return memGraph{st: st} }

func (g memGraph) Dictionary() *dictionary.Dictionary { return g.st.Dictionary() }
func (g memGraph) Len() int                           { return g.st.Len() }

func (g memGraph) Add(s, p, o ID) (bool, error)    { return false, ErrReadOnly }
func (g memGraph) Remove(s, p, o ID) (bool, error) { return false, ErrReadOnly }
func (g memGraph) Has(s, p, o ID) (bool, error)    { return g.st.Has(s, p, o), nil }

func (g memGraph) Match(s, p, o ID, fn func(s, p, o ID) bool) error {
	g.st.Match(s, p, o, fn)
	return nil
}

func (g memGraph) Count(s, p, o ID) (int, error) { return g.st.Count(s, p, o), nil }

// Unwrap exposes the store behind the adapter, so planners can detect
// index-aware backends (see Unwrap).
func (g memGraph) Unwrap() any { return g.st }

// Snapshot returns g itself: a sealed store is already an immutable view.
func (g memGraph) Snapshot() Graph { return g }

// Epoch returns the content-version token of a store that never changes.
func (g memGraph) Epoch() string { return "m0" }

// baseGraph adapts the flat triples-table baseline, which mutates in
// place, to the Graph interface. It has no epoch, so graphs over it stay
// uncacheable.
type baseGraph struct{ st *triplestore.Store }

// Baseline adapts the flat triples-table baseline to the Graph interface.
func Baseline(st *triplestore.Store) Graph { return baseGraph{st: st} }

func (g baseGraph) Dictionary() *dictionary.Dictionary { return g.st.Dictionary() }
func (g baseGraph) Len() int                           { return g.st.Len() }

func (g baseGraph) Add(s, p, o ID) (bool, error)    { return g.st.Add(s, p, o), nil }
func (g baseGraph) Remove(s, p, o ID) (bool, error) { return g.st.Remove(s, p, o), nil }
func (g baseGraph) Has(s, p, o ID) (bool, error)    { return g.st.Has(s, p, o), nil }

func (g baseGraph) Match(s, p, o ID, fn func(s, p, o ID) bool) error {
	g.st.Match(s, p, o, fn)
	return nil
}

func (g baseGraph) Count(s, p, o ID) (int, error) { return g.st.Count(s, p, o), nil }

// Unwrap exposes the store behind the adapter.
func (g baseGraph) Unwrap() any { return g.st }

// Disk adapts the disk-based Hexastore to the Graph interface. The disk
// store's own methods already have the error-returning shape, so the
// adapter is the store itself.
func Disk(st *disk.Store) Graph { return st }

// Unwrap returns the concrete backend underlying g: the *core.Store or
// *triplestore.Store behind an in-memory adapter (or a delta overlay's
// view of its main), or g itself when the
// graph is not a wrapper (e.g. a *disk.Store). Layers use it to pick
// backend-specific fast paths:
//
//	if st, ok := graph.Unwrap(g).(*core.Store); ok { … vector-level access … }
func Unwrap(g Graph) any {
	if u, ok := g.(interface{ Unwrap() any }); ok {
		return u.Unwrap()
	}
	return g
}

// Flush persists any buffered state of g, when the backend supports it.
// In-memory graphs are a no-op.
func Flush(g Graph) error {
	if f, ok := g.(Flusher); ok {
		return f.Flush()
	}
	return nil
}

// AddTriple dictionary-encodes and inserts an rdf.Triple. Invalid
// triples are rejected without touching the dictionary.
func AddTriple(g Graph, t rdf.Triple) (bool, error) {
	if !t.Valid() {
		return false, nil
	}
	s, p, o := g.Dictionary().EncodeTriple(t)
	return g.Add(s, p, o)
}

// RemoveTriple deletes an rdf.Triple. A triple with a term absent from
// the dictionary cannot be present, so it is reported unchanged without
// growing the dictionary.
func RemoveTriple(g Graph, t rdf.Triple) (bool, error) {
	dict := g.Dictionary()
	s, ok := dict.Lookup(t.Subject)
	if !ok {
		return false, nil
	}
	p, ok := dict.Lookup(t.Predicate)
	if !ok {
		return false, nil
	}
	o, ok := dict.Lookup(t.Object)
	if !ok {
		return false, nil
	}
	return g.Remove(s, p, o)
}

// HasTriple reports whether an rdf.Triple is present.
func HasTriple(g Graph, t rdf.Triple) (bool, error) {
	dict := g.Dictionary()
	s, ok := dict.Lookup(t.Subject)
	if !ok {
		return false, nil
	}
	p, ok := dict.Lookup(t.Predicate)
	if !ok {
		return false, nil
	}
	o, ok := dict.Lookup(t.Object)
	if !ok {
		return false, nil
	}
	return g.Has(s, p, o)
}

// DecodeMatch is Match with the results decoded back to rdf.Triples, for
// presentation layers and serializers.
func DecodeMatch(g Graph, s, p, o ID, fn func(rdf.Triple) bool) error {
	dict := g.Dictionary()
	var decodeErr error
	err := g.Match(s, p, o, func(s, p, o ID) bool {
		t, derr := dict.DecodeTriple(s, p, o)
		if derr != nil {
			decodeErr = derr
			return false
		}
		return fn(t)
	})
	if err != nil {
		return err
	}
	return decodeErr
}
