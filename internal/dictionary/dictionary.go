// Package dictionary implements the dictionary encoding described in §4.1
// of the Hexastore paper: RDF terms (strings) are mapped to dense integer
// identifiers, and the stores operate on identifiers only. A single
// Dictionary instance is shared by all six indices of a Hexastore and by
// the baseline stores so that cross-store comparisons use identical keys.
//
// The term table is pointer-free: values lie in append-only byte
// segments that are never moved or rewritten, an id-indexed column
// locates each and carries its kind and JSON-plain bit, and the term → id
// direction is open-addressed tables of ids compared against the
// segment bytes.
package dictionary

import (
	"fmt"
	"slices"
	"sync"

	"hexastore/internal/rdf"
)

// ID is a dictionary-encoded term identifier. IDs are dense and start at
// 1; 0 is reserved as "no term" / wildcard in pattern queries.
type ID uint64

// None is the zero ID, never assigned to a term. Pattern queries use it as
// the unbound marker.
const None ID = 0

// numShards stripes the forward (term → id) index. Must be a power of
// two. 32 stripes make lock collisions between concurrent encoders rare
// even at high worker counts.
const numShards = 32

// shard is one stripe of the forward index with its own lock, so
// concurrent Encode calls on distinct terms proceed without serializing
// on a single dictionary-wide mutex.
type shard struct {
	mu    sync.RWMutex
	index index
}

// Dictionary is a bidirectional, append-only mapping between RDF terms and
// IDs. It is safe for concurrent use and Encode scales across cores: the
// forward index is hash-sharded into independently locked stripes, and
// only the id allocation (an append to the shared term table) is
// serialized. Terms are never removed: stores that delete triples may
// leave orphaned dictionary entries, which matches the paper's
// architecture (the mapping table only grows).
//
// The table holds no Go pointer per term. Values lie back to back in
// append-only byte segments; an id-indexed column gives each term's
// place in them and a meta byte, its kind and whether its value needs
// JSON escaping (Meta); each stripe is an open-addressed table of ids.
// Decoding aliases the segment bytes, so it allocates nothing.
//
// ID assignment order is first-come-first-served: a single-threaded caller
// sees the dense 1,2,3,… assignment in encounter order; concurrent callers
// see a dense but interleaving-dependent assignment. The bulk loaders of
// package core encode from one goroutine in a canonical order (see
// core.EncodeNTriples), so a load gives the same ids whatever its worker
// count.
type Dictionary struct {
	shards [numShards]shard

	// revMu guards terms, the id → term table all stripes allocate from
	// and compare against. Lock order: stripe mutexes — several only in
	// ascending order — may be held when taking revMu, never the other
	// way around. terms is append-only (see terms), so a View copied
	// under revMu can be read without the lock for as long as it is
	// kept, which is what Snapshot relies on.
	revMu sync.RWMutex
	terms terms
}

// New returns an empty Dictionary.
func New() *Dictionary { return &Dictionary{} }

// shardOf returns the stripe for a term's hash.
func (d *Dictionary) shardOf(h uint64) *shard { return &d.shards[h&(numShards-1)] }

// Encode returns the ID for term, assigning a fresh one if the term has
// not been seen before.
func (d *Dictionary) Encode(term rdf.Term) ID {
	kind := normKind(term.Kind)
	h := hashTerm(kind, term.Value)
	sh := d.shardOf(h)
	sh.mu.RLock()
	d.revMu.RLock()
	id := sh.index.lookup(h, &d.terms, kind, term.Value)
	d.revMu.RUnlock()
	sh.mu.RUnlock()
	if id != None {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	d.revMu.Lock()
	defer d.revMu.Unlock()
	if id = sh.index.lookup(h, &d.terms, kind, term.Value); id == None {
		id = d.terms.add(term.Value, MetaOf(kind, term.Value))
		sh.index.insert(h, id)
	}
	return id
}

// EncodeKey is Encode for a term given in key form (rdf.Term.Key). It
// panics on a malformed key.
func (d *Dictionary) EncodeKey(key string) ID {
	term, err := rdf.TermFromKey(key)
	if err != nil {
		panic(err)
	}
	return d.Encode(term)
}

// EncodeTable gives the terms of t numbered in locals their ids in d,
// in the order listed, and stores each in ids[local]: a term d holds
// keeps its id, and each new one gets the next. It is the bulk loaders'
// Encode: it takes each stripe it needs and the id allocation once,
// sizes the tables once for the terms that are new, and copies the
// terms' bytes and hashes, so a term costs no lock round and no string.
func (d *Dictionary) EncodeTable(t *Table, locals []uint32, ids []ID) {
	var touched [numShards]bool
	for _, l := range locals {
		touched[t.hashes[l]&(numShards-1)] = true
	}
	for i := range d.shards {
		if touched[i] {
			d.shards[i].mu.Lock()
			defer d.shards[i].mu.Unlock()
		}
	}
	d.revMu.Lock()
	defer d.revMu.Unlock()
	src := t.terms.view()
	var fresh [numShards]int
	n := 0
	for _, l := range locals {
		h := t.hashes[l]
		v, m := src.At(ID(l) + 1)
		if ids[l] = d.shardOf(h).index.lookup(h, &d.terms, m.Kind(), v); ids[l] == None {
			fresh[h&(numShards-1)]++
			n++
		}
	}
	if n == 0 {
		return
	}
	for i, k := range fresh {
		d.shards[i].index.reserve(d.shards[i].index.n + k)
	}
	d.terms.ents = slices.Grow(d.terms.ents, n)
	for _, l := range locals {
		if ids[l] == None {
			h := t.hashes[l]
			ids[l] = d.terms.add(src.At(ID(l) + 1))
			d.shardOf(h).index.insert(h, ids[l])
		}
	}
}

// EncodeTriple encodes all three terms of a triple.
func (d *Dictionary) EncodeTriple(t rdf.Triple) (s, p, o ID) {
	return d.Encode(t.Subject), d.Encode(t.Predicate), d.Encode(t.Object)
}

// Lookup returns the ID for term without assigning one. The second result
// reports whether the term is present.
func (d *Dictionary) Lookup(term rdf.Term) (ID, bool) {
	kind := normKind(term.Kind)
	h := hashTerm(kind, term.Value)
	sh := d.shardOf(h)
	sh.mu.RLock()
	d.revMu.RLock()
	id := sh.index.lookup(h, &d.terms, kind, term.Value)
	d.revMu.RUnlock()
	sh.mu.RUnlock()
	return id, id != None
}

// view returns the term table as it stands.
func (d *Dictionary) view() View {
	d.revMu.RLock()
	defer d.revMu.RUnlock()
	return d.terms.view()
}

// Decode returns the term for id. Its value aliases the dictionary's
// bytes (see View).
func (d *Dictionary) Decode(id ID) (rdf.Term, error) {
	if v := d.view(); v.covers(id) {
		return v.Term(id), nil
	}
	return rdf.Term{}, fmt.Errorf("dictionary: unknown id %d", id)
}

// Snapshot is a decoder over the terms the dictionary held when the
// snapshot was last refreshed: it reads a private View of the
// append-only term table, so Decode takes no lock. A query takes one
// and decodes every cell of its answer through it, where Dictionary.Decode
// would take and drop the read lock once per cell. A Snapshot is not safe
// for concurrent use; any number of them may be in use while other
// goroutines Encode.
type Snapshot struct {
	d *Dictionary
	v View
}

// Snapshot returns a decoder over the dictionary's terms. The term table
// is read on the first Decode, so a snapshot nothing decodes through
// costs nothing.
func (d *Dictionary) Snapshot() Snapshot { return Snapshot{d: d} }

// Decode returns the term for id, as Dictionary.Decode does. An id past
// the snapshot's end — assigned since it was taken — refreshes it once.
func (s *Snapshot) Decode(id ID) (rdf.Term, error) {
	if !s.v.covers(id) {
		if id != None {
			s.v = s.d.view()
		}
		if !s.v.covers(id) {
			return rdf.Term{}, fmt.Errorf("dictionary: unknown id %d", id)
		}
	}
	return s.v.Term(id), nil
}

// View refreshes the snapshot and returns its view of every id assigned
// so far: an immutable prefix of the dictionary's term table that may be
// kept and read from any number of goroutines.
func (s *Snapshot) View() View {
	s.v = s.d.view()
	return s.v
}

// MustDecode is Decode for callers that know the id is valid (e.g. ids
// previously produced by Encode); it panics on unknown ids.
func (d *Dictionary) MustDecode(id ID) rdf.Term {
	t, err := d.Decode(id)
	if err != nil {
		panic(err)
	}
	return t
}

// DecodeTriple decodes three ids back into a triple.
func (d *Dictionary) DecodeTriple(s, p, o ID) (rdf.Triple, error) {
	v := d.view()
	for _, id := range [3]ID{s, p, o} {
		if !v.covers(id) {
			return rdf.Triple{}, fmt.Errorf("dictionary: unknown id %d", id)
		}
	}
	return rdf.Triple{Subject: v.Term(s), Predicate: v.Term(p), Object: v.Term(o)}, nil
}

// Len returns the number of distinct terms encoded so far.
func (d *Dictionary) Len() int {
	d.revMu.RLock()
	defer d.revMu.RUnlock()
	return len(d.terms.ents)
}

// SizeBytes returns the bytes the dictionary holds: its segments at
// their allocated size, the id-indexed column and every stripe's slots.
// It is used by the memory-usage experiment (paper Figure 15).
func (d *Dictionary) SizeBytes() int64 {
	var n int64
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.RLock()
		n += int64(cap(sh.index.slots)) * 8
		sh.mu.RUnlock()
	}
	d.revMu.RLock()
	defer d.revMu.RUnlock()
	return n + d.terms.bytes()
}
