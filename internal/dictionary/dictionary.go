// Package dictionary implements the dictionary encoding described in §4.1
// of the Hexastore paper: RDF terms (strings) are mapped to dense integer
// identifiers, and the stores operate on identifiers only. A single
// Dictionary instance is shared by all six indices of a Hexastore and by
// the baseline stores so that cross-store comparisons use identical keys.
package dictionary

import (
	"fmt"
	"hash/maphash"
	"sync"

	"hexastore/internal/rdf"
)

// ID is a dictionary-encoded term identifier. IDs are dense and start at
// 1; 0 is reserved as "no term" / wildcard in pattern queries.
type ID uint64

// None is the zero ID, never assigned to a term. Pattern queries use it as
// the unbound marker.
const None ID = 0

// numShards stripes the forward (term → id) map. Must be a power of two.
// 32 stripes keep the per-shard maps warm while making lock collisions
// between concurrent encoders rare even at high worker counts.
const numShards = 32

// shard is one stripe of the forward map with its own lock, so concurrent
// Encode calls on distinct terms proceed without serializing on a single
// dictionary-wide mutex.
type shard struct {
	mu      sync.RWMutex
	forward map[string]ID
}

// Dictionary is a bidirectional, append-only mapping between RDF terms and
// IDs. It is safe for concurrent use and Encode scales across cores: the
// forward map is hash-sharded into independently locked stripes, and only
// the id allocation (an append to the shared reverse view) is serialized.
// Terms are never removed: stores that delete triples may leave orphaned
// dictionary entries, which matches the paper's architecture (the mapping
// table only grows).
//
// ID assignment order is first-come-first-served: a single-threaded caller
// sees the dense 1,2,3,… assignment in encounter order; concurrent callers
// see a dense but interleaving-dependent assignment. The bulk loaders of
// package core encode from one goroutine in a canonical order (see
// core.EncodeNTriples), so a load gives the same ids whatever its worker
// count.
type Dictionary struct {
	shards [numShards]shard

	// revMu guards reverse, the merged id → term-key view all shards
	// allocate from; reverse[id-1] = term key. Lock order: a shard mutex
	// may be held when taking revMu, never the other way around.
	//
	// reverse is append-only: Encode is its only writer and it only ever
	// appends, so an element, once written, is never written again — an
	// append either fills spare capacity past every header taken earlier
	// or moves to a new array and leaves the old one as it was. A slice
	// header copied under revMu is therefore an immutable prefix that
	// can be read without the lock for as long as it is kept, which is
	// what Snapshot relies on. Anything that would rewrite or truncate
	// reverse has to retire the snapshots first.
	revMu   sync.RWMutex
	reverse []string
}

// New returns an empty Dictionary.
func New() *Dictionary {
	d := &Dictionary{}
	for i := range d.shards {
		d.shards[i].forward = make(map[string]ID)
	}
	return d
}

// shardSeed seeds the stripe hash; any fixed seed spreads keys evenly.
var shardSeed = maphash.MakeSeed()

// shardOf returns the stripe for key.
func (d *Dictionary) shardOf(key string) *shard {
	return &d.shards[maphash.String(shardSeed, key)&(numShards-1)]
}

// Encode returns the ID for term, assigning a fresh one if the term has
// not been seen before.
func (d *Dictionary) Encode(term rdf.Term) ID { return d.EncodeKey(term.Key()) }

// EncodeKey is Encode for a term given in key form (rdf.Term.Key), as
// the bulk loader has it; the dictionary keeps the key string itself.
func (d *Dictionary) EncodeKey(key string) ID {
	sh := d.shardOf(key)
	sh.mu.RLock()
	id, ok := sh.forward[key]
	sh.mu.RUnlock()
	if ok {
		return id
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if id, ok = sh.forward[key]; ok {
		return id
	}
	d.revMu.Lock()
	d.reverse = append(d.reverse, key)
	id = ID(len(d.reverse))
	d.revMu.Unlock()
	sh.forward[key] = id
	return id
}

// EncodeTriple encodes all three terms of a triple.
func (d *Dictionary) EncodeTriple(t rdf.Triple) (s, p, o ID) {
	return d.Encode(t.Subject), d.Encode(t.Predicate), d.Encode(t.Object)
}

// Lookup returns the ID for term without assigning one. The second result
// reports whether the term is present.
func (d *Dictionary) Lookup(term rdf.Term) (ID, bool) {
	key := term.Key()
	sh := d.shardOf(key)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	id, ok := sh.forward[key]
	return id, ok
}

// Decode returns the term for id.
func (d *Dictionary) Decode(id ID) (rdf.Term, error) {
	d.revMu.RLock()
	defer d.revMu.RUnlock()
	if id == None || int(id) > len(d.reverse) {
		return rdf.Term{}, fmt.Errorf("dictionary: unknown id %d", id)
	}
	return rdf.TermFromKey(d.reverse[id-1])
}

// Snapshot is a decoder over the terms the dictionary held when the
// snapshot was last refreshed: it reads a private header of
// the append-only key table, so Decode takes no lock. A query takes one
// and decodes every cell of its answer through it, where Dictionary.Decode
// would take and drop the read lock once per cell. A Snapshot is not safe
// for concurrent use; any number of them may be in use while other
// goroutines Encode.
type Snapshot struct {
	d    *Dictionary
	keys []string
}

// Snapshot returns a decoder over the dictionary's terms. The key table
// is read on the first Decode, so a snapshot nothing decodes through
// costs nothing.
func (d *Dictionary) Snapshot() Snapshot { return Snapshot{d: d} }

func (s *Snapshot) refresh() {
	s.d.revMu.RLock()
	s.keys = s.d.reverse
	s.d.revMu.RUnlock()
}

// Decode returns the term for id, as Dictionary.Decode does. An id past
// the snapshot's end — assigned since it was taken — refreshes it once.
func (s *Snapshot) Decode(id ID) (rdf.Term, error) {
	// id-1 wraps None around to the largest value, so one compare turns
	// away both "no term" and an id the snapshot does not cover.
	if uint64(id-1) >= uint64(len(s.keys)) {
		if id != None {
			s.refresh()
		}
		if uint64(id-1) >= uint64(len(s.keys)) {
			return rdf.Term{}, fmt.Errorf("dictionary: unknown id %d", id)
		}
	}
	return rdf.TermFromKey(s.keys[id-1])
}

// Keys refreshes the snapshot and returns its key table: keys[id-1] is
// the key (rdf.Term.Key) of id, for every id assigned so far. The table
// is an immutable prefix of the dictionary's own (see reverse): it may be
// kept and read from any number of goroutines, never written, and later
// Encodes never change what it holds.
func (s *Snapshot) Keys() []string {
	s.refresh()
	return s.keys
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
	st, err := d.Decode(s)
	if err != nil {
		return rdf.Triple{}, err
	}
	pt, err := d.Decode(p)
	if err != nil {
		return rdf.Triple{}, err
	}
	ot, err := d.Decode(o)
	if err != nil {
		return rdf.Triple{}, err
	}
	return rdf.Triple{Subject: st, Predicate: pt, Object: ot}, nil
}

// Len returns the number of distinct terms encoded so far.
func (d *Dictionary) Len() int {
	d.revMu.RLock()
	defer d.revMu.RUnlock()
	return len(d.reverse)
}

// SizeBytes estimates the memory footprint of the dictionary: the string
// payloads plus per-entry bookkeeping (map bucket + reverse slice entry).
// It is used by the memory-usage experiment (paper Figure 15).
func (d *Dictionary) SizeBytes() int64 {
	d.revMu.RLock()
	defer d.revMu.RUnlock()
	var n int64
	for _, s := range d.reverse {
		// String payload counted twice (map key shares the backing array
		// with the reverse entry in our construction, but a conservative
		// store would not), plus ~48 bytes of map/slice overhead.
		n += int64(len(s)) + 48
	}
	return n
}
