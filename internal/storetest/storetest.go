// Package storetest is a cross-store equivalence harness: it drives
// every triple-store implementation in this repository (the sextuple
// Hexastore, the naive triples table, the COVP vertical-partitioning
// baselines, the Kowari cyclic-index baseline, and the disk-based
// Hexastore) with identical random workloads and verifies that all of
// them answer every statement-pattern shape identically.
//
// The harness is what makes the benchmark comparisons in this repository
// trustworthy: the stores being timed against each other are first
// proven to compute the same answers.
package storetest

import (
	"fmt"
	"sort"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/dictionary"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/idlist"
	"hexastore/internal/kowari"
	"hexastore/internal/triplestore"
	"hexastore/internal/vp"
)

// ID re-exports the dictionary id type.
type ID = dictionary.ID

// None is the wildcard marker.
const None = dictionary.None

// Store is the minimal behaviour the harness exercises.
type Store interface {
	// Name identifies the implementation in failure messages.
	Name() string
	// Add inserts a triple, reporting whether the store changed.
	Add(s, p, o ID) bool
	// Remove deletes a triple, reporting whether the store changed.
	Remove(s, p, o ID) bool
	// Match streams matching triples (None = wildcard) in any order.
	Match(s, p, o ID, fn func(s, p, o ID) bool)
	// Len returns the number of distinct triples.
	Len() int
}

// coreStore adapts the in-memory Hexastore the one way it takes writes:
// a delta overlay over an empty sealed core.Store. A small compaction
// threshold makes the overlay fold its delta into new stores with
// core.Store.Patch while the workload runs. Overlay errors (it has no
// WAL, so none are expected) are kept for Err.
type coreStore struct {
	ov  *delta.Overlay
	err error
}

// NewCore wraps a fresh in-memory Hexastore.
func NewCore() Store { return overCore(core.New()) }

// overCore wraps st in the overlay.
func overCore(st *core.Store) *coreStore {
	ov, err := delta.New(graph.Memory(st), delta.Options{CompactThreshold: 64})
	return &coreStore{ov: ov, err: err}
}

func (c *coreStore) Name() string { return "hexastore" }

func (c *coreStore) Add(s, p, o ID) bool {
	ok, err := c.ov.Add(s, p, o)
	c.keep(err)
	return ok
}

func (c *coreStore) Remove(s, p, o ID) bool {
	ok, err := c.ov.Remove(s, p, o)
	c.keep(err)
	return ok
}

func (c *coreStore) Len() int { return c.ov.Len() }

func (c *coreStore) Match(s, p, o ID, fn func(s, p, o ID) bool) {
	c.keep(c.ov.Match(s, p, o, fn))
}

func (c *coreStore) keep(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Err returns the first overlay error the adapter swallowed, if any.
func (c *coreStore) Err() error { return c.err }

// tripleStore adapts the naive triples table.
type tripleStore struct{ st *triplestore.Store }

// NewTriplestore wraps a fresh naive triples table.
func NewTriplestore() Store {
	return &tripleStore{st: triplestore.New(dictionary.New())}
}

func (c *tripleStore) Name() string           { return "triplestore" }
func (c *tripleStore) Add(s, p, o ID) bool    { return c.st.Add(s, p, o) }
func (c *tripleStore) Remove(s, p, o ID) bool { return c.st.Remove(s, p, o) }
func (c *tripleStore) Len() int               { return c.st.Len() }
func (c *tripleStore) Match(s, p, o ID, fn func(s, p, o ID) bool) {
	c.st.Match(s, p, o, fn)
}

// kowariStore adapts the cyclic-index baseline.
type kowariStore struct{ st *kowari.Store }

// NewKowari wraps a fresh Kowari-style cyclic-index store.
func NewKowari() Store { return &kowariStore{st: kowari.New()} }

func (c *kowariStore) Name() string           { return "kowari" }
func (c *kowariStore) Add(s, p, o ID) bool    { return c.st.Add(s, p, o) }
func (c *kowariStore) Remove(s, p, o ID) bool { return c.st.Remove(s, p, o) }
func (c *kowariStore) Len() int               { return c.st.Len() }
func (c *kowariStore) Match(s, p, o ID, fn func(s, p, o ID) bool) {
	c.st.Match(s, p, o, fn)
}

// vpStore adapts a COVP store. COVP has no general Match of its own —
// answering non-property-bound patterns requires iterating every
// property table, which is exactly the §2.2.3 critique; the adapter
// performs that iteration faithfully.
type vpStore struct {
	st   *vp.Store
	name string
}

// NewCOVP1 wraps a fresh single-index (pso) vertical-partitioning store.
func NewCOVP1() Store {
	return &vpStore{st: vp.NewCOVP1(dictionary.New()), name: "covp1"}
}

// NewCOVP2 wraps a fresh two-index (pso+pos) store.
func NewCOVP2() Store {
	return &vpStore{st: vp.NewCOVP2(dictionary.New()), name: "covp2"}
}

func (c *vpStore) Name() string           { return c.name }
func (c *vpStore) Add(s, p, o ID) bool    { return c.st.Add(s, p, o) }
func (c *vpStore) Remove(s, p, o ID) bool { return c.st.Remove(s, p, o) }
func (c *vpStore) Len() int               { return c.st.Len() }

func (c *vpStore) Match(s, p, o ID, fn func(s, p, o ID) bool) {
	props := []ID{p}
	if p == None {
		props = c.st.Properties()
	}
	for _, pp := range props {
		if s != None {
			objs := c.st.Objects(pp, s)
			stop := false
			objs.Range(func(obj ID) bool {
				if o != None && obj != o {
					return true
				}
				if !fn(s, pp, obj) {
					stop = true
				}
				return !stop
			})
			if stop {
				return
			}
			continue
		}
		vec := c.st.SubjectVec(pp)
		stop := false
		vec.Range(func(subj ID, list *idlist.List) bool {
			list.Range(func(obj ID) bool {
				if o != None && obj != o {
					return true
				}
				if !fn(subj, pp, obj) {
					stop = true
				}
				return !stop
			})
			return !stop
		})
		if stop {
			return
		}
	}
}

// diskStore adapts the disk-based Hexastore. I/O errors are surfaced
// through Err, since the harness interface is error-free.
type diskStore struct {
	st  *disk.Store
	err error
}

// NewDisk creates a disk Hexastore in dir and wraps it. Callers own
// closing via the returned closer.
func NewDisk(dir string) (Store, func() error, error) {
	st, err := disk.Create(dir, disk.Options{CacheSize: 128})
	if err != nil {
		return nil, nil, err
	}
	d := &diskStore{st: st}
	return d, st.Close, nil
}

func (c *diskStore) Name() string { return "disk" }

func (c *diskStore) Add(s, p, o ID) bool {
	ok, err := c.st.Add(s, p, o)
	if err != nil {
		c.err = err
	}
	return ok
}

func (c *diskStore) Remove(s, p, o ID) bool {
	ok, err := c.st.Remove(s, p, o)
	if err != nil {
		c.err = err
	}
	return ok
}

func (c *diskStore) Len() int { return c.st.Len() }

func (c *diskStore) Match(s, p, o ID, fn func(s, p, o ID) bool) {
	if err := c.st.Match(s, p, o, fn); err != nil {
		c.err = err
	}
}

// Err returns the first I/O error the adapter swallowed, if any.
func (c *diskStore) Err() error { return c.err }

// Reference is the trivially correct model implementation: a Go map.
type Reference struct {
	set map[[3]ID]bool
}

// NewReference returns an empty reference store.
func NewReference() *Reference { return &Reference{set: make(map[[3]ID]bool)} }

// Name implements Store.
func (r *Reference) Name() string { return "reference" }

// Add implements Store.
func (r *Reference) Add(s, p, o ID) bool {
	k := [3]ID{s, p, o}
	if s == None || p == None || o == None || r.set[k] {
		return false
	}
	r.set[k] = true
	return true
}

// Remove implements Store.
func (r *Reference) Remove(s, p, o ID) bool {
	k := [3]ID{s, p, o}
	if !r.set[k] {
		return false
	}
	delete(r.set, k)
	return true
}

// Len implements Store.
func (r *Reference) Len() int { return len(r.set) }

// Match implements Store.
func (r *Reference) Match(s, p, o ID, fn func(s, p, o ID) bool) {
	for k := range r.set {
		if (s == None || k[0] == s) && (p == None || k[1] == p) && (o == None || k[2] == o) {
			if !fn(k[0], k[1], k[2]) {
				return
			}
		}
	}
}

// Collect gathers Match results as a canonically sorted slice.
func Collect(st Store, s, p, o ID) [][3]ID {
	var out [][3]ID
	st.Match(s, p, o, func(s, p, o ID) bool {
		out = append(out, [3]ID{s, p, o})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < 3; k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return out
}

// Diff compares the Match results of two stores for one pattern and
// returns a descriptive error when they differ.
func Diff(a, b Store, s, p, o ID) error {
	ra := Collect(a, s, p, o)
	rb := Collect(b, s, p, o)
	if len(ra) != len(rb) {
		return fmt.Errorf("pattern (%d,%d,%d): %s returned %d triples, %s returned %d",
			s, p, o, a.Name(), len(ra), b.Name(), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			return fmt.Errorf("pattern (%d,%d,%d) row %d: %s has %v, %s has %v",
				s, p, o, i, a.Name(), ra[i], b.Name(), rb[i])
		}
	}
	return nil
}
