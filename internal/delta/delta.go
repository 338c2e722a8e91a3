// Package delta implements the live-update subsystem's MVCC overlay: an
// immutable, read-optimized main store (the six sorted Hexastore
// indexes, in memory or on disk) plus a small sorted in-memory delta of
// adds and tombstones, exposed as one graph.Graph / graph.SortedSource.
//
// This is the read-optimized-main + write-delta design of the
// differential-indexing literature, applied to the paper's sextuple
// index: readers never take a lock against writers — every read pins an
// immutable version with one atomic pointer load, and writers publish a
// new version with one swap — while the six main indexes stay exactly as
// the bulk loader built them until background compaction folds the delta
// in (the in-memory main is replaced by core.Store.Patch's new store; the
// disk main absorbs the delta into its B+-trees). An overlay is the only
// writable memory graph: a core.Store is sealed once built.
//
// Durability is delegated to an optional write-ahead log (package wal):
// a write batch is appended and group-committed before it becomes
// visible, and Open replays the log over the recovered main, so a crash
// between checkpoints loses nothing that Append reported durable.
//
// Snapshot isolation holds on every backend. The memory main is never
// mutated — compaction builds a replacement store that shares the
// untouched, immutable vectors — so pinned states are trivially stable.
// The disk main IS mutated in place by compaction, and stays isolated
// through undo compensation (treeUndo):
// before the first tree mutation, the merge publishes an immutable
// record of the delta being folded in; any state pinned before (or
// while) the merge reads the shared trees through the record — merged
// adds subtracted, merged deletes resurrected — recovering its exact
// pre-merge image, however many merges chain up while it is held. Only
// states created after a completed merge read the trees bare.
// Crash-safety of the disk merge itself is process-crash level: pages
// are CRC-checked, so torn OS-level writes are detected on reopen, not
// repaired; a merge that errors mid-way leaves the overlay correct but
// sticky-degraded (see Overlay.diskMergeErr).
package delta

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/idlist"
	"hexastore/internal/iofault"
	"hexastore/internal/rdf"
	"hexastore/internal/wal"
)

// DefaultCompactThreshold is the delta size (adds + tombstones) that
// triggers background compaction when Options.CompactThreshold is 0.
const DefaultCompactThreshold = 8192

// Options configures an Overlay.
type Options struct {
	// WALPath, when non-empty, enables write-ahead logging: every write
	// batch is group-committed to this file before it becomes visible,
	// and Open replays the log. Empty disables durability.
	WALPath string

	// SnapshotPath, for an in-memory main, is where checkpoints persist
	// the compacted store (written atomically via rename) so the WAL can
	// be truncated. Ignored for disk mains, which flush in place.
	SnapshotPath string

	// CompactThreshold is the delta size (adds + tombstones) that
	// triggers background compaction; 0 means DefaultCompactThreshold,
	// negative disables automatic compaction.
	CompactThreshold int

	// FS routes the overlay's own file I/O — the WAL and checkpoint
	// snapshots — through a fault-injection layer; nil means the real
	// filesystem. The main store's I/O is configured where the main is
	// opened (disk.Options.FS), not here.
	FS iofault.FS
}

func (o Options) threshold() int {
	if o.CompactThreshold == 0 {
		return DefaultCompactThreshold
	}
	return o.CompactThreshold
}

// idOp is one dictionary-encoded write operation.
type idOp struct {
	del bool
	t   [3]ID
}

// Overlay is the delta-overlay graph. Reads (Has, Match, Count, the
// SortedSource streams, Len) are lock-free: they pin the current state
// with an atomic load and are wait-free with respect to writers.
// Writes serialize on an internal mutex, append to the WAL, and publish
// a new immutable state. Overlay implements graph.Graph,
// graph.SortedSource, graph.ViewSource, graph.Snapshotter,
// graph.Epocher, graph.BatchUpdater, graph.Flusher and io.Closer.
type Overlay struct {
	dict *dictionary.Dictionary
	opts Options
	wal  *wal.Log

	// diskMain is the disk store behind the overlay, when there is one;
	// compaction then merges the delta into its B+-trees in place.
	diskMain *disk.Store

	// undoTail is the current epoch node for disk mains: the promise the
	// next in-place merge will fill so states pinned before it can
	// compensate (see treeUndo). Guarded by writeMu for writes.
	undoTail *treeUndo

	// diskMergeErr is sticky: once an in-place merge errors mid-way the
	// trees may hold a partial delta, which only the undo compensation
	// keeps invisible — further merges (whose completion would drop the
	// compensation) are refused, reads stay exact, writes keep
	// accumulating in the delta, and Checkpoint/Close surface the error.
	// Guarded by writeMu.
	diskMergeErr error

	cur atomic.Pointer[state]

	// writeMu serializes writers, compaction's state swaps and
	// checkpoints. Readers never touch it.
	writeMu     sync.Mutex
	compactDone *sync.Cond // broadcast when compacting drops to false
	compacting  bool
	// pending records effective ops landed while a memory-main patch
	// runs offline; they are replayed onto the patched main.
	pendingActive bool
	pending       []idOp
	closed        bool

	compactions    atomic.Int64
	lastCompactErr error // guarded by writeMu
}

// New builds an overlay over main without a WAL. Equivalent to Open with
// an empty Options.WALPath.
func New(main graph.Graph, opts Options) (*Overlay, error) {
	opts.WALPath = ""
	return Open(main, opts)
}

// Open builds an overlay over main and, when Options.WALPath is set,
// replays the log's surviving records into the delta — the
// crash-recovery path. The caller recovers main first (an empty or
// snapshot-restored memory store, or a reopened disk store); replay
// re-applies exactly the writes the WAL made durable, skipping those the
// main already holds, so recovery is idempotent across repeated crashes.
func Open(main graph.Graph, opts Options) (*Overlay, error) {
	o := &Overlay{dict: main.Dictionary(), opts: opts}
	o.compactDone = sync.NewCond(&o.writeMu)
	base := baseState(main)
	if ds, ok := graph.Unwrap(main).(*disk.Store); ok {
		o.diskMain = ds
		o.undoTail = &treeUndo{}
		base.undo = o.undoTail
	}
	o.publish(base)

	if opts.WALPath != "" {
		var ops []idOp
		l, err := wal.OpenFS(opts.FS, opts.WALPath, func(r wal.Record) error {
			op, ok, derr := o.decodeRecord(r)
			if derr != nil {
				return derr
			}
			if ok {
				ops = append(ops, op)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		o.wal = l
		switch {
		case len(ops) == 0:
		case o.diskMain != nil:
			// Disk main: replay straight into the B+-trees. disk.Add and
			// disk.Remove touch all six trees regardless of the SPO
			// verdict, so replay not only restores writes the crash lost
			// but also repairs trees a half-flushed crash left divergent
			// — a delta-side replay would consult the (possibly lying)
			// SPO index and skip exactly the ops that repair the others.
			// Nothing is flushed here: a repeat crash replays again, and
			// the next checkpoint truncates only after a durable flush.
			for _, op := range ops {
				var aerr error
				if op.del {
					_, aerr = o.diskMain.Remove(op.t[0], op.t[1], op.t[2])
				} else {
					_, aerr = o.diskMain.Add(op.t[0], op.t[1], op.t[2])
				}
				if aerr != nil {
					l.Close()
					return nil, fmt.Errorf("delta: WAL replay: %w", aerr)
				}
			}
			refreshed := *base
			refreshed.visible = o.diskMain.Len()
			refreshed.epoch = base.epoch + 1 // replay changed the trees
			o.publish(&refreshed)
		default:
			if _, _, err := o.apply(ops, false); err != nil {
				l.Close()
				return nil, fmt.Errorf("delta: WAL replay: %w", err)
			}
		}
	}
	return o, nil
}

// decodeRecord maps a WAL record's term keys to dictionary ids. Add
// records encode (the terms must exist for the triple to exist); Remove
// records only look up — a term the dictionary has never seen cannot be
// part of a present triple, so the record is skipped.
func (o *Overlay) decodeRecord(r wal.Record) (idOp, bool, error) {
	var op idOp
	op.del = r.Op == wal.OpRemove
	for i, key := range []string{r.S, r.P, r.O} {
		term, err := rdf.TermFromKey(key)
		if err != nil {
			return op, false, fmt.Errorf("delta: WAL term: %w", err)
		}
		if op.del {
			id, ok := o.dict.Lookup(term)
			if !ok {
				return op, false, nil
			}
			op.t[i] = id
		} else {
			op.t[i] = o.dict.Encode(term)
		}
	}
	return op, true, nil
}

// Dictionary returns the shared term dictionary.
func (o *Overlay) Dictionary() *dictionary.Dictionary { return o.dict }

// Len returns the number of visible triples.
func (o *Overlay) Len() int { return o.cur.Load().visible }

// Snapshot pins the current version: a consistent, immutable, read-only
// view that stays valid across any number of subsequent writes — the
// main store itself while nothing is pending over a memory main. It
// implements graph.Snapshotter; pinning is one atomic load.
func (o *Overlay) Snapshot() graph.Graph { return o.cur.Load().Snapshot() }

// publish makes ns the current state, first building, once, the view its
// readers pin when it has nothing pending over a memory main.
func (o *Overlay) publish(ns *state) {
	ns.view = nil
	if ns.mainCore != nil && ns.deltaLen() == 0 {
		ns.view = &mainView{Graph: graph.Memory(ns.mainCore), st: ns.mainCore, epoch: ns.Epoch()}
	}
	o.cur.Store(ns)
}

// Epoch returns the current state's content-version token (see
// graph.Epocher). Result caches must pin Snapshot first and read the
// epoch from the pinned state, so a write landing between the two reads
// cannot tag a stale answer with a fresh token.
func (o *Overlay) Epoch() string { return o.cur.Load().Epoch() }

// Main returns the current main graph beneath the delta (for stats and
// introspection; mutating it directly is invalid).
func (o *Overlay) Main() graph.Graph { return o.cur.Load().main }

func (o *Overlay) Has(s, p, oo ID) (bool, error) { return o.cur.Load().Has(s, p, oo) }

func (o *Overlay) Match(s, p, oo ID, fn func(s, p, o ID) bool) error {
	return o.cur.Load().Match(s, p, oo, fn)
}

func (o *Overlay) Count(s, p, oo ID) (int, error) { return o.cur.Load().Count(s, p, oo) }

// AppendSortedList implements graph.SortedSource over the merged
// main+delta view.
func (o *Overlay) AppendSortedList(dst []ID, s, p, oo ID) ([]ID, error) {
	return o.cur.Load().AppendSortedList(dst, s, p, oo)
}

// SortedPairs implements graph.SortedSource over the merged main+delta
// view.
func (o *Overlay) SortedPairs(s, p, oo ID, fn func(a, b ID) bool) error {
	return o.cur.Load().SortedPairs(s, p, oo, fn)
}

// SortedListView implements graph.ViewSource over the merged
// main+delta view: zero-copy pass-through of the compressed main's
// blocks when the delta has nothing in range, a streaming merge
// otherwise.
func (o *Overlay) SortedListView(s, p, oo ID) (idlist.View, bool, error) {
	return o.cur.Load().SortedListView(s, p, oo)
}

// Add inserts the triple ⟨s,p,o⟩ (a one-op batch: WAL commit + state swap).
func (o *Overlay) Add(s, p, oo ID) (bool, error) {
	ins, _, err := o.apply([]idOp{{del: false, t: [3]ID{s, p, oo}}}, true)
	return ins > 0, err
}

// Remove deletes the triple ⟨s,p,o⟩ (a one-op batch).
func (o *Overlay) Remove(s, p, oo ID) (bool, error) {
	_, del, err := o.apply([]idOp{{del: true, t: [3]ID{s, p, oo}}}, true)
	return del > 0, err
}

// ApplyTriples applies a whole update batch with a single WAL group
// commit and a single state swap. It implements graph.BatchUpdater,
// which is how a multi-statement SPARQL UPDATE request becomes one
// atomic, one-fsync operation.
func (o *Overlay) ApplyTriples(ops []graph.TripleOp) (inserted, deleted int, err error) {
	idOps := make([]idOp, 0, len(ops))
	for _, op := range ops {
		var t [3]ID
		if op.Del {
			var ok bool
			if t, ok = o.lookupTriple(op.T); !ok {
				continue // an unknown term cannot be part of a present triple
			}
		} else {
			if !op.T.Valid() {
				continue
			}
			t[0], t[1], t[2] = o.dict.EncodeTriple(op.T)
		}
		idOps = append(idOps, idOp{del: op.Del, t: t})
	}
	return o.apply(idOps, true)
}

// lookupTriple resolves a triple's terms without growing the dictionary.
func (o *Overlay) lookupTriple(t rdf.Triple) ([3]ID, bool) {
	s, ok := o.dict.Lookup(t.Subject)
	if !ok {
		return [3]ID{}, false
	}
	p, ok := o.dict.Lookup(t.Predicate)
	if !ok {
		return [3]ID{}, false
	}
	oo, ok := o.dict.Lookup(t.Object)
	if !ok {
		return [3]ID{}, false
	}
	return [3]ID{s, p, oo}, true
}

// membership tracks one batch-touched triple's delta status: where it
// started (wasAdd/wasDel, from the base runs) and where it is now.
type membership struct {
	wasAdd, wasDel bool
	inAdd, inDel   bool
}

// applyOps runs ops sequentially against base and returns the new state,
// the effective (state-changing) ops, and the insert/delete counts. A
// nil state means nothing changed. Pure with respect to base.
//
// Cost is O(ops·(log delta + main.Has)) plus, per ordering, the run's
// chunk directory and the chunks the batch lands in (see run.apply):
// visibility is answered by binary search on the base runs (plus a small
// map for triples the batch itself touched), and the successor state
// shares every other chunk with base — a write's cost follows the batch,
// not the delta it joins.
func applyOps(base *state, ops []idOp) (*state, []idOp, int, int, error) {
	touched := make(map[[3]ID]*membership, len(ops))
	get := func(t [3]ID) *membership {
		m := touched[t]
		if m == nil {
			m = &membership{
				wasAdd: base.adds[core.SPO].contains(t),
				wasDel: base.dels[core.SPO].contains(t),
			}
			m.inAdd, m.inDel = m.wasAdd, m.wasDel
			touched[t] = m
		}
		return m
	}

	var effective []idOp
	inserted, deleted := 0, 0
	for _, op := range ops {
		t := op.t
		if t[0] == None || t[1] == None || t[2] == None {
			continue
		}
		m := get(t)
		if op.del {
			switch {
			case m.inDel:
				continue // already invisible
			case m.inAdd:
				m.inAdd = false
			default:
				inMain, err := base.mainHas(t)
				if err != nil {
					return nil, nil, inserted, deleted, err
				}
				if !inMain {
					continue // never visible
				}
				m.inDel = true
			}
			deleted++
		} else {
			switch {
			case m.inDel:
				m.inDel = false // resurrect the main triple
			case m.inAdd:
				continue // already visible
			default:
				inMain, err := base.mainHas(t)
				if err != nil {
					return nil, nil, inserted, deleted, err
				}
				if inMain {
					continue // already visible through main
				}
				m.inAdd = true
			}
			inserted++
		}
		effective = append(effective, op)
	}
	if inserted == 0 && deleted == 0 {
		return nil, nil, 0, 0, nil
	}

	// Net changes of the batch, per target set.
	var addIns, addDel, delIns, delDel [][3]ID
	for t, m := range touched {
		if m.inAdd != m.wasAdd {
			if m.inAdd {
				addIns = append(addIns, t)
			} else {
				addDel = append(addDel, t)
			}
		}
		if m.inDel != m.wasDel {
			if m.inDel {
				delIns = append(delIns, t)
			} else {
				delDel = append(delDel, t)
			}
		}
	}
	ns := new(state)
	*ns = *base
	ns.visible = base.visible + inserted - deleted
	ns.epoch = base.epoch + 1 // content changed: invalidate cached results
	for _, ix := range core.AllIndexes {
		ns.adds[ix] = base.adds[ix].apply(permuteSorted(ix, addIns), permuteSorted(ix, addDel))
		ns.dels[ix] = base.dels[ix].apply(permuteSorted(ix, delIns), permuteSorted(ix, delDel))
	}
	return ns, effective, inserted, deleted, nil
}

// apply is the overlay write path: serialize on writeMu, compute the new
// state, make the effective ops durable (WAL group commit), then publish
// the state with one atomic swap — durability strictly before
// visibility. logWAL is false during replay, whose ops are already in
// the log.
func (o *Overlay) apply(ops []idOp, logWAL bool) (inserted, deleted int, err error) {
	if len(ops) == 0 {
		return 0, 0, nil
	}
	o.writeMu.Lock()
	defer o.writeMu.Unlock()
	if o.closed {
		return 0, 0, fmt.Errorf("delta: overlay is closed")
	}
	base := o.cur.Load()
	ns, effective, inserted, deleted, err := applyOps(base, ops)
	if err != nil || ns == nil {
		return 0, 0, err
	}
	if logWAL && o.wal != nil {
		recs, rerr := o.records(effective)
		if rerr != nil {
			return 0, 0, rerr
		}
		if werr := o.wal.Append(recs); werr != nil {
			return 0, 0, werr // not swapped: the failed batch never becomes visible
		}
	}
	o.publish(ns)
	if o.pendingActive {
		o.pending = append(o.pending, effective...)
	}
	o.maybeCompactLocked(ns)
	return inserted, deleted, nil
}

// records renders effective ops as WAL records (term keys, not ids).
func (o *Overlay) records(ops []idOp) ([]wal.Record, error) {
	recs := make([]wal.Record, 0, len(ops))
	for _, op := range ops {
		var keys [3]string
		for i, id := range op.t {
			term, err := o.dict.Decode(id)
			if err != nil {
				return nil, fmt.Errorf("delta: WAL record: %w", err)
			}
			keys[i] = term.Key()
		}
		r := wal.Record{Op: wal.OpAdd, S: keys[0], P: keys[1], O: keys[2]}
		if op.del {
			r.Op = wal.OpRemove
		}
		recs = append(recs, r)
	}
	return recs, nil
}

// Flush makes everything already applied durable. With a WAL this is a
// log fsync (appends are already committed, so it is usually a no-op).
// Without one, a disk-backed overlay merges the delta into the trees
// and flushes — eager, but it preserves the disk backend's
// per-update-durability contract (DB.Update and the HTTP handlers call
// Flush after every mutation), costing roughly what the plain disk
// backend paid before the overlay existed while reads stay lock-free.
// A memory-backed overlay without a WAL has no durable target and
// Flush is a no-op.
func (o *Overlay) Flush() error {
	if o.wal != nil {
		return o.wal.Sync()
	}
	if o.diskMain != nil {
		if err := o.Compact(); err != nil {
			return err
		}
		return o.diskMain.Flush()
	}
	return nil
}

// Stats reports the overlay's live-update state.
type Stats struct {
	// Visible is the number of triples the overlay presents.
	Visible int `json:"visible"`
	// MainTriples is the size of the read-optimized main.
	MainTriples int `json:"mainTriples"`
	// DeltaAdds and DeltaDels are the delta's pending inserts and
	// tombstones.
	DeltaAdds int `json:"deltaAdds"`
	DeltaDels int `json:"deltaDels"`
	// DeltaChunks is the number of chunks the delta's twelve sorted runs
	// (adds and tombstones in six orderings) are held in: what a write
	// copies a directory of, and how fragmented the delta is.
	DeltaChunks int `json:"deltaChunks"`
	// CompactThreshold is the delta size that triggers compaction.
	CompactThreshold int `json:"compactThreshold"`
	// Compactions counts completed delta→main merges.
	Compactions int64 `json:"compactions"`
	// WALBytes is the current log size (0 without a WAL).
	WALBytes int64  `json:"walBytes"`
	WALPath  string `json:"walPath,omitempty"`
}

// Degraded returns the error that has put the overlay into a degraded
// state, or nil: a sticky WAL failure (fsyncgate — further appends are
// refused and writes fail), a sticky disk-merge failure (reads stay
// exact, compactions are refused), or the most recent background
// compaction error. The serving tier's readiness endpoint reports this
// and sheds writes while it is non-nil.
func (o *Overlay) Degraded() error {
	if o.wal != nil {
		if err := o.wal.Err(); err != nil {
			return err
		}
	}
	o.writeMu.Lock()
	defer o.writeMu.Unlock()
	if o.diskMergeErr != nil {
		return o.diskMergeErr
	}
	return o.lastCompactErr
}

// Stats returns a consistent snapshot of the overlay's counters.
func (o *Overlay) Stats() Stats {
	st := o.cur.Load()
	s := Stats{
		Visible:          st.visible,
		MainTriples:      st.main.Len(),
		DeltaAdds:        st.adds[core.SPO].len(),
		DeltaDels:        st.dels[core.SPO].len(),
		CompactThreshold: o.opts.threshold(),
		Compactions:      o.compactions.Load(),
	}
	for _, ix := range core.AllIndexes {
		s.DeltaChunks += len(st.adds[ix].chunks) + len(st.dels[ix].chunks)
	}
	if o.wal != nil {
		s.WALBytes = o.wal.Size()
		s.WALPath = o.wal.Path()
	}
	return s
}

// Close checkpoints (folding the delta into the main and truncating the
// WAL where a durable main exists), closes the WAL, and closes the main
// store if it is closable. The overlay must not be used afterwards.
func (o *Overlay) Close() error {
	o.writeMu.Lock()
	if o.closed {
		o.writeMu.Unlock()
		return nil
	}
	for o.compacting {
		o.compactDone.Wait()
	}
	err := o.checkpointLocked()
	o.closed = true
	o.writeMu.Unlock()

	if o.wal != nil {
		if cerr := o.wal.Close(); err == nil {
			err = cerr
		}
	}
	if c, ok := graph.Unwrap(o.Main()).(io.Closer); ok {
		// The disk main is closed by the overlay; checkpointLocked
		// already flushed it, so this releases the pagefile.
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// ensure interface conformance
var (
	_ graph.Graph        = (*Overlay)(nil)
	_ graph.SortedSource = (*Overlay)(nil)
	_ graph.ViewSource   = (*Overlay)(nil)
	_ graph.Snapshotter  = (*Overlay)(nil)
	_ graph.BatchUpdater = (*Overlay)(nil)
	_ graph.Flusher      = (*Overlay)(nil)
	_ io.Closer          = (*Overlay)(nil)
	_ graph.Graph        = (*state)(nil)
	_ graph.SortedSource = (*state)(nil)
	_ graph.ViewSource   = (*state)(nil)
	_ graph.Snapshotter  = (*state)(nil)
	_ graph.Snapshotter  = (*mainView)(nil)
)
