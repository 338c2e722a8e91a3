package delta

import (
	"fmt"
	"os"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/iofault"
)

// maybeCompactLocked starts a background compaction when the delta has
// outgrown the threshold. Caller holds writeMu.
func (o *Overlay) maybeCompactLocked(st *state) {
	threshold := o.opts.CompactThreshold
	if threshold < 0 || o.compacting || o.closed || o.diskMergeErr != nil {
		return
	}
	if st.deltaLen() < o.opts.threshold() {
		return
	}
	if st.mainCore == nil && o.diskMain == nil {
		return // no compactable main (baseline overlay): the delta just grows
	}
	o.compacting = true
	go o.backgroundCompact()
}

// backgroundCompact folds the delta into the main.
//
// Memory main: the patch runs offline — the pinned state's delta is
// folded into a new core.Store that shares every head vector the delta
// does not name with the old main (see patchMain), while readers AND
// writers proceed; writes landing meanwhile are recorded (pending) and
// replayed onto the patched main under a brief writeMu hold. The old
// main is never mutated, so pinned snapshots stay valid forever.
//
// Disk main: the delta is merged into the six B+-trees in place, under
// writeMu for the whole merge — writers stall, readers do not (every
// read stream deduplicates, so a triple transiently present in both the
// trees and the delta is served exactly once). Ends with a store flush
// and, when a WAL is attached, checkpoint truncation.
func (o *Overlay) backgroundCompact() {
	t0 := time.Now()
	defer func() { deltaCompactSeconds.Observe(time.Since(t0).Seconds()) }()
	if o.diskMain != nil {
		o.writeMu.Lock()
		err := o.compactDiskLocked()
		if err == nil && o.wal != nil {
			err = o.wal.Truncate()
		}
		o.finishCompactLocked(err)
		o.writeMu.Unlock()
		return
	}

	o.writeMu.Lock()
	snap := o.cur.Load()
	o.pending = o.pending[:0]
	o.pendingActive = true
	o.writeMu.Unlock()

	newMain := patchMain(snap)

	o.writeMu.Lock()
	defer o.writeMu.Unlock()
	err := o.swapPatchedLocked(newMain)
	o.pendingActive = false
	o.pending = nil
	if err == nil && o.wal != nil && o.opts.SnapshotPath != "" && o.cur.Load().deltaLen() == 0 {
		// Bound the log: no writes raced the patch, so the patched
		// main is the whole visible set — persist it and truncate. When
		// writes did race (pending delta non-empty), skip; the next
		// compaction or an explicit Checkpoint will truncate.
		if err = writeSnapshot(o.opts.FS, o.opts.SnapshotPath, o.cur.Load().mainCore); err == nil {
			err = o.wal.Truncate()
		}
	}
	o.finishCompactLocked(err)
}

// finishCompactLocked records the outcome and wakes checkpoint waiters.
// Caller holds writeMu.
func (o *Overlay) finishCompactLocked(err error) {
	if err == nil {
		o.compactions.Add(1)
		deltaCompactions.Inc()
	}
	o.lastCompactErr = err
	o.compacting = false
	o.compactDone.Broadcast()
}

// CompactErr returns the error of the most recent (background)
// compaction, nil when it succeeded. Surfaced so operators can detect a
// wedged merge; Checkpoint and Close run compaction synchronously and
// return errors directly.
func (o *Overlay) CompactErr() error {
	o.writeMu.Lock()
	defer o.writeMu.Unlock()
	return o.lastCompactErr
}

// patchMain folds a pinned state's delta into its memory main. The
// delta already holds its rows sorted in all six orderings, which is the
// input each index needs: core.Store.Patch re-encodes only the head
// vectors those rows name and shares the rest with the old main, so a
// compaction costs what the delta touches, not what the store holds.
// The result is always in the packed layout.
func patchMain(snap *state) *core.Store {
	var adds, dels [6][][3]ID
	for _, ix := range core.AllIndexes {
		adds[ix] = snap.adds[ix].all()
		dels[ix] = snap.dels[ix].all()
	}
	newMain, ps := snap.mainCore.Patch(adds, dels)
	deltaCompactHeadsRebuilt.Add(int64(ps.HeadsRebuilt))
	deltaCompactHeadsShared.Add(int64(ps.HeadsShared))
	return newMain
}

// swapPatchedLocked publishes a patched memory main, replaying the ops
// that landed while the patch ran offline. Caller holds writeMu.
func (o *Overlay) swapPatchedLocked(newMain *core.Store) error {
	base := baseState(graph.Memory(newMain))
	ns := base
	if len(o.pending) > 0 {
		// The pending ops are already WAL-durable; re-derive their delta
		// against the patched main.
		replayed, _, _, _, err := applyOps(base, o.pending)
		if err != nil {
			return err
		}
		if replayed != nil {
			ns = replayed
		}
	}
	// The published state is content-identical to the current one
	// (patched snapshot + pending replay = snapshot state + pending
	// publishes), so the epoch token is preserved: cached results stay
	// valid across compaction.
	ns.epoch = o.cur.Load().epoch
	o.publish(ns)
	return nil
}

// compactDiskLocked merges the delta into the disk main's B+-trees and
// flushes, then publishes the empty-delta state. Caller holds writeMu.
//
// Isolation protocol: before the first tree mutation, the merge
// publishes an undoRec for the delta on the current epoch node, so
// every state pinned before (or during) the merge reads the trees
// through the record and keeps its exact image — including the state
// whose delta is being merged, and any states writers create while a
// retried merge is pending. Only the post-merge state (fresh epoch,
// empty delta) reads the trees bare. Any error is sticky (see
// diskMergeErr): a partial merge leaves stray triples in the trees that
// only the published compensation hides, so completing a later merge —
// which would hand out uncompensated states — is refused.
func (o *Overlay) compactDiskLocked() error {
	if o.diskMergeErr != nil {
		return o.diskMergeErr
	}
	st := o.cur.Load()
	undo := st.undo
	if st.deltaLen() > 0 {
		// Make the dictionary durable BEFORE the first tree mutation:
		// once the merge starts, buffer-pool eviction may write tree
		// pages to disk at any moment, and a crash must never leave
		// persisted rows whose ids the dictionary sidecar cannot map —
		// WAL replay re-encodes terms in log order, which only matches
		// the live (concurrent-writer) assignment order for terms the
		// sidecar already pinned.
		if err := o.diskMain.FlushDictionary(); err != nil {
			o.diskMergeErr = fmt.Errorf("delta: disk merge dictionary flush: %w", err)
			return o.diskMergeErr
		}
		newTail := &treeUndo{}
		o.undoTail.rec.Store(&undoRec{adds: st.adds, dels: st.dels, next: newTail})
		o.undoTail = newTail
		undo = newTail
		for _, t := range st.adds[core.SPO].all() {
			if _, err := o.diskMain.Add(t[0], t[1], t[2]); err != nil {
				o.diskMergeErr = fmt.Errorf("delta: disk merge add: %w", err)
				return o.diskMergeErr
			}
		}
		for _, t := range st.dels[core.SPO].all() {
			if _, err := o.diskMain.Remove(t[0], t[1], t[2]); err != nil {
				o.diskMergeErr = fmt.Errorf("delta: disk merge remove: %w", err)
				return o.diskMergeErr
			}
		}
	}
	if err := o.diskMain.Flush(); err != nil {
		o.diskMergeErr = fmt.Errorf("delta: disk merge flush: %w", err)
		return o.diskMergeErr
	}
	// Same content and epoch, so cached results stay valid; empty delta.
	ns := new(state)
	*ns = *st
	ns.adds, ns.dels, ns.undo = [6]run{}, [6]run{}, undo
	o.publish(ns)
	return nil
}

// Compact synchronously folds the delta into the main (writers blocked
// for the duration, readers never). It does not touch the WAL; see
// Checkpoint for compaction + durable truncation.
func (o *Overlay) Compact() error {
	o.writeMu.Lock()
	defer o.writeMu.Unlock()
	for o.compacting {
		o.compactDone.Wait()
	}
	if o.closed {
		return fmt.Errorf("delta: overlay is closed")
	}
	return o.compactMainLocked()
}

// compactMainLocked merges the delta into the main store synchronously.
// Caller holds writeMu with no background compaction in flight.
func (o *Overlay) compactMainLocked() error {
	st := o.cur.Load()
	if st.deltaLen() == 0 {
		return nil
	}
	t0 := time.Now()
	defer func() { deltaCompactSeconds.Observe(time.Since(t0).Seconds()) }()
	if o.diskMain != nil {
		err := o.compactDiskLocked()
		if err == nil {
			o.compactions.Add(1)
			deltaCompactions.Inc()
		}
		return err
	}
	if st.mainCore == nil {
		return nil // baseline main: nothing sorted to merge into
	}
	if err := o.swapPatchedLocked(patchMain(st)); err != nil {
		return err
	}
	o.compactions.Add(1)
	deltaCompactions.Inc()
	return nil
}

// Checkpoint makes the whole visible set durable in the main store and
// truncates the WAL: the delta is compacted away, then the disk main is
// flushed — or the memory main is written to Options.SnapshotPath
// (atomic tmp + rename) — and only after that durable point does the log
// truncate. Without a durable main destination (no snapshot path, or a
// baseline main) the WAL is synced and kept whole instead, so recovery
// still replays everything.
func (o *Overlay) Checkpoint() error {
	o.writeMu.Lock()
	defer o.writeMu.Unlock()
	for o.compacting {
		o.compactDone.Wait()
	}
	if o.closed {
		return fmt.Errorf("delta: overlay is closed")
	}
	return o.checkpointLocked()
}

// checkpointLocked is Checkpoint's body; caller holds writeMu with no
// background compaction in flight.
func (o *Overlay) checkpointLocked() error {
	if err := o.compactMainLocked(); err != nil {
		return err
	}
	st := o.cur.Load()
	switch {
	case o.diskMain != nil:
		// compactMainLocked flushed when it merged; an empty delta skips
		// the merge, so flush explicitly for the buffered-page case.
		if err := o.diskMain.Flush(); err != nil {
			return err
		}
	case st.mainCore != nil && o.opts.SnapshotPath != "" && st.deltaLen() == 0:
		if err := writeSnapshot(o.opts.FS, o.opts.SnapshotPath, st.mainCore); err != nil {
			return err
		}
	default:
		// No durable main to truncate against: keep the log whole.
		if o.wal != nil {
			return o.wal.Sync()
		}
		return nil
	}
	if o.wal != nil {
		return o.wal.Truncate()
	}
	return nil
}

// RestoreSnapshot loads a checkpoint snapshot written by this package's
// checkpoints (or any core.Store.Snapshot image) into a fresh
// dictionary, reading through fsys (nil = the real filesystem). It
// returns ok=false with a nil error when no snapshot exists at path;
// any other failure surfaces, because treating an unreadable snapshot
// as absent would silently start an empty store — and the next
// checkpoint would then overwrite the good snapshot with it. Callers
// (the facade, hexserver, the torture harness) share this helper so the
// distinction lives in exactly one place.
func RestoreSnapshot(fsys iofault.FS, path string) (*core.Store, bool, error) {
	f, err := iofault.Open(iofault.Or(fsys), path)
	switch {
	case err == nil:
	case os.IsNotExist(err):
		return nil, false, nil
	default:
		return nil, false, err
	}
	defer f.Close()
	st, rerr := core.Restore(f)
	if rerr != nil {
		return nil, false, fmt.Errorf("delta: restore snapshot %s: %w", path, rerr)
	}
	return st, true, nil
}

// writeSnapshot persists the store atomically: write to a temp file,
// fsync, rename over the destination. The rename is the commit point —
// a crash anywhere before it leaves the previous snapshot untouched,
// which the torture harness verifies by crashing at every step.
func writeSnapshot(fsys iofault.FS, path string, st *core.Store) error {
	fsys = iofault.Or(fsys)
	tmp := path + ".tmp"
	f, err := iofault.Create(fsys, tmp)
	if err != nil {
		return fmt.Errorf("delta: snapshot: %w", err)
	}
	if err := st.Snapshot(f); err != nil {
		f.Close()
		fsys.Remove(tmp) //nolint:errcheck // best-effort cleanup on the error path
		return fmt.Errorf("delta: snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("delta: snapshot sync: %w", err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("delta: snapshot close: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp) //nolint:errcheck
		return fmt.Errorf("delta: snapshot rename: %w", err)
	}
	return nil
}
