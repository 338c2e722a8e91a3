package shard_test

import (
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
	"hexastore/internal/iofault"
	"hexastore/internal/rdf"
	"hexastore/internal/shard"
)

// TestFollowerReconnectConvergence is the serving-resilience
// acceptance test: a TCP follower is streaming from a leader whose WAL
// then suffers an injected torn write; the leader goes down (listener
// closed, log unavailable), the follower rides out the outage with
// backoff, the leader is repaired by reopening (replay truncates the
// torn batch), and after the follower reconnects both sides must
// converge to byte-identical store snapshots.
func TestFollowerReconnectConvergence(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "leader.wal")
	inj := iofault.NewInjector(nil)

	openLeader := func(fs iofault.FS) *delta.Overlay {
		t.Helper()
		ov, err := delta.Open(graph.Memory(core.NewShared(dictionary.New())),
			delta.Options{WALPath: walPath, SnapshotPath: walPath + ".snapshot",
				CompactThreshold: -1, FS: fs})
		if err != nil {
			t.Fatalf("open leader: %v", err)
		}
		return ov
	}
	leader := openLeader(inj)

	replica, err := delta.New(graph.Memory(core.NewShared(dictionary.New())),
		delta.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	go shard.ServeWALWith(l, []string{walPath}, shard.ShipOptions{Keepalive: 10 * time.Millisecond}) //nolint:errcheck // ends with the listener

	f := shard.NewTCPFollower(replica, addr, 0, shard.FollowerOptions{
		BackoffMin:  time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
		MaxFailures: -1, // ride out the outage however long it lasts
		ReadTimeout: 500 * time.Millisecond,
	})
	f.Start()
	defer f.Close()

	writerBatches(t, leader, 3)
	waitSameSnapshot(t, replica, leader, f)

	// Injected leader failure: the next WAL group write tears after 7
	// bytes. The writer sees the error, the log poisons itself, and the
	// torn batch has no commit marker — so it was never shipped.
	inj.AddFault(iofault.Fault{
		Op:   iofault.OpWrite,
		Nth:  inj.Count(iofault.OpWrite) + 1,
		Path: "leader.wal",
		Keep: 7,
	})
	if _, _, err := graph.ApplyTriples(leader, []graph.TripleOp{
		{T: rdf.T(rdf.NewIRI("http://ex/crash"), rdf.NewIRI("http://ex/p0"), rdf.NewIRI("http://ex/lost"))},
	}); err == nil {
		t.Fatal("apply over torn WAL write: no error")
	}

	// Leader outage: listener gone, log momentarily unavailable. The
	// serving connection dies on its next tail; reconnect attempts fail.
	l.Close()
	leader.Close() //nolint:errcheck // poisoned; recovery is reopening
	if err := os.Rename(walPath, walPath+".hold"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := f.Stats()
		if !st.Connected && st.ConsecutiveFailures >= 2 {
			break // the follower is in its backoff loop
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never entered reconnect backoff (stats %+v)", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Repair: the log returns, the leader reopens through a clean
	// filesystem (replay discards the torn batch), serving resumes on
	// the same address.
	if err := os.Rename(walPath+".hold", walPath); err != nil {
		t.Fatal(err)
	}
	leader = openLeader(nil)
	defer leader.Close()
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	go shard.ServeWALWith(l2, []string{walPath}, shard.ShipOptions{Keepalive: 10 * time.Millisecond}) //nolint:errcheck // ends with the listener

	writerBatches(t, leader, 2)
	waitSameSnapshot(t, replica, leader, f)
	if st := f.Stats(); st.Degraded || st.ConsecutiveFailures != 0 {
		t.Fatalf("follower should be healthy after reconnect (stats %+v)", st)
	}
}

// TestFollowerStickyDegraded: a follower that exhausts MaxFailures
// against a dead leader goes sticky-degraded (stops dialing, visible in
// Stats), and Resume re-arms the reconnect loop.
func TestFollowerStickyDegraded(t *testing.T) {
	// A listener that is closed immediately: the port refuses connections.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()

	replica, err := delta.New(graph.Memory(core.NewShared(dictionary.New())),
		delta.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	f := shard.NewTCPFollower(replica, addr, 0, shard.FollowerOptions{
		BackoffMin:  time.Millisecond,
		BackoffMax:  5 * time.Millisecond,
		MaxFailures: 3,
	})
	f.Start()
	defer f.Close()

	deadline := time.Now().Add(10 * time.Second)
	for !f.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never went degraded (stats %+v)", f.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
	st := f.Stats()
	if st.Connected || st.ConsecutiveFailures < 3 || st.LastError == "" {
		t.Fatalf("degraded stats = %+v", st)
	}

	// Resume clears the sticky state; with the leader still dead the
	// follower degrades again after another MaxFailures attempts.
	f.Resume()
	if f.Degraded() {
		t.Fatal("Resume did not clear degraded")
	}
	deadline = time.Now().Add(10 * time.Second)
	for !f.Degraded() {
		if time.Now().After(deadline) {
			t.Fatalf("follower never re-degraded after Resume (stats %+v)", f.Stats())
		}
		time.Sleep(2 * time.Millisecond)
	}
}
