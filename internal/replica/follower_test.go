package replica_test

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"testing"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/replica"
)

// overlayPair builds a WAL-backed leader overlay and a WAL-less replica
// overlay, each over its own dictionary.
func overlayPair(t *testing.T, walPath string) (leader, repl *delta.Overlay) {
	t.Helper()
	// SnapshotPath so Checkpoint has a durable destination and actually
	// truncates the WAL (otherwise it keeps the log whole).
	leader, err := delta.Open(graph.Memory(core.New()),
		delta.Options{WALPath: walPath, SnapshotPath: walPath + ".snapshot", CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { leader.Close() })
	repl, err = delta.New(graph.Memory(core.New()),
		delta.Options{CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { repl.Close() })
	return leader, repl
}

// snapshotBytes compacts the overlay and snapshots its main store.
func snapshotBytes(t *testing.T, ov *delta.Overlay) []byte {
	t.Helper()
	if err := ov.Compact(); err != nil {
		t.Fatal(err)
	}
	st, ok := graph.Unwrap(ov.Main()).(*core.Store)
	if !ok {
		t.Fatalf("main is %T, not a core store", ov.Main())
	}
	var buf bytes.Buffer
	if err := st.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// waitSameSnapshot waits for a background follower to bring the replica
// to the (quiescent) leader's content: the store snapshots byte for byte.
// Equal Len is not convergence — a batch that adds as many triples as it
// deletes leaves Len where the batch before it did, so a wait on Len can
// return with the replica one batch behind.
func waitSameSnapshot(t *testing.T, repl, leader *delta.Overlay, f *replica.Follower) {
	t.Helper()
	want := snapshotBytes(t, leader)
	deadline := time.Now().Add(10 * time.Second)
	for {
		got := snapshotBytes(t, repl)
		if bytes.Equal(got, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica snapshot differs from the leader's (%d vs %d bytes, %d of %d triples, stats %+v)",
				len(got), len(want), repl.Len(), leader.Len(), f.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func writerBatches(t *testing.T, g graph.Graph, gens int) {
	t.Helper()
	for gen := 0; gen < gens; gen++ {
		var ops []graph.TripleOp
		for i := 0; i < 10; i++ {
			ops = append(ops, graph.TripleOp{T: rdf.T(
				rdf.NewIRI(fmt.Sprintf("http://ex/s%d_%d", gen, i)),
				rdf.NewIRI(fmt.Sprintf("http://ex/p%d", i%3)),
				rdf.NewIRI(fmt.Sprintf("http://ex/o%d", i)))})
		}
		// Churn: delete half of the previous generation, so replay has
		// to reproduce removals, not just inserts.
		if gen > 0 {
			for i := 0; i < 5; i++ {
				ops = append(ops, graph.TripleOp{Del: true, T: rdf.T(
					rdf.NewIRI(fmt.Sprintf("http://ex/s%d_%d", gen-1, i)),
					rdf.NewIRI(fmt.Sprintf("http://ex/p%d", i%3)),
					rdf.NewIRI(fmt.Sprintf("http://ex/o%d", i)))})
			}
		}
		if _, _, err := graph.ApplyTriples(g, ops); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFollowerCatchUp is the replay catch-up satellite: a writer
// appends batches, the follower tails the WAL, and the replica must
// converge to a byte-identical store snapshot. Byte equality holds
// because WAL records carry terms in encode order — replaying them
// re-encodes the same term sequence, so ids, triples, and the
// deterministic snapshot encoding all coincide.
func TestFollowerCatchUp(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "leader.wal")
	leader, repl := overlayPair(t, walPath)

	f := replica.NewFollower(repl, walPath, replica.FollowerOptions{BatchSize: 16})
	defer f.Close()

	writerBatches(t, leader, 5)
	n, err := f.CatchUp()
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("CatchUp applied nothing")
	}
	if repl.Len() != leader.Len() {
		t.Fatalf("replica Len = %d, leader %d", repl.Len(), leader.Len())
	}

	// More batches after the first catch-up: the follower resumes from
	// its offset, not from scratch.
	writerBatches(t, leader, 3)
	if _, err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if got, want := snapshotBytes(t, repl), snapshotBytes(t, leader); !bytes.Equal(got, want) {
		t.Fatalf("replica snapshot differs from leader (%d vs %d bytes)", len(got), len(want))
	}
	st := f.Stats()
	if st.Applied == 0 || st.Offset <= 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestFollowerTruncation: a leader checkpoint truncates the WAL under a
// caught-up follower, which must detect the reset and keep converging.
func TestFollowerTruncation(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "leader.wal")
	leader, repl := overlayPair(t, walPath)
	f := replica.NewFollower(repl, walPath, replica.FollowerOptions{})

	writerBatches(t, leader, 3)
	if _, err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	// Checkpoint: leader compacts and truncates its log.
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writerBatches(t, leader, 2)
	if _, err := f.CatchUp(); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Resets == 0 {
		t.Fatal("follower did not observe the truncation")
	}
	if got, want := snapshotBytes(t, repl), snapshotBytes(t, leader); !bytes.Equal(got, want) {
		t.Fatal("replica diverged across a checkpoint")
	}
}

// TestFollowerPolling runs the background loop instead of manual
// catch-ups.
func TestFollowerPolling(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "leader.wal")
	leader, repl := overlayPair(t, walPath)
	f := replica.NewFollower(repl, walPath, replica.FollowerOptions{Poll: 5 * time.Millisecond})
	f.Start()
	defer f.Close()

	writerBatches(t, leader, 4)
	waitSameSnapshot(t, repl, leader, f)
}

// TestFollowerTCP ships the WAL over a socket: leader serves with
// ServeWAL, the follower streams, converges, survives reconnect after a
// leader checkpoint.
func TestFollowerTCP(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "leader.wal")
	leader, repl := overlayPair(t, walPath)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go replica.ServeWAL(l, walPath) //nolint:errcheck // ends with the listener

	f := replica.NewTCPFollower(repl, l.Addr().String(), replica.FollowerOptions{Poll: 5 * time.Millisecond})
	f.Start()
	defer f.Close()

	writerBatches(t, leader, 4)
	waitSameSnapshot(t, repl, leader, f)

	// Checkpoint truncates the log; the serving connection drops, the
	// follower reconnects with shipReset and keeps following.
	if err := leader.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	writerBatches(t, leader, 2)
	waitSameSnapshot(t, repl, leader, f)
}
