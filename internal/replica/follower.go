// Package replica is WAL replication: a leader serves its write-ahead
// log (ServeWAL, or the file itself), and a Follower tails it into a
// read-only replica graph.
package replica

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/wal"
)

// Follower tails a leader's write-ahead log and replays it into its
// own graph — the read-replica primitive. The leader's WAL records
// carry RDF term keys, not dictionary ids, so the follower re-encodes
// terms into its own dictionary in log order; because both sides
// encode the same term sequence in the same order, a caught-up
// follower's store is id-for-id identical to the leader's (its
// snapshot bytes match, which is how the tests assert convergence).
//
// File mode tails the log by path (same machine or shared filesystem);
// TCP mode (NewTCPFollower) streams frames from a leader running
// ServeWAL. If the leader checkpoints, the log is truncated: a
// caught-up follower lost nothing (every truncated record was already
// replayed here) and resumes from the new log; a follower that was
// behind has lost the truncated window and reports it via
// Stats().Resets — re-seed such a replica from a leader snapshot.
type Follower struct {
	dst     graph.Graph
	path    string // file mode
	addr    string // TCP mode leader address ("" = file mode)
	poll    time.Duration
	batchSz int

	backoffMin  time.Duration
	backoffMax  time.Duration
	dialTimeout time.Duration
	readTimeout time.Duration
	maxFailures int

	mu          sync.Mutex
	offset      int64 // leader-log offset of the first unconsumed byte
	applied     int64 // records replayed
	resets      int64 // truncation events observed
	consecFails int   // consecutive failed TCP attempts since the last good handshake
	degraded    bool  // sticky: the retry cap was hit; reconnects stopped
	connected   bool  // a TCP stream is currently established
	lastContact time.Time
	lastErr     error

	stop chan struct{}
	wg   sync.WaitGroup
}

// FollowerOptions tune a Follower.
type FollowerOptions struct {
	// Poll is the tail poll interval (default 100ms).
	Poll time.Duration
	// BatchSize caps the ops per replay batch (default 4096) so one
	// giant catch-up does not turn into one giant overlay commit.
	BatchSize int

	// BackoffMin and BackoffMax bound the TCP reconnect backoff: the
	// delay after the n-th consecutive failure is
	// min(BackoffMax, BackoffMin·2ⁿ⁻¹), jittered ±50% so a fleet of
	// replicas does not reconnect in lockstep. Defaults 100ms and 15s.
	BackoffMin time.Duration
	BackoffMax time.Duration

	// MaxFailures caps consecutive failed TCP connection attempts:
	// reaching it puts the follower into the sticky degraded state — no
	// further reconnects, Stats().Degraded set — until Resume is called.
	// A replica that cannot reach its leader is serving unboundedly
	// stale reads; going visibly degraded lets the health endpoint pull
	// it from rotation instead of silently thrashing. 0 means the
	// default (10); negative retries forever.
	MaxFailures int

	// DialTimeout bounds each TCP connection attempt (default 5s).
	DialTimeout time.Duration

	// ReadTimeout is the per-read deadline on an established stream.
	// The leader sends a keepalive byte when idle, so an expiry means
	// the leader is stalled or the network is dead — the follower
	// reconnects (with backoff) rather than blocking forever. It must
	// exceed the leader's keepalive interval (ShipOptions.Keepalive);
	// the default is 10s against a 1s keepalive.
	ReadTimeout time.Duration
}

func (o FollowerOptions) poll() time.Duration {
	if o.Poll <= 0 {
		return 100 * time.Millisecond
	}
	return o.Poll
}

func (o FollowerOptions) batch() int {
	if o.BatchSize <= 0 {
		return 4096
	}
	return o.BatchSize
}

func (o FollowerOptions) backoffMin() time.Duration {
	if o.BackoffMin <= 0 {
		return 100 * time.Millisecond
	}
	return o.BackoffMin
}

func (o FollowerOptions) backoffMax() time.Duration {
	if o.BackoffMax <= 0 {
		return 15 * time.Second
	}
	return o.BackoffMax
}

func (o FollowerOptions) maxFailures() int {
	if o.MaxFailures == 0 {
		return 10
	}
	return o.MaxFailures
}

func (o FollowerOptions) dialTimeout() time.Duration {
	if o.DialTimeout <= 0 {
		return 5 * time.Second
	}
	return o.DialTimeout
}

func (o FollowerOptions) readTimeout() time.Duration {
	if o.ReadTimeout <= 0 {
		return 10 * time.Second
	}
	return o.ReadTimeout
}

// NewFollower tails the write-ahead log at walPath into dst.
func NewFollower(dst graph.Graph, walPath string, opts FollowerOptions) *Follower {
	return &Follower{
		dst:         dst,
		path:        walPath,
		poll:        opts.poll(),
		batchSz:     opts.batch(),
		backoffMin:  opts.backoffMin(),
		backoffMax:  opts.backoffMax(),
		dialTimeout: opts.dialTimeout(),
		readTimeout: opts.readTimeout(),
		maxFailures: opts.maxFailures(),
		stop:        make(chan struct{}),
	}
}

// NewTCPFollower streams the log of a leader serving ServeWAL at addr
// into dst.
func NewTCPFollower(dst graph.Graph, addr string, opts FollowerOptions) *Follower {
	f := NewFollower(dst, "", opts)
	f.addr = addr
	return f
}

// FollowerStats is a snapshot of replication progress and connectivity.
type FollowerStats struct {
	// Offset is the leader-log offset of the next byte to consume.
	Offset int64 `json:"offset"`
	// Applied is the number of records replayed so far.
	Applied int64 `json:"applied"`
	// Resets counts leader checkpoints observed (log truncations).
	Resets int64 `json:"resets"`
	// Connected reports an established TCP stream (false between
	// reconnect attempts; always false in file mode).
	Connected bool `json:"connected"`
	// Degraded reports the sticky state entered when MaxFailures
	// consecutive connection attempts failed; the follower has stopped
	// reconnecting and a replica serving from it is unboundedly stale.
	Degraded bool `json:"degraded"`
	// ConsecutiveFailures counts TCP attempts since the last successful
	// handshake.
	ConsecutiveFailures int `json:"consecutiveFailures"`
	// LagSeconds is the time since the follower last heard from the
	// leader (a frame or a keepalive) — the observable replica-lag
	// proxy: the replica can be behind by at most what the leader wrote
	// in this window. Negative when there has been no contact yet.
	LagSeconds float64 `json:"lagSeconds"`
	// LastError is the most recent replay or connection error, if any.
	LastError string `json:"lastError,omitempty"`
}

// Stats returns replication progress and connectivity counters.
func (f *Follower) Stats() FollowerStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := FollowerStats{
		Offset:              f.offset,
		Applied:             f.applied,
		Resets:              f.resets,
		Connected:           f.connected,
		Degraded:            f.degraded,
		ConsecutiveFailures: f.consecFails,
		LagSeconds:          -1,
	}
	if !f.lastContact.IsZero() {
		st.LagSeconds = time.Since(f.lastContact).Seconds()
	}
	if f.lastErr != nil {
		st.LastError = f.lastErr.Error()
	}
	return st
}

// Degraded reports the sticky degraded state (see
// FollowerOptions.MaxFailures).
func (f *Follower) Degraded() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.degraded
}

// Resume clears the sticky degraded state, letting the running loop
// attempt to reconnect again (with the backoff restarting from its
// minimum). An operator calls this after repairing the leader.
func (f *Follower) Resume() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.degraded = false
	f.consecFails = 0
}

// touchContact records that the leader was heard from just now. Called
// on handshake completion, on every received frame batch, and on
// keepalives.
func (f *Follower) touchContact() {
	f.mu.Lock()
	f.lastContact = time.Now()
	f.mu.Unlock()
}

// CatchUp synchronously replays every record currently in the log
// (file mode only) and returns the number applied. Safe to call
// concurrently with a running poll loop; replay is serialized.
func (f *Follower) CatchUp() (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.catchUpLocked()
}

func (f *Follower) catchUpLocked() (int, error) {
	if f.addr != "" {
		return 0, errors.New("replica: CatchUp is file-mode only; TCP followers stream via Start")
	}
	total := 0
	for {
		var recs []wal.Record
		newOff, err := wal.Tail(f.path, f.offset, func(r wal.Record) error {
			if r.Op == wal.OpCommit {
				return nil // marker: its bytes are in newOff, no triple to apply
			}
			recs = append(recs, r)
			return nil
		})
		switch {
		case errors.Is(err, wal.ErrTruncated):
			f.offset = newOff // wal.HeaderSize
			f.resets++
			continue // the truncated log may already hold new records
		case errors.Is(err, os.ErrNotExist):
			return total, nil // leader has not created the log yet
		case err != nil:
			f.lastErr = err
			return total, err
		}
		if len(recs) == 0 {
			// A successful read of the log — even an empty one — is
			// leader contact in file mode: the log is reachable and we
			// are provably caught up to its current end.
			f.lastContact = time.Now()
			f.offset = newOff
			return total, nil
		}
		n, aerr := f.applyLocked(recs)
		total += n
		if aerr != nil {
			// Offset not advanced: the next CatchUp re-reads from the
			// same point. Replaying an already-applied prefix is safe —
			// each triple's final state is decided by its last op, so a
			// doubled prefix converges to the same store.
			f.lastErr = aerr
			return total, aerr
		}
		f.offset = newOff
	}
}

// applyLocked replays records in order, in batches of at most batchSz.
func (f *Follower) applyLocked(recs []wal.Record) (int, error) {
	applied := 0
	for len(recs) > 0 {
		chunk := recs
		if len(chunk) > f.batchSz {
			chunk = chunk[:f.batchSz]
		}
		recs = recs[len(chunk):]
		ops := make([]graph.TripleOp, 0, len(chunk))
		for _, r := range chunk {
			op, err := recordOp(r)
			if err != nil {
				return applied, err
			}
			ops = append(ops, op)
		}
		if _, _, err := graph.ApplyTriples(f.dst, ops); err != nil {
			return applied, err
		}
		applied += len(ops)
	}
	f.applied += int64(applied)
	return applied, nil
}

// recordOp decodes a WAL record into a triple operation.
func recordOp(r wal.Record) (graph.TripleOp, error) {
	s, err := rdf.TermFromKey(r.S)
	if err != nil {
		return graph.TripleOp{}, fmt.Errorf("replica: follower: %w", err)
	}
	p, err := rdf.TermFromKey(r.P)
	if err != nil {
		return graph.TripleOp{}, fmt.Errorf("replica: follower: %w", err)
	}
	o, err := rdf.TermFromKey(r.O)
	if err != nil {
		return graph.TripleOp{}, fmt.Errorf("replica: follower: %w", err)
	}
	return graph.TripleOp{
		Del: r.Op == wal.OpRemove,
		T:   rdf.Triple{Subject: s, Predicate: p, Object: o},
	}, nil
}

// Start launches the background replication loop. File mode polls the
// log; TCP mode maintains a streaming connection (reconnecting with
// backoff). Stop with Close.
func (f *Follower) Start() {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		if f.addr != "" {
			f.runTCP()
			return
		}
		ticker := time.NewTicker(f.poll)
		defer ticker.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-ticker.C:
				f.CatchUp() //nolint:errcheck // recorded in lastErr, retried next tick
			}
		}
	}()
}

// Close stops the replication loop and returns the last replay error.
func (f *Follower) Close() error {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}
