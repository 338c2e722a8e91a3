package replica

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"time"

	"hexastore/internal/wal"
)

// WAL shipping: the optional TCP transport for followers that cannot
// see the leader's filesystem. The protocol is deliberately minimal —
// the WAL frame format is already self-delimiting and checksummed, so
// the wire format is the file format:
//
//	client → server: uvarint resume offset
//	server → client: one status byte, then an endless stream of raw
//	                 WAL frames starting at the granted offset
//
// Status shipOK grants the requested offset; shipReset means the log
// was truncated below it (leader checkpoint) and the stream restarts
// from the first record — the follower must reset its offset to
// wal.HeaderSize before consuming. A mid-session truncation closes the
// connection; the follower reconnects and receives shipReset.
//
// When the stream is idle the leader sends a single shipKeepalive byte
// (0x00) every ShipOptions.Keepalive. A WAL frame starts with a uvarint
// payload length, and length zero is rejected as impossible by the
// decoder, so the byte cannot be confused with the start of a frame;
// the follower consumes it as proof of leader liveness and refreshes
// its read deadline. Keepalive bytes are wire-only — they never count
// toward the resume offset.
const (
	shipOK    = 0
	shipReset = 1

	// shipKeepalive is the idle-stream liveness byte. It shares the
	// value 0 with shipOK, but the two never occupy the same protocol
	// position: shipOK is the single status byte at stream start,
	// keepalives appear only afterwards, inside the frame stream.
	shipKeepalive = 0x00

	// shipPoll is how often a serving connection re-checks the log for
	// new frames once it has caught up.
	shipPoll = 100 * time.Millisecond
)

// ShipOptions tune the leader side of WAL shipping (ServeWALWith).
type ShipOptions struct {
	// HandshakeTimeout bounds how long a new connection may take to
	// send its offset handshake before being dropped (default
	// 10s), so a dead or misbehaving client cannot pin a goroutine and
	// file descriptor pre-handshake.
	HandshakeTimeout time.Duration
	// WriteTimeout is the per-write deadline on frames and keepalives
	// (default 10s). A stalled replica that stops reading eventually
	// fills the kernel socket buffer and would block the serving
	// goroutine forever; the expired deadline closes the connection
	// instead, freeing the goroutine and fd — the replica reconnects
	// and resumes from its offset when it recovers.
	WriteTimeout time.Duration
	// Keepalive is how often an idle connection sends a liveness byte
	// so a follower can tell a quiet leader from a dead one. It must
	// stay below the followers' ReadTimeout. Zero means the default
	// (1s); negative disables keepalives.
	Keepalive time.Duration
}

func (o ShipOptions) handshakeTimeout() time.Duration {
	if o.HandshakeTimeout <= 0 {
		return 10 * time.Second
	}
	return o.HandshakeTimeout
}

func (o ShipOptions) writeTimeout() time.Duration {
	if o.WriteTimeout <= 0 {
		return 10 * time.Second
	}
	return o.WriteTimeout
}

func (o ShipOptions) keepalive() time.Duration {
	if o.Keepalive == 0 {
		return time.Second
	}
	return o.Keepalive
}

// ServeWAL accepts follower connections on l and streams the log at
// path with default ShipOptions. It returns when the listener closes. Each connection is served by its
// own goroutine, which exits when the follower disconnects, stalls
// past the write deadline, or its log is truncated.
func ServeWAL(l net.Listener, path string) error {
	return ServeWALWith(l, path, ShipOptions{})
}

// ServeWALWith is ServeWAL with explicit timeouts and keepalive tuning.
func ServeWALWith(l net.Listener, path string, opts ShipOptions) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		go serveFollower(conn, path, opts)
	}
}

func serveFollower(conn net.Conn, path string, opts ShipOptions) {
	defer conn.Close()

	// The handshake is the only read this side ever does; bound it so a
	// silent client cannot hold the connection open indefinitely.
	if err := conn.SetReadDeadline(time.Now().Add(opts.handshakeTimeout())); err != nil {
		return
	}
	br := bufio.NewReader(conn)
	offset, err := binary.ReadUvarint(br)
	if err != nil {
		return
	}
	conn.SetReadDeadline(time.Time{}) //nolint:errcheck // no further reads

	lastSent := time.Now()
	send := func(buf []byte) error {
		if err := conn.SetWriteDeadline(time.Now().Add(opts.writeTimeout())); err != nil {
			return err
		}
		if _, err := conn.Write(buf); err != nil {
			return err
		}
		lastSent = time.Now()
		return nil
	}

	// Grant or reset the requested offset, then stream frames forever.
	off := int64(offset)
	status := byte(shipOK)
	var probe []wal.Record
	newOff, terr := wal.Tail(path, off, func(r wal.Record) error {
		probe = append(probe, r)
		return nil
	})
	if errors.Is(terr, wal.ErrTruncated) {
		status = shipReset
		off = wal.HeaderSize
		probe, newOff = nil, 0
	} else if terr != nil {
		return
	}
	if err := send([]byte{status}); err != nil {
		return
	}
	if status == shipOK && len(probe) > 0 {
		if err := send(encodeFrames(probe)); err != nil {
			return
		}
		off = newOff
	}
	keepalive := opts.keepalive()
	for {
		var recs []wal.Record
		newOff, err := wal.Tail(path, off, func(r wal.Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			// Truncation (or a vanished log): close and let the follower
			// reconnect to get a clean shipReset.
			return
		}
		if len(recs) > 0 {
			if err := send(encodeFrames(recs)); err != nil {
				return
			}
			off = newOff
			continue
		}
		if keepalive > 0 && time.Since(lastSent) >= keepalive {
			if err := send([]byte{shipKeepalive}); err != nil {
				return
			}
		}
		time.Sleep(shipPoll)
	}
}

// encodeFrames re-encodes records into their exact on-disk frames.
// Deterministic encoding means the byte count the follower consumes
// equals the byte range of the leader's file, so resume offsets agree.
func encodeFrames(recs []wal.Record) []byte {
	var buf []byte
	for _, r := range recs {
		buf = wal.EncodeRecord(buf, r)
	}
	return buf
}

// backoffDelay computes the reconnect delay after n consecutive
// failures: min(hi, lo·2ⁿ⁻¹), jittered ±50% so a fleet of replicas
// whose leader just restarted does not reconnect in lockstep.
func backoffDelay(lo, hi time.Duration, n int) time.Duration {
	d := lo
	for i := 1; i < n && d < hi; i++ {
		d *= 2
	}
	if d > hi {
		d = hi
	}
	if d <= 0 {
		return lo
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// runTCP is the TCP follower loop: connect, stream, reconnect with
// exponential backoff. Consecutive connection failures past the
// maxFailures cap flip the follower into the sticky degraded state
// (Stats().Degraded); it then stops dialing until Resume is called, so
// a health check can pull the replica from rotation instead of letting
// it thrash against a dead leader while silently serving stale reads.
func (f *Follower) runTCP() {
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		f.mu.Lock()
		degraded := f.degraded
		f.mu.Unlock()

		var delay time.Duration
		if degraded {
			delay = f.backoffMax // idle until Resume; re-check occasionally
		} else {
			handshook, err := f.streamOnce()
			f.mu.Lock()
			if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				f.lastErr = err
			}
			if handshook {
				// A completed handshake proves the leader reachable; the
				// stream ending afterwards (EOF, truncation, deadline) is
				// routine and retries at the floor delay.
				delay = f.backoffMin
			} else {
				f.consecFails++
				if f.maxFailures > 0 && f.consecFails >= f.maxFailures {
					f.degraded = true
				}
				delay = backoffDelay(f.backoffMin, f.backoffMax, f.consecFails)
			}
			f.mu.Unlock()
		}

		select {
		case <-f.stop:
			return
		case <-time.After(delay):
		}
	}
}

// streamOnce runs one connection lifetime: handshake, then replay
// frames until the connection drops or the follower stops. handshook
// reports whether the leader's status byte arrived — the success
// signal that resets the reconnect backoff.
func (f *Follower) streamOnce() (handshook bool, err error) {
	conn, err := net.DialTimeout("tcp", f.addr, f.dialTimeout)
	if err != nil {
		return false, err
	}
	defer conn.Close()
	// Unblock the reader when Close is called.
	stopDone := make(chan struct{})
	defer close(stopDone)
	go func() {
		select {
		case <-f.stop:
			conn.Close()
		case <-stopDone:
		}
	}()

	f.mu.Lock()
	off := f.offset
	if off < wal.HeaderSize {
		off = wal.HeaderSize
		f.offset = off
	}
	f.mu.Unlock()

	req := binary.AppendUvarint(nil, uint64(off))
	if derr := conn.SetWriteDeadline(time.Now().Add(f.readTimeout)); derr != nil {
		return false, derr
	}
	if _, werr := conn.Write(req); werr != nil {
		return false, werr
	}
	br := bufio.NewReader(conn)
	if derr := conn.SetReadDeadline(time.Now().Add(f.readTimeout)); derr != nil {
		return false, derr
	}
	status, err := br.ReadByte()
	if err != nil {
		return false, err
	}
	switch status {
	case shipOK:
	case shipReset:
		f.mu.Lock()
		f.offset = wal.HeaderSize
		f.resets++
		f.mu.Unlock()
	default:
		return false, fmt.Errorf("replica: follower: unknown ship status %d", status)
	}

	f.mu.Lock()
	f.consecFails = 0
	f.connected = true
	f.lastContact = time.Now()
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.connected = false
		f.mu.Unlock()
	}()

	// Frames buffer until their batch's commit marker; the resume offset
	// advances only at marker boundaries. A stream that dies mid-batch
	// drops the unfinished tail — the reconnect re-requests the batch
	// from its start rather than applying records the leader never
	// committed.
	var pending []wal.Record
	var pendingBytes int64
	for {
		// Refresh the read deadline per frame: the leader keepalives
		// every ~1s when idle, so a full readTimeout of silence means a
		// stalled leader or dead network, not a quiet one — tear down
		// and reconnect with backoff rather than block forever.
		if derr := conn.SetReadDeadline(time.Now().Add(f.readTimeout)); derr != nil {
			return true, derr
		}
		b, rerr := br.ReadByte()
		if rerr != nil {
			return true, rerr
		}
		if b == shipKeepalive {
			f.touchContact()
			continue
		}
		br.UnreadByte() //nolint:errcheck // always succeeds right after ReadByte
		rec, frameLen, rerr := wal.DecodeRecord(br)
		if rerr != nil {
			return true, rerr
		}
		f.touchContact()
		pendingBytes += frameLen
		if rec.Op != wal.OpCommit {
			pending = append(pending, rec)
			continue
		}
		// Commit marker: the batch is complete — apply it and advance
		// the offset past the marker so reconnects resume at a boundary.
		f.mu.Lock()
		_, aerr := f.applyLocked(pending)
		if aerr == nil {
			f.offset += pendingBytes
		}
		f.mu.Unlock()
		pending, pendingBytes = pending[:0], 0
		if aerr != nil {
			// Offset not advanced: the reconnect re-requests this batch,
			// and re-applying a prefix is safe (last op wins).
			return true, aerr
		}
	}
}
