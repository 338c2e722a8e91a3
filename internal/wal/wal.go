// Package wal implements the write-ahead log of the live-update
// subsystem: an append-only, checksummed record log of triple Add/Remove
// operations, shared by the memory and disk backends.
//
// Records carry RDF term keys (rdf.Term.Key) rather than dictionary ids,
// so replay is self-contained: a crash that loses un-flushed dictionary
// state loses nothing, because the log re-encodes its terms on replay.
//
// Durability is group-committed: concurrent Append calls coalesce into a
// single fsync — every appender waits until a sync covering its batch has
// completed, but one syscall can cover many batches. Open scans the
// existing log, streams every intact record to the caller for replay, and
// truncates a torn or corrupted tail (the standard crash-recovery
// contract: a record is either wholly durable or discarded).
//
// On-disk format:
//
//	header:  8 bytes, "HEXWAL01"
//	record:  uvarint payload length | payload | 4-byte little-endian CRC-32
//	payload: 1 op byte | 3 × (uvarint key length | term key bytes)
//
// Every Append batch is terminated by a commit-marker record (OpCommit,
// empty keys). Replay and Tail deliver records only up to the last
// marker: per-record CRCs make a torn tail detectable frame by frame,
// but a torn multi-record batch write can leave an *intact prefix* of
// the batch on disk — without the marker, recovery would surface half a
// batch, silently breaking Append's atomicity contract (found by the
// crash-consistency torture harness crashing on torn group-commit
// writes). Uncommitted intact frames are truncated by Open exactly like
// corrupt ones.
package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"hexastore/internal/iofault"
)

const (
	magic = "HEXWAL01"

	// headerSize is the byte offset of the first record.
	headerSize = int64(len(magic))

	// maxPayload bounds a single record, so a corrupted length prefix
	// cannot drive a multi-gigabyte allocation during replay.
	maxPayload = 1 << 26
)

// Op is the operation type of a record.
type Op uint8

// The record types. OpCommit is the batch terminator written by Append
// and consumed by replay/Tail; it never reaches fn callbacks from Open,
// but Tail delivers it (so byte-offset accounting over the shipping
// protocol stays aligned with the leader's file) and followers skip it.
const (
	OpAdd    Op = 1
	OpRemove Op = 2
	OpCommit Op = 3
)

// Record is one logged triple operation. S, P and O are RDF term keys
// (rdf.Term.Key / rdf.TermFromKey), not dictionary ids.
type Record struct {
	Op      Op
	S, P, O string
}

// Log is an open write-ahead log. It is safe for concurrent use; Append
// is durable on return (group-committed fsync).
type Log struct {
	mu   sync.Mutex
	cond *sync.Cond
	f    iofault.File
	path string
	size int64 // bytes of durable-format log (header + intact records)

	// Group-commit state: seq numbers monotonically count append
	// batches; synced is the highest batch covered by a completed fsync.
	seq     int64
	synced  int64
	syncing bool

	// failed is sticky (fsyncgate semantics): once a write or fsync has
	// errored, the kernel may have silently dropped the dirty pages the
	// failed fsync covered, so "retrying" the next group commit could
	// report durability for records that never reached disk. The log
	// therefore refuses every further Append/Sync/Truncate and keeps
	// surfacing the ORIGINAL error — including at Close — until the
	// caller discards it and recovers by reopening (replay + torn-tail
	// truncation re-derives what is actually durable).
	failed error
}

// Err returns the sticky failure that has poisoned the log, or nil. A
// non-nil Err means no further appends will be accepted; the serving
// layer surfaces this as WAL-degraded on its health endpoints.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Open opens (creating if absent) the log at path and replays every
// intact record to fn in append order. A torn or corrupted tail — a
// truncated frame, an impossible length, a checksum mismatch, or an
// unknown op — ends replay and is truncated away, so the next Append
// starts at the last durable record. A non-nil error from fn aborts Open.
func Open(path string, fn func(Record) error) (*Log, error) {
	return OpenFS(nil, path, fn)
}

// OpenFS is Open with the file I/O routed through fsys (nil = the real
// filesystem) — the fault-injection seam used by the crash-consistency
// torture harness.
func OpenFS(fsys iofault.FS, path string, fn func(Record) error) (*Log, error) {
	f, err := iofault.Or(fsys).OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	l := &Log{f: f, path: path}
	l.cond = sync.NewCond(&l.mu)

	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat %s: %w", path, err)
	}
	if fi.Size() == 0 {
		if _, err := f.WriteAt([]byte(magic), 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: write header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sync header: %w", err)
		}
		l.size = headerSize
		return l, nil
	}

	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil || string(hdr) != magic {
		f.Close()
		return nil, fmt.Errorf("wal: %s: bad header (not a WAL?)", path)
	}

	// Replay: records buffer until their batch's commit marker, and only
	// then stream to fn — a batch whose marker never made it to disk is
	// discarded whole, even when a prefix of its frames is intact.
	// offset tracks the end of the last committed batch; everything
	// beyond it (torn frame, corrupt frame, or intact-but-uncommitted
	// frames) is truncated away.
	br := bufio.NewReader(io.NewSectionReader(f, headerSize, fi.Size()-headerSize))
	offset := headerSize
	scanned := headerSize
	var pending []Record
	for {
		rec, frameLen, rerr := readRecord(br)
		if rerr != nil {
			break // clean EOF or corrupt tail; offset marks the last committed byte
		}
		scanned += frameLen
		if rec.Op != OpCommit {
			pending = append(pending, rec)
			continue
		}
		for _, p := range pending {
			if err := fn(p); err != nil {
				f.Close()
				return nil, err
			}
		}
		pending = pending[:0]
		offset = scanned
	}
	l.size = offset
	if offset < fi.Size() {
		if err := f.Truncate(offset); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: sync after truncate: %w", err)
		}
	}
	return l, nil
}

// readRecord decodes one frame, returning its total on-disk length.
func readRecord(br *bufio.Reader) (Record, int64, error) {
	var rec Record
	plen, n, err := readUvarint(br)
	if err != nil {
		return rec, 0, err
	}
	if plen == 0 || plen > maxPayload {
		return rec, 0, fmt.Errorf("wal: impossible payload length %d", plen)
	}
	frame := int64(n) + int64(plen) + 4
	buf := make([]byte, plen+4)
	if _, err := io.ReadFull(br, buf); err != nil {
		return rec, 0, err
	}
	payload, sum := buf[:plen], binary.LittleEndian.Uint32(buf[plen:])
	if crc32.ChecksumIEEE(payload) != sum {
		return rec, 0, fmt.Errorf("wal: record checksum mismatch")
	}

	op := Op(payload[0])
	if op != OpAdd && op != OpRemove && op != OpCommit {
		return rec, 0, fmt.Errorf("wal: unknown op %d", op)
	}
	rec.Op = op
	rest := payload[1:]
	for i := 0; i < 3; i++ {
		klen, kn := binary.Uvarint(rest)
		if kn <= 0 || (kn > 1 && rest[kn-1] == 0) || klen > uint64(len(rest)-kn) {
			return rec, 0, fmt.Errorf("wal: malformed term key")
		}
		key := string(rest[kn : kn+int(klen)])
		rest = rest[kn+int(klen):]
		switch i {
		case 0:
			rec.S = key
		case 1:
			rec.P = key
		default:
			rec.O = key
		}
	}
	if len(rest) != 0 {
		return rec, 0, fmt.Errorf("wal: trailing bytes in record payload")
	}
	return rec, frame, nil
}

// readUvarint reads a uvarint and reports how many bytes it consumed.
// Only the minimal encoding is accepted — the one appendRecord writes —
// so a decoded frame's length always equals its re-encoded length, which
// is what keeps a follower's resume offset in step with the leader's
// file. The same check rejects key lengths in readRecord.
func readUvarint(br *bufio.Reader) (uint64, int, error) {
	var v uint64
	var shift, n int
	for {
		b, err := br.ReadByte()
		if err != nil {
			return 0, n, err
		}
		n++
		if n == binary.MaxVarintLen64 && b > 1 {
			return 0, n, fmt.Errorf("wal: uvarint overflow")
		}
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			if b == 0 && n > 1 {
				return 0, n, fmt.Errorf("wal: non-minimal uvarint")
			}
			return v, n, nil
		}
		shift += 7
	}
}

// appendRecord encodes one frame into buf.
func appendRecord(buf []byte, rec Record) []byte {
	var payload []byte
	payload = append(payload, byte(rec.Op))
	for _, key := range []string{rec.S, rec.P, rec.O} {
		payload = binary.AppendUvarint(payload, uint64(len(key)))
		payload = append(payload, key...)
	}
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return buf
}

// Append writes recs as one atomic batch and returns once they are
// durable. Concurrent appenders group-commit: the batch is written under
// the log mutex, then the caller waits until some fsync covers it —
// either by issuing the sync itself or by riding one already in flight
// that will cover its batch. A write or sync failure poisons the log;
// every subsequent Append returns the same error.
func (l *Log) Append(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	for _, r := range recs {
		buf = appendRecord(buf, r)
	}
	// The commit marker rides in the same write: either the whole batch
	// including its marker persists, or replay discards the batch.
	buf = appendRecord(buf, Record{Op: OpCommit})

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if _, err := l.f.WriteAt(buf, l.size); err != nil {
		// size is not advanced: the partial frame will be overwritten by
		// the next append, and its checksum cannot verify on replay.
		l.failed = fmt.Errorf("wal: append: %w", err)
		l.cond.Broadcast()
		return l.failed
	}
	l.size += int64(len(buf))
	l.seq++
	mySeq := l.seq
	walAppendedBytes.Add(int64(len(buf)))

	for l.synced < mySeq {
		if l.failed != nil {
			return l.failed
		}
		if !l.syncing {
			// Become the group leader: sync everything appended so far.
			// The handle is captured under the mutex — Close and
			// Truncate wait for syncing to drop, so f stays valid for
			// the unlocked fsync.
			l.syncing = true
			target := l.seq
			covered := target - l.synced
			f := l.f
			l.mu.Unlock()
			t0 := time.Now()
			err := f.Sync()
			walFsyncSeconds.Observe(time.Since(t0).Seconds())
			l.mu.Lock()
			l.syncing = false
			if err != nil {
				l.failed = fmt.Errorf("wal: fsync: %w", err)
			} else if target > l.synced {
				l.synced = target
				walCommitBatch.Observe(float64(covered))
			}
			l.cond.Broadcast()
		} else {
			l.cond.Wait()
		}
	}
	return l.failed
}

// Size returns the current log size in bytes (header included).
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Path returns the file system path of the log.
func (l *Log) Path() string { return l.path }

// Truncate discards every record — the checkpoint operation, called once
// the logged state is durable elsewhere (snapshot written, disk store
// flushed). The empty log is fsynced before Truncate returns. An
// in-flight group commit is waited out first, so a concurrent Append
// can never have its records truncated away while its leader is still
// reporting them durable.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.failed != nil {
		return l.failed
	}
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if err := l.f.Truncate(headerSize); err != nil {
		l.failed = fmt.Errorf("wal: truncate: %w", err)
		return l.failed
	}
	if err := l.f.Sync(); err != nil {
		l.failed = fmt.Errorf("wal: sync after truncate: %w", err)
		return l.failed
	}
	l.size = headerSize
	return nil
}

// Sync forces an fsync of everything appended so far. When every batch
// is already covered by a completed group commit (the common case —
// Append only returns after one) the syscall is skipped, so callers can
// Sync defensively without doubling the fsync cost of the write path.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.f == nil {
		return fmt.Errorf("wal: log is closed")
	}
	if l.synced == l.seq {
		return nil
	}
	t0 := time.Now()
	err := l.f.Sync()
	walFsyncSeconds.Observe(time.Since(t0).Seconds())
	if err != nil {
		l.failed = fmt.Errorf("wal: fsync: %w", err)
		return l.failed
	}
	l.synced = l.seq
	return nil
}

// Close syncs and closes the log file, after waiting out any in-flight
// group commit so the leader never fsyncs a closed handle.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.syncing {
		l.cond.Wait()
	}
	if l.f == nil {
		return nil
	}
	f := l.f
	l.f = nil
	if l.failed != nil {
		f.Close()
		return l.failed
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: fsync on close: %w", err)
	}
	return f.Close()
}
