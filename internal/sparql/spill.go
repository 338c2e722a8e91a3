package sparql

// Spill-to-disk execution for budgeted queries. When a query carries a
// memory budget (govern.Meter) and a join step's output for the chunk at
// hand would cross it, the step restarts in streaming mode: input rows
// are processed in order and the output is accumulated through a
// tableSink that flushes fixed-size pieces to a temp spill file instead
// of materializing the chunk's whole table. Later steps, FILTERs and
// emission then stream the spilled table piece by piece — each piece is
// a small batchTable, so the step kernels (merge-intersect filters,
// sorted-list expansions, per-row probes) run unchanged per piece and
// the result is bit-identical to the in-memory evaluation: row order is
// preserved end to end, and a piece of a sorted column is still sorted,
// which keeps the galloping merge licensed. Budget state is per
// executor, so lanes account — and spill — their own chunks against the
// query's one meter; a seed that spilled is read back a piece at a time
// and chunked from there (batch.go).
//
// Spill files go through iofault.FS, so the fault-injection harness
// covers this path: a torn write or ENOSPC surfaces as an error that
// fails the query cleanly (pieces additionally carry a CRC32 that read
// paths verify). Files are created lazily in SpillDir on the first
// flush and removed when the owning table is replaced or dropped.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync/atomic"

	"hexastore/internal/core"
	"hexastore/internal/govern"
	"hexastore/internal/iofault"
	"hexastore/internal/obs"
)

// spillBytesTotal counts every byte written to query spill files across
// the process, for the /metrics endpoint (per-query spill accounting
// lives in the govern.Meter; this is the fleet-wide view).
var spillBytesTotal = obs.Default.Counter(
	"hex_sparql_spill_bytes_total", "Bytes written to query spill files.")

// errSpillNeeded is the internal signal that an in-memory expansion
// crossed the soft budget and must restart in streaming mode. It never
// escapes the package.
var errSpillNeeded = fmt.Errorf("sparql: internal: spill needed")

// budgetCheckCells is how many appended binding-table cells may
// accumulate between accounting checks during an in-memory expansion;
// it bounds the overshoot past the soft budget to 8 KiB per lane.
const budgetCheckCells = 1024

// spillSeq disambiguates spill file names within a process.
var spillSeq atomic.Int64

// spillChunk locates one encoded chunk inside a spill file.
type spillChunk struct {
	off  int64
	size int
	rows int
}

// spillTable is a binding table whose rows live in a spill file as a
// sequence of CRC-protected, varint-encoded chunks (column-major per
// chunk). The schema (vars, sorted flags) stays in memory; chunk
// boundaries preserve row order.
type spillTable struct {
	vars   []string
	sorted []bool
	fs     iofault.FS
	f      iofault.File
	path   string
	chunks []spillChunk
	rows   int
	off    int64
	enc    []byte // encode scratch
}

// newSpillTable creates the backing temp file for one spilled table.
func newSpillTable(fs iofault.FS, dir string, vars []string, sorted []bool) (*spillTable, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	path := filepath.Join(dir, fmt.Sprintf("hexspill-%d-%d.tmp", os.Getpid(), spillSeq.Add(1)))
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return nil, fmt.Errorf("sparql: create spill file: %w", err)
	}
	return &spillTable{
		vars:   append([]string(nil), vars...),
		sorted: append([]bool(nil), sorted...),
		fs:     fs,
		f:      f,
		path:   path,
	}, nil
}

// appendChunk encodes and appends one chunk of n rows and returns the
// bytes written. Layout: u32 row count, then each column's n values as
// uvarints, then a u32 CRC32 of everything before it — a torn tail
// write is caught either by the injector's returned error or by the
// CRC on read-back.
func (sp *spillTable) appendChunk(cols [][]core.ID, n int) (int, error) {
	buf := sp.enc[:0]
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	for _, col := range cols {
		for _, v := range col[:n] {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	sp.enc = buf
	if _, err := sp.f.Write(buf); err != nil {
		return 0, fmt.Errorf("sparql: spill write: %w", err)
	}
	sp.chunks = append(sp.chunks, spillChunk{off: sp.off, size: len(buf), rows: n})
	sp.off += int64(len(buf))
	sp.rows += n
	return len(buf), nil
}

// readChunk decodes chunk k into cols (reusing their capacity) and
// returns the scratch buffer, the filled columns and the row count.
func (sp *spillTable) readChunk(k int, buf []byte, cols [][]core.ID) ([]byte, [][]core.ID, int, error) {
	ch := sp.chunks[k]
	if cap(buf) < ch.size {
		buf = make([]byte, ch.size)
	}
	buf = buf[:ch.size]
	if _, err := sp.f.ReadAt(buf, ch.off); err != nil {
		return buf, cols, 0, fmt.Errorf("sparql: spill read: %w", err)
	}
	payload := buf[:len(buf)-4]
	if got := binary.LittleEndian.Uint32(buf[len(buf)-4:]); got != crc32.ChecksumIEEE(payload) {
		return buf, cols, 0, fmt.Errorf("sparql: spill chunk %d of %s corrupt (crc mismatch)", k, sp.path)
	}
	if rows := int(binary.LittleEndian.Uint32(payload)); rows != ch.rows {
		return buf, cols, 0, fmt.Errorf("sparql: spill chunk %d of %s corrupt (row count)", k, sp.path)
	}
	p := payload[4:]
	for c := 0; c < len(sp.vars); c++ {
		col := cols[c][:0]
		for r := 0; r < ch.rows; r++ {
			v, n := binary.Uvarint(p)
			if n <= 0 {
				return buf, cols, 0, fmt.Errorf("sparql: spill chunk %d of %s corrupt (truncated varint)", k, sp.path)
			}
			p = p[n:]
			col = append(col, core.ID(v))
		}
		cols[c] = col
	}
	return buf, cols, ch.rows, nil
}

// drop closes and removes the spill file (best-effort: the file lives
// in a temp directory).
func (sp *spillTable) drop() {
	if sp == nil || sp.f == nil {
		return
	}
	sp.f.Close()          //nolint:errcheck // read-only by now
	sp.fs.Remove(sp.path) //nolint:errcheck // best-effort temp cleanup
	sp.f = nil
}

// tableSink accumulates a step's output rows: in memory while small,
// flushing chunks of flushBytes to a spill table once the buffered
// portion crosses the threshold. finish installs the result as the
// executor's current table — back in memory when it never flushed.
type tableSink struct {
	bx         *batchExec
	vars       []string
	sorted     []bool
	cols       [][]core.ID
	nbuf       int // buffered rows
	rows       int // total rows (buffered + flushed)
	flushBytes int64
	sp         *spillTable
}

// newSink prepares a sink for a step producing the given schema.
func (bx *batchExec) newSink(vars []string, sorted []bool) *tableSink {
	budget := bx.ev.mem.Budget()
	fb := budget / 4
	if fb < 16<<10 {
		fb = 16 << 10
	}
	if fb > 8<<20 {
		fb = 8 << 20
	}
	sk := &tableSink{
		bx:         bx,
		vars:       vars,
		sorted:     sorted,
		cols:       make([][]core.ID, len(vars)),
		flushBytes: fb,
	}
	for c := range sk.cols {
		sk.cols[c] = bx.getCol()
	}
	return sk
}

func (sk *tableSink) bufBytes() int64 {
	return int64(sk.nbuf) * int64(len(sk.cols)) * 8
}

// settle is called after every append: it spills the buffer once it
// crosses the flush threshold and reconciles the meter with the bytes
// actually held (current input chunk + output buffer).
func (sk *tableSink) settle() error {
	if sk.bufBytes() >= sk.flushBytes {
		if err := sk.flush(); err != nil {
			return err
		}
	}
	return sk.bx.setAccounted(sk.bx.tableBytes() + sk.bufBytes())
}

// flush writes the buffered rows as one chunk and empties the buffer.
func (sk *tableSink) flush() error {
	if sk.nbuf == 0 {
		return nil
	}
	if sk.sp == nil {
		sp, err := newSpillTable(sk.bx.ev.spillFS, sk.bx.ev.spillDir, sk.vars, sk.sorted)
		if err != nil {
			return err
		}
		sk.sp = sp
	}
	n, err := sk.sp.appendChunk(sk.cols, sk.nbuf)
	if err != nil {
		return err
	}
	sk.bx.ev.mem.NoteSpill(int64(n))
	spillBytesTotal.Add(int64(n))
	if sp := sk.bx.curSp; sp != nil {
		sp.Add("spillBytes", int64(n))
		sp.Add("spillChunks", 1)
	}
	for c := range sk.cols {
		sk.cols[c] = sk.cols[c][:0]
	}
	sk.nbuf = 0
	return nil
}

// appendTable bulk-appends n rows from cols (a filtered chunk).
func (sk *tableSink) appendTable(cols [][]core.ID, n int) error {
	if n == 0 {
		return sk.settle()
	}
	for c := range sk.cols {
		sk.cols[c] = append(sk.cols[c], cols[c][:n]...)
	}
	sk.nbuf += n
	sk.rows += n
	return sk.settle()
}

// appendExpand appends k output rows for input row r of oldCols: the
// old column values replicated k times, followed by the new columns'
// candidate values. Large k is appended in flush-sized segments so the
// buffer never holds more than one segment past the threshold.
func (sk *tableSink) appendExpand(oldCols [][]core.ID, r, k int, news [3][]core.ID) error {
	segRows := k
	if perRow := int64(len(sk.cols)) * 8; perRow > 0 {
		if s := int(sk.flushBytes / perRow); s > 0 && s < segRows {
			segRows = s
		}
	}
	nNew := len(sk.vars) - len(oldCols)
	for off := 0; off < k; off += segRows {
		end := off + segRows
		if end > k {
			end = k
		}
		for ci := range oldCols {
			sk.cols[ci] = appendRun(sk.cols[ci], oldCols[ci][r], end-off)
		}
		for j := 0; j < nNew; j++ {
			sk.cols[len(oldCols)+j] = append(sk.cols[len(oldCols)+j], news[j][off:end]...)
		}
		sk.nbuf += end - off
		sk.rows += end - off
		if err := sk.settle(); err != nil {
			return err
		}
	}
	return nil
}

// finish installs the sink's content as the executor's current table:
// in memory when nothing was flushed, as the spilled table otherwise
// (with any tail rows flushed as a final chunk).
func (sk *tableSink) finish() error {
	bx := sk.bx
	bx.tbl.vars, bx.tbl.sorted = sk.vars, sk.sorted
	if sk.sp == nil {
		bx.setCols(sk.cols, sk.nbuf)
		return bx.setAccounted(bx.tableBytes())
	}
	if err := sk.flush(); err != nil {
		sk.sp.drop()
		bx.free = append(bx.free, sk.cols...)
		return err
	}
	bx.spilled = sk.sp
	// Keep per-chunk column scratch; no in-memory rows.
	bx.setCols(sk.cols, 0)
	return bx.setAccounted(0)
}

// tableBytes is the accounted size of the executor's in-memory binding
// table: 8 bytes per cell — none for views of the seed, which the
// branch accounts once.
func (bx *batchExec) tableBytes() int64 {
	if bx.borrowed {
		return 0
	}
	return int64(bx.tbl.n) * int64(len(bx.tbl.cols)) * 8
}

// rows returns the current table's row count, wherever it lives.
func (bx *batchExec) rows() int {
	if bx.spilled != nil {
		return bx.spilled.rows
	}
	return bx.tbl.n
}

// release drops any spilled table and returns the accounted bytes of
// the table to the meter. Called when a chunk's table is discarded.
func (bx *batchExec) release() {
	bx.spilled.drop()
	bx.spilled = nil
	bx.setAccounted(0) //nolint:errcheck // shrinking cannot fail
	bx.pendCells = 0
}

// setAccounted reconciles the meter with the bytes the executor's table
// holds; see reaccount.
func (bx *batchExec) setAccounted(total int64) error {
	return bx.ev.reaccount(&bx.accounted, total)
}

// reaccount moves what the meter carries on behalf of *held to total; a
// growth that crosses the hard cap fails with govern.ErrBudgetExceeded
// (wrapped) and leaves the accounting unchanged.
func (ev *evaluator) reaccount(held *int64, total int64) error {
	if ev.mem == nil {
		return nil
	}
	if d := total - *held; d > 0 {
		if err := ev.mem.Grow(d); err != nil {
			return err
		}
	} else {
		ev.mem.Shrink(-d)
	}
	*held = total
	return nil
}

// noteGrowth accumulates appended cells during an in-memory expansion
// and checks the budget every budgetCheckCells: crossing the soft
// budget yields errSpillNeeded when spilling is allowed (the step
// restarts streaming) or govern.ErrBudgetExceeded when it is not;
// crossing the hard cap always fails.
func (bx *batchExec) noteGrowth(cells int) error {
	if bx.ev.mem == nil {
		return nil
	}
	bx.pendCells += cells
	if bx.pendCells < budgetCheckCells {
		return nil
	}
	return bx.flushGrowth()
}

// flushGrowth applies the pending cell accounting.
func (bx *batchExec) flushGrowth() error {
	ev := bx.ev
	if ev.mem == nil || bx.pendCells == 0 {
		bx.pendCells = 0
		return nil
	}
	n := int64(bx.pendCells) * 8
	bx.pendCells = 0
	if ev.mem.WouldExceed(n) {
		if ev.canSpill() {
			return errSpillNeeded
		}
		if ev.mem.Budget() > 0 {
			return fmt.Errorf("%w: step output crossed the %d-byte budget with spilling disabled",
				govern.ErrBudgetExceeded, ev.mem.Budget())
		}
	}
	if err := ev.mem.Grow(n); err != nil {
		return err
	}
	bx.accounted += n
	return nil
}

// loadChunk decodes chunk k of sp into the executor's table, whose
// vars/sorted already carry sp's schema and whose columns are the scratch
// the sink that wrote sp left behind.
func (bx *batchExec) loadChunk(sp *spillTable, k int) error {
	tbl := &bx.tbl
	buf, cols, n, err := sp.readChunk(k, bx.decBuf, tbl.cols)
	bx.decBuf, tbl.cols = buf, cols
	if err != nil {
		return err
	}
	tbl.n = n
	return nil
}

// stepGoverned is step with budget governance: ungoverned queries take
// the plain path; governed ones account table growth, restart
// budget-crossing expansions in streaming mode, and stream every step
// whose input is already spilled.
func (bx *batchExec) stepGoverned(sp *stepPlan) error {
	if bx.ev.mem == nil && bx.spilled == nil {
		if len(sp.newNames) == 0 {
			return bx.filterStep(sp)
		}
		return bx.expandStep(sp)
	}
	if bx.spilled != nil {
		return bx.streamStep(sp)
	}
	if len(sp.newNames) == 0 {
		// Filters only discard rows; run in place and re-account.
		if err := bx.filterStep(sp); err != nil {
			return err
		}
		return bx.setAccounted(bx.tableBytes())
	}
	err := bx.expandStep(sp)
	if err == nil {
		bx.pendCells = 0
		return bx.setAccounted(bx.tableBytes())
	}
	if err != errSpillNeeded {
		return err
	}
	// The in-memory attempt crossed the soft budget; the input table is
	// untouched (expansions build output separately), so roll the
	// accounting back and restart this step streaming through a sink.
	bx.pendCells = 0
	if err := bx.setAccounted(bx.tableBytes()); err != nil {
		return err
	}
	return bx.streamStep(sp)
}

// streamStep runs one join step in streaming mode: input rows come
// from the in-memory table or the spilled chunks, output goes through
// a tableSink that spills oversized partitions. Row order and per-row
// semantics replicate the in-memory step exactly, so results are
// bit-identical whichever path ran.
func (bx *batchExec) streamStep(sp *stepPlan) error {
	bx.curSp.Set("streamed", true)
	in := bx.spilled
	bx.spilled = nil
	if in != nil {
		defer in.drop()
	}
	expand := len(sp.newNames) > 0
	// Row-independent expansions fetch their candidates once for the
	// branch, exactly like expandStep's shared fetch.
	if expand && sp.nCols == 0 {
		if err := bx.fetchShared(sp); err != nil {
			return err
		}
	}
	sink := bx.newSink(sp.vars, sp.sorted)
	// Any exit that did not install the sink's spill table as the
	// current result (a write fault, a cancel, a budget kill mid-stream)
	// must remove it; drop is idempotent, so the happy path is safe.
	defer func() {
		if bx.spilled != sink.sp {
			sink.sp.drop()
		}
	}()

	process := func() error {
		if expand {
			return bx.streamExpandChunk(sp, sink)
		}
		// Save/restore the row cap around the per-chunk filter: the
		// cap is global across chunks.
		savedCap := bx.rowCap
		if savedCap >= 0 {
			bx.rowCap = savedCap - sink.rows
		}
		err := bx.filterStep(sp)
		bx.rowCap = savedCap
		if err != nil {
			return err
		}
		return sink.appendTable(bx.tbl.cols, bx.tbl.n)
	}

	if in == nil {
		if err := process(); err != nil {
			return err
		}
	} else {
		for k := range in.chunks {
			if err := bx.ctxCheck(); err != nil {
				return err
			}
			if bx.rowCap >= 0 && sink.rows >= bx.rowCap {
				break
			}
			if err := bx.loadChunk(in, k); err != nil {
				return err
			}
			if err := process(); err != nil {
				return err
			}
		}
		bx.tbl.n = 0 // the last chunk is no longer the current table
	}
	return sink.finish()
}

// streamExpandChunk expands the current table (one input chunk) row by
// row into the sink, with expandStep's fetch semantics (expandRows).
func (bx *batchExec) streamExpandChunk(sp *stepPlan, sink *tableSink) error {
	return bx.expandRows(sp, &sink.rows, func(r, k int, news [3][]core.ID) error {
		return sink.appendExpand(bx.tbl.cols, r, k, news)
	})
}

// streamFilterExpr applies one staged FILTER to a spilled table, chunk
// by chunk, through a fresh sink.
func (bx *batchExec) streamFilterExpr(f *cfilter) error {
	in := bx.spilled
	bx.spilled = nil
	defer in.drop()
	sink := bx.newSink(bx.tbl.vars, bx.tbl.sorted)
	defer func() {
		if bx.spilled != sink.sp {
			sink.sp.drop()
		}
	}()
	for k := range in.chunks {
		if err := bx.ctxCheck(); err != nil {
			return err
		}
		if err := bx.loadChunk(in, k); err != nil {
			return err
		}
		if err := bx.filterRows(f); err != nil {
			return err
		}
		if err := sink.appendTable(bx.tbl.cols, bx.tbl.n); err != nil {
			return err
		}
	}
	bx.tbl.n = 0
	return sink.finish()
}

// applyFilter routes one staged FILTER to the in-memory or streaming
// path and keeps the accounting current.
func (bx *batchExec) applyFilter(f *cfilter) error {
	if bx.spilled != nil {
		return bx.streamFilterExpr(f)
	}
	if err := bx.filterRows(f); err != nil {
		return err
	}
	if bx.ev.mem != nil {
		return bx.setAccounted(bx.tableBytes())
	}
	return nil
}

// emitSpilled emits a spilled chunk result piece by piece through
// emitChunk.
func (bx *batchExec) emitSpilled(br *branchRun) error {
	ev := bx.ev
	in := bx.spilled
	bx.spilled = nil
	defer in.drop()
	for k := range in.chunks {
		if err := ev.ctxCheck(); err != nil || ev.done {
			return err
		}
		if err := bx.loadChunk(in, k); err != nil {
			return err
		}
		if err := bx.setAccounted(bx.tableBytes()); err != nil {
			return err
		}
		if err := bx.emitChunk(br); err != nil {
			return err
		}
	}
	bx.tbl.n = 0
	return nil
}
