package sparql

// Spill-to-disk execution for budgeted queries. When a query carries a
// memory budget (govern.Meter) and a join step's output would cross it,
// the step restarts in streaming mode: input rows are processed in
// order and the output is accumulated through a tableSink that flushes
// fixed-size chunks to a temp spill file instead of materializing the
// whole binding table. Later steps, FILTERs and final emission then
// stream the spilled table chunk by chunk — each chunk is a small
// batchTable, so the existing step machinery (merge-intersect filters,
// sorted-list expansions, per-row probes) runs unchanged per chunk and
// the result is bit-identical to the in-memory evaluation: row order is
// preserved end to end, and a chunk of a sorted column is still sorted,
// which keeps the galloping merge licensed.
//
// Spill files go through iofault.FS, so the fault-injection harness
// covers this path: a torn write or ENOSPC surfaces as an error that
// fails the query cleanly (chunks additionally carry a CRC32 that read
// paths verify). Files are created lazily in SpillDir on the first
// flush and removed when the owning table is replaced or the
// evaluation returns.

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
// it bounds the overshoot past the soft budget to 8 KiB per worker.
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
	return &tableSink{
		bx:         bx,
		vars:       vars,
		sorted:     sorted,
		cols:       make([][]core.ID, len(vars)),
		flushBytes: fb,
	}
}

func (sk *tableSink) bufBytes() int64 {
	return int64(sk.nbuf) * int64(len(sk.cols)) * 8
}

// settle is called after every append: it spills the buffer once it
// crosses the flush threshold and reconciles the meter with the bytes
// actually held (current input chunk + output buffer + shared scratch).
func (sk *tableSink) settle() error {
	if sk.bufBytes() >= sk.flushBytes {
		if err := sk.flush(); err != nil {
			return err
		}
	}
	return sk.bx.setAccounted(tableBytes(&sk.bx.tbl) + sk.bufBytes() + sk.bx.scratchBytes)
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
func (sk *tableSink) appendExpand(oldCols [][]core.ID, r, k int, a, b, c []core.ID) error {
	segRows := k
	if perRow := int64(len(sk.cols)) * 8; perRow > 0 {
		if s := int(sk.flushBytes / perRow); s > 0 && s < segRows {
			segRows = s
		}
	}
	news := [3][]core.ID{a, b, c}
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
	if sk.sp == nil {
		bx.tbl.vars = sk.vars
		bx.tbl.sorted = sk.sorted
		bx.tbl.cols = sk.cols
		bx.tbl.n = sk.nbuf
		return bx.setAccounted(tableBytes(&bx.tbl))
	}
	if err := sk.flush(); err != nil {
		sk.sp.drop()
		return err
	}
	bx.spilled = sk.sp
	bx.tbl.vars = sk.vars
	bx.tbl.sorted = sk.sorted
	// Keep per-chunk column scratch; no in-memory rows.
	bx.tbl.cols = sk.cols
	bx.tbl.n = 0
	return bx.setAccounted(0)
}

// tableBytes is the accounted size of an in-memory binding table:
// 8 bytes per cell.
func tableBytes(t *batchTable) int64 {
	return int64(t.n) * int64(len(t.cols)) * 8
}

// rows returns the current table's row count, wherever it lives.
func (bx *batchExec) rows() int {
	if bx.spilled != nil {
		return bx.spilled.rows
	}
	return bx.tbl.n
}

// release drops any spilled table and returns the accounted bytes of
// the engine state to the meter. Called when a branch's table is
// discarded (start and end of every runBatch).
func (bx *batchExec) release() {
	if bx.spilled != nil {
		bx.spilled.drop()
		bx.spilled = nil
	}
	bx.setAccounted(0) //nolint:errcheck // shrinking cannot fail
	bx.pendCells = 0
	bx.scratchBytes = 0
}

// setAccounted reconciles the meter with total live engine bytes; a
// growth that crosses the hard cap fails with govern.ErrBudgetExceeded
// (wrapped) and leaves the accounting unchanged.
func (bx *batchExec) setAccounted(total int64) error {
	ev := bx.ev
	if ev.mem == nil {
		return nil
	}
	d := total - bx.accounted
	if d > 0 {
		if err := ev.mem.Grow(d); err != nil {
			return err
		}
	} else if d < 0 {
		ev.mem.Shrink(-d)
	}
	bx.accounted = total
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
// vars/sorted already carry sp's schema.
func (bx *batchExec) loadChunk(sp *spillTable, k int) error {
	tbl := &bx.tbl
	for len(tbl.cols) < len(sp.vars) {
		tbl.cols = append(tbl.cols, nil)
	}
	tbl.cols = tbl.cols[:len(sp.vars)]
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
func (bx *batchExec) stepGoverned(p *idPattern) error {
	if bx.ev.mem == nil && bx.spilled == nil {
		return bx.step(p)
	}
	sp := bx.classify(p)
	if bx.spilled != nil {
		return bx.streamStep(&sp)
	}
	if len(sp.newNames) == 0 {
		// Filters only discard rows; run in place and re-account.
		if err := bx.filterStep(&sp); err != nil {
			return err
		}
		return bx.setAccounted(tableBytes(&bx.tbl))
	}
	err := bx.expandStep(&sp)
	if err == nil {
		bx.pendCells = 0
		return bx.setAccounted(tableBytes(&bx.tbl))
	}
	if err != errSpillNeeded {
		return err
	}
	// The in-memory attempt crossed the soft budget; the input table is
	// untouched (expansions build output separately), so roll the
	// accounting back and restart this step streaming through a sink.
	bx.pendCells = 0
	if err := bx.setAccounted(tableBytes(&bx.tbl)); err != nil {
		return err
	}
	return bx.streamStep(&sp)
}

// streamStep runs one join step in streaming mode: input rows come
// from the in-memory table or the spilled chunks, output goes through
// a tableSink that spills oversized partitions. Row order and per-row
// semantics replicate the in-memory step exactly, so results are
// bit-identical whichever path ran.
func (bx *batchExec) streamStep(sp *stepSpec) error {
	bx.curSp.Set("streamed", true)
	ev := bx.ev
	in := bx.spilled
	bx.spilled = nil
	if in != nil {
		defer in.drop()
	}
	defer func() { bx.scratchBytes = 0 }()

	inRows := bx.tbl.n
	if in != nil {
		inRows = in.rows
	}

	outVars := bx.tbl.vars
	outSorted := bx.tbl.sorted
	expand := len(sp.newNames) > 0
	rowIndep := sp.nCols == 0
	if expand {
		outVars = append(append([]string(nil), bx.tbl.vars...), sp.newNames...)
		outSorted = make([]bool, len(outVars))
		copy(outSorted, bx.tbl.sorted)
		// Same seeding rule as expandStep: only a single sorted fetch
		// expanding a one-row table yields a genuinely sorted column.
		if rowIndep && inRows == 1 && bx.sorted != nil && sp.nFree <= 2 {
			outSorted[len(bx.tbl.vars)] = true
		}
	} else {
		outVars = append([]string(nil), outVars...)
		outSorted = append([]bool(nil), outSorted...)
	}
	sink := bx.newSink(outVars, outSorted)
	// Any exit that did not install the sink's spill table as the
	// current result (a write fault, a cancel, a budget kill mid-stream)
	// must remove it; drop is idempotent, so the happy path is safe.
	defer func() {
		if sink.sp != nil && bx.spilled != sink.sp {
			sink.sp.drop()
		}
	}()

	// Row-independent expansions fetch their candidates once for the
	// whole step, exactly like expandStep's shared fetch.
	if expand && rowIndep {
		var err error
		switch sp.nFree {
		case 1:
			_, err = bx.candidates1(sp, 0)
		case 2:
			err = bx.candidates2(sp, 0, -1)
		default:
			err = bx.candidates3(sp, bx.rowCap)
		}
		if err != nil {
			return err
		}
		if ev.ctxErr != nil {
			return ev.ctxErr
		}
		bx.scratchBytes = int64(len(bx.bufA)+len(bx.bufB)+len(bx.bufC)) * 8
		if err := bx.setAccounted(tableBytes(&bx.tbl) + bx.scratchBytes); err != nil {
			return err
		}
	}

	process := func() error {
		if !expand {
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
		return bx.streamExpandChunk(sp, sink, rowIndep)
	}

	if in == nil {
		if err := process(); err != nil {
			return err
		}
	} else {
		for k := range in.chunks {
			if err := ev.ctxCheck(); err != nil {
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
// row into the sink, mirroring expandStep's fetch semantics.
func (bx *batchExec) streamExpandChunk(sp *stepSpec, sink *tableSink, rowIndep bool) error {
	ev := bx.ev
	tbl := &bx.tbl
	oldCols := tbl.cols
	for r := 0; r < tbl.n; r++ {
		if !ev.tickOK() {
			return ev.ctxErr
		}
		left := -1
		if bx.rowCap >= 0 {
			left = bx.rowCap - sink.rows
			if left <= 0 {
				break
			}
		}
		if !rowIndep {
			var err error
			switch sp.nFree {
			case 1:
				_, err = bx.candidates1(sp, r)
			default:
				err = bx.candidates2(sp, r, left)
			}
			if err != nil {
				return err
			}
			if ev.ctxErr != nil {
				return ev.ctxErr
			}
		}
		k := len(bx.bufA)
		if left >= 0 && k > left {
			k = left
		}
		if k == 0 {
			continue
		}
		if err := sink.appendExpand(oldCols, r, k, bx.bufA, bx.bufB, bx.bufC); err != nil {
			return err
		}
	}
	return nil
}

// streamFilterExpr applies one staged FILTER to a spilled table, chunk
// by chunk, through a fresh sink.
func (bx *batchExec) streamFilterExpr(f *cfilter) error {
	ev := bx.ev
	in := bx.spilled
	bx.spilled = nil
	defer in.drop()
	sink := bx.newSink(append([]string(nil), bx.tbl.vars...), append([]bool(nil), bx.tbl.sorted...))
	for k := range in.chunks {
		if err := ev.ctxCheck(); err != nil {
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
		return bx.setAccounted(tableBytes(&bx.tbl))
	}
	return nil
}

// emitSpilled emits a spilled table chunk by chunk through emitRows.
func (bx *batchExec) emitSpilled(optionals [][]idPattern, lateFilters []*cfilter) error {
	ev := bx.ev
	in := bx.spilled
	bx.spilled = nil
	defer in.drop()
	for k := range in.chunks {
		if err := ev.ctxCheck(); err != nil {
			return err
		}
		if ev.done {
			break
		}
		if err := bx.loadChunk(in, k); err != nil {
			return err
		}
		if err := bx.setAccounted(tableBytes(&bx.tbl)); err != nil {
			return err
		}
		if err := bx.emitRows(optionals, lateFilters); err != nil {
			return err
		}
	}
	bx.tbl.n = 0
	return nil
}
