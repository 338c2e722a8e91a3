package core

// The bulk-load encoder: the one path from N-Triples, Turtle or parsed
// triples to dictionary-encoded triples that every loader takes. It runs
// in two phases.
//
// Phase one is parallel. The input is cut into blocks — of whole lines
// for N-Triples, of parsed triples otherwise — and up to workers
// goroutines take one block each: every block interns its terms in a
// dictionary.Table of its own and emits its triples in block-local ids.
// No lock is taken, no rdf.Triple is built for N-Triples, and only a term
// new to its block is copied out of the input — into the table's
// segments, not into a string of its own.
//
// Phase two gives ids. One sequential pass over the blocks, in input
// order, hands each block's terms to the dictionary in bulk
// (Dictionary.EncodeTable), which gives each new term the next id: first the
// predicates, then IRIs and blank nodes, then literals, each class in
// order of first occurrence (a predicate's first occurrence as a
// predicate). A term already in the dictionary keeps its id. A parallel
// pass then rewrites the local ids. The ids — and so the built store,
// byte for byte — are the same for every worker count and block size,
// and the order keeps the compressed index small: the few, frequent
// predicates get the smallest ids, and literals, which occur only as
// objects, do not interleave with the subjects' ids.

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"hexastore/internal/dictionary"
	"hexastore/internal/rdf"
)

const (
	// loadBlock is the size N-Triples input is cut into: large enough
	// that a block's term table pays for itself, small enough that a few
	// blocks in flight keep every worker busy to the end of the input.
	loadBlock = 2 << 20
	// tripleBlock is the number of parsed triples in one block.
	tripleBlock = 16 << 10
)

// EncodeNTriples parses an N-Triples stream and dictionary-encodes its
// triples into dict with up to workers goroutines (workers <= 0 means
// runtime.GOMAXPROCS(0)), returning them in input order. Errors are the
// *rdf.ParseError — with its 1-based line number — that rdf.Reader
// reports, the earliest line winning, or the stream's read error; on an
// error dict is left unchanged.
func EncodeNTriples(dict *dictionary.Dictionary, r io.Reader, workers int) ([][3]ID, error) {
	return encodeNTriples(dict, r, workers, loadBlock)
}

// encodeNTriples is EncodeNTriples with blocks of about blockSize bytes.
func encodeNTriples(dict *dictionary.Dictionary, r io.Reader, workers, blockSize int) ([][3]ID, error) {
	enc := newEncoder(workers)
	readErr := readBlocks(r, blockSize, func(data []byte) bool {
		if enc.failed.Load() {
			return false
		}
		enc.submit(func(in *interner, b *termBlock) { in.parse(b, data) })
		return true
	})
	blocks := enc.wait()
	line := 0
	for _, b := range blocks {
		if b.err != nil {
			err := *b.err
			err.Line += line
			return nil, &err
		}
		line += b.lines
	}
	if readErr != nil {
		return nil, readErr
	}
	return enc.assign(dict, blocks), nil
}

// EncodeTurtle parses a Turtle stream and dictionary-encodes its triples
// into dict, as EncodeNTriples does. Turtle's parse is stateful
// (@prefix, predicate and object lists), so it runs on the calling
// goroutine; the interning runs on up to workers others.
func EncodeTurtle(dict *dictionary.Dictionary, r io.Reader, workers int) ([][3]ID, error) {
	return encodeTurtle(dict, r, workers, tripleBlock)
}

// encodeTurtle is EncodeTurtle with blocks of blockSize triples.
func encodeTurtle(dict *dictionary.Dictionary, r io.Reader, workers, blockSize int) ([][3]ID, error) {
	enc := newEncoder(workers)
	tr := rdf.NewTurtleReader(r)
	var err error
	for err == nil {
		ts := make([]rdf.Triple, 0, blockSize)
		for len(ts) < blockSize {
			var t rdf.Triple
			if t, err = tr.Read(); err != nil {
				break
			}
			ts = append(ts, t)
		}
		enc.submit(func(in *interner, b *termBlock) { in.internTriples(b, ts) })
	}
	blocks := enc.wait()
	if err != io.EOF {
		return nil, err
	}
	return enc.assign(dict, blocks), nil
}

// EncodeTriples dictionary-encodes ts into dict with up to workers
// goroutines (workers <= 0 means runtime.GOMAXPROCS(0)), skipping
// invalid triples, in input order and with the ids EncodeNTriples would
// give the same statements.
func EncodeTriples(dict *dictionary.Dictionary, ts []rdf.Triple, workers int) [][3]ID {
	return encodeTriples(dict, ts, workers, tripleBlock)
}

// encodeTriples is EncodeTriples with blocks of blockSize triples.
func encodeTriples(dict *dictionary.Dictionary, ts []rdf.Triple, workers, blockSize int) [][3]ID {
	enc := newEncoder(workers)
	for lo := 0; lo < len(ts); lo += blockSize {
		chunk := ts[lo:min(lo+blockSize, len(ts))]
		enc.submit(func(in *interner, b *termBlock) { in.internTriples(b, chunk) })
	}
	return enc.assign(dict, enc.wait())
}

// AddNTriples parses an N-Triples stream and records its triples, with
// up to workers goroutines (see EncodeNTriples), returning how many it
// recorded. On an error it records nothing.
func (b *Builder) AddNTriples(r io.Reader, workers int) (int, error) {
	ts, err := EncodeNTriples(b.dict, r, workers)
	b.addEncoded(ts)
	return len(ts), err
}

// AddTurtle is AddNTriples for a Turtle stream (see EncodeTurtle).
func (b *Builder) AddTurtle(r io.Reader, workers int) (int, error) {
	ts, err := EncodeTurtle(b.dict, r, workers)
	b.addEncoded(ts)
	return len(ts), err
}

// addEncoded records ts, which the builder takes over.
func (b *Builder) addEncoded(ts [][3]ID) {
	if len(b.triples) == 0 {
		b.triples = ts
		return
	}
	b.triples = append(b.triples, ts...)
}

// termBlock is what phase one makes of one block.
type termBlock struct {
	terms   dictionary.Table // the block's terms, local ids in order of first occurrence
	preds   []uint32         // the local ids seen as predicates, in order of first such occurrence
	triples [][3]uint32      // the block's statements in local ids
	ids     []ID             // local id → dictionary id, filled in by phase two

	lines int             // input lines in the block
	err   *rdf.ParseError // its first parse error, the line counted from the block's start
}

// interner fills termBlocks; each worker keeps one across blocks.
type interner struct {
	isPred []bool // local id → seen as a predicate
	buf    []byte // the keys of the statement being parsed
}

// intern returns the local id in b of key, a term in key form
// (rdf.Term.Key), adding it on first sight.
func (in *interner) intern(b *termBlock, key []byte, pred bool) uint32 {
	kind, _ := rdf.KindOfKey(string(key[:1]))
	id, added := b.terms.Intern(kind, key[1:])
	if added {
		in.isPred = append(in.isPred, false)
	}
	if pred && !in.isPred[id] {
		in.isPred[id] = true
		b.preds = append(b.preds, id)
	}
	return id
}

// add records the statement whose three keys lie back to back in keys,
// term i's ending at end[i].
func (in *interner) add(b *termBlock, keys []byte, end [3]int) {
	s := in.intern(b, keys[:end[0]], false)
	p := in.intern(b, keys[end[0]:end[1]], true)
	o := in.intern(b, keys[end[1]:end[2]], false)
	b.triples = append(b.triples, [3]uint32{s, p, o})
}

// parse fills b from data, a block of N-Triples lines, up to the first
// malformed line.
func (in *interner) parse(b *termBlock, data []byte) {
	for len(data) > 0 {
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		b.lines++
		keys, end, ok, err := rdf.AppendStatement(in.buf[:0], line)
		in.buf = keys
		if err != nil {
			b.err = &rdf.ParseError{Line: b.lines, Text: string(bytes.TrimSpace(line)), Err: err}
			return
		}
		if ok {
			in.add(b, keys, end)
		}
	}
}

// internTriples fills b from ts, skipping invalid triples.
func (in *interner) internTriples(b *termBlock, ts []rdf.Triple) {
	for _, t := range ts {
		if !t.Valid() {
			continue
		}
		keys := t.Subject.AppendKey(in.buf[:0])
		s := len(keys)
		keys = t.Predicate.AppendKey(keys)
		p := len(keys)
		keys = t.Object.AppendKey(keys)
		in.buf = keys
		in.add(b, keys, [3]int{s, p, len(keys)})
	}
}

// encoder runs phase one: blocks submitted in input order are filled on
// up to workers goroutines, with at most workers more waiting.
type encoder struct {
	workers int
	jobs    chan func(*interner)
	wg      sync.WaitGroup
	blocks  []*termBlock
	failed  atomic.Bool // a block met a parse error: later blocks cannot matter
}

func newEncoder(workers int) *encoder {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	enc := &encoder{workers: workers, jobs: make(chan func(*interner), workers)}
	for i := 0; i < workers; i++ {
		enc.wg.Add(1)
		go func() {
			defer enc.wg.Done()
			in := new(interner)
			for job := range enc.jobs {
				job(in)
			}
		}()
	}
	return enc
}

// submit queues the next block, which fill fills.
func (enc *encoder) submit(fill func(*interner, *termBlock)) {
	b := new(termBlock)
	enc.blocks = append(enc.blocks, b)
	enc.jobs <- func(in *interner) {
		in.isPred = in.isPred[:0]
		fill(in, b)
		if b.err != nil {
			enc.failed.Store(true)
		}
	}
}

// wait ends phase one and returns the blocks in input order.
func (enc *encoder) wait() []*termBlock {
	close(enc.jobs)
	enc.wg.Wait()
	return enc.blocks
}

// assign runs phase two: it gives the blocks' terms their ids in dict,
// in the canonical order, and returns the blocks' triples in them.
func (enc *encoder) assign(dict *dictionary.Dictionary, blocks []*termBlock) [][3]ID {
	for _, b := range blocks {
		b.ids = make([]ID, b.terms.Len())
		dict.EncodeTable(&b.terms, b.preds, b.ids)
	}
	var todo []uint32
	for _, literals := range [2]bool{false, true} {
		for _, b := range blocks {
			todo = todo[:0]
			for l, id := range b.ids {
				if id == None && (b.terms.Kind(uint32(l)) == rdf.Literal) == literals {
					todo = append(todo, uint32(l))
				}
			}
			dict.EncodeTable(&b.terms, todo, b.ids)
		}
	}

	n := 0
	for _, b := range blocks {
		n += len(b.triples)
	}
	out := make([][3]ID, n)
	rest := out
	l := newLanes(enc.workers)
	for _, b := range blocks {
		dst := rest[:len(b.triples)]
		rest = rest[len(b.triples):]
		l.do(func() {
			for i, t := range b.triples {
				dst[i] = [3]ID{b.ids[t[0]], b.ids[t[1]], b.ids[t[2]]}
			}
		})
	}
	l.wait()
	return out
}

// readBlocks cuts r into blocks of about size bytes, each ending at a
// line end except perhaps the last, and hands them to emit in order until
// it returns false. A line longer than size extends its block to the
// line's end. It returns r's error, io.EOF excepted.
func readBlocks(r io.Reader, size int, emit func([]byte) bool) error {
	var carry []byte // the unterminated line the last block left over
	for {
		buf := make([]byte, len(carry)+size)
		copy(buf, carry)
		n, err := io.ReadFull(r, buf[len(carry):])
		buf = buf[:len(carry)+n]
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			if len(buf) > 0 {
				emit(buf)
			}
			return nil
		case err != nil:
			return err
		}
		cut := bytes.LastIndexByte(buf, '\n') + 1
		if cut == 0 {
			carry = buf
			continue
		}
		carry = buf[cut:]
		if !emit(buf[:cut]) {
			return nil
		}
	}
}
