package dictionary

import (
	"hash/maphash"
	"math"
	"unsafe"

	"hexastore/internal/rdf"
)

// Meta is what the dictionary keeps beside a term's value: its kind, and
// whether the value is plain — no byte below 0x20, no '"', no '\' and no
// byte ≥ 0x80 — so that it can be written as a JSON string between two
// quotes, byte for byte.
type Meta uint8

const (
	kindBits Meta = 0x03
	plainBit Meta = 0x04
)

// NumMetas bounds the Meta values, for tables indexed by one.
const NumMetas = 8

// MetaOf returns the meta byte of the term (kind, value).
func MetaOf(kind rdf.TermKind, value string) Meta {
	m := Meta(normKind(kind))
	for i := 0; i < len(value); i++ {
		if c := value[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			return m
		}
	}
	return m | plainBit
}

// Kind returns the term's kind.
func (m Meta) Kind() rdf.TermKind { return rdf.TermKind(m & kindBits) }

// Plain reports whether the value needs no JSON escaping (see Meta).
func (m Meta) Plain() bool { return m&plainBit != 0 }

// normKind maps a kind out of range to IRI, as rdf.Term.Key does.
func normKind(k rdf.TermKind) rdf.TermKind {
	if k > rdf.Blank {
		return rdf.IRI
	}
	return k
}

// entry locates one term in 8 bytes: its value is
// segs[seg][off:off+n], beside its meta byte. A value of wholeSeg bytes
// or more has a segment of its own, and its n reads wholeSeg.
//
//	bits 48-63 seg · 28-47 off · 3-27 n · 0-2 meta
type entry uint64

const (
	offBits  = 20
	nBits    = 25
	wholeSeg = 1<<nBits - 1
	maxSegs  = 1 << 16
)

func makeEntry(seg, off, n int, m Meta) entry {
	return entry(seg)<<48 | entry(off)<<28 | entry(min(n, wholeSeg))<<3 | entry(m)
}

func (e entry) meta() Meta { return Meta(e & 7) }

// value returns the entry's bytes among segs.
func (e entry) value(segs [][]byte) []byte {
	seg := segs[e>>48]
	off, n := int(e>>28)&(1<<offBits-1), int(e>>3)&wholeSeg
	if n == wholeSeg {
		return seg
	}
	return seg[off : off+n]
}

// Segment sizes: a table's first segment is small, each next one twice
// the last up to maxSeg, and a value larger than that gets a segment of
// its own size.
const (
	firstSeg = 4 << 10
	maxSeg   = 1 << offBits
)

// terms is the id-indexed half of a term table: term id's value lives
// in a segment at ents[id-1], beside its meta byte. Nothing in it is a
// Go pointer but the slice headers, so the garbage collector marks a few
// objects however many terms there are.
//
// It is append-only in a way that lets readers share it without a lock.
// A segment is allocated at its full length and filled front to back: a
// byte, once written, is never written again, and a segment is never
// moved. ents and segs only grow by append, which either fills spare
// capacity past every header taken earlier or moves to a new array and
// leaves the old one as it was. A View copied from them is therefore an
// immutable prefix, and strings may alias its bytes.
type terms struct {
	segs [][]byte
	fill int // bytes in use in the last segment
	ents []entry
}

// add appends the term (v, m) and returns its id.
func (t *terms) add(v string, m Meta) ID {
	if len(t.ents) >= math.MaxUint32 {
		panic("dictionary: term table full")
	}
	last := len(t.segs) - 1
	if last < 0 || len(t.segs[last])-t.fill < len(v) || len(v) >= wholeSeg {
		size := firstSeg
		if last >= 0 {
			size = min(2*len(t.segs[last]), maxSeg)
		}
		if len(v) > size {
			size = len(v) // a segment of its own
		}
		if last+1 >= maxSegs {
			panic("dictionary: term table full")
		}
		t.segs = append(t.segs, make([]byte, size))
		t.fill, last = 0, last+1
	}
	off := t.fill
	if len(v) == 0 {
		off = 0 // a full segment's fill is past what off can hold
	}
	copy(t.segs[last][off:], v)
	t.ents = append(t.ents, makeEntry(last, off, len(v), m))
	t.fill += len(v)
	return ID(len(t.ents))
}

// equal reports whether term id is (kind, v).
func (t *terms) equal(id ID, kind rdf.TermKind, v string) bool {
	e := t.ents[id-1]
	return e.meta().Kind() == kind && string(e.value(t.segs)) == v
}

// view returns the table as it stands.
func (t *terms) view() View { return View{segs: t.segs, ents: t.ents} }

// bytes returns what the table holds: its segments and its columns.
func (t *terms) bytes() int64 {
	n := int64(cap(t.segs))*int64(unsafe.Sizeof([]byte(nil))) + int64(cap(t.ents))*int64(unsafe.Sizeof(entry(0)))
	for _, s := range t.segs {
		n += int64(cap(s))
	}
	return n
}

// View is a frozen, read-only view of a dictionary's terms: ids 1..Len
// as they stood when it was taken. Its values alias the dictionary's
// segment bytes, which are never written again, so reading one
// allocates nothing; a View may be kept and read from any number of
// goroutines, and later Encodes never change what it holds. It holds
// only slice headers.
type View struct {
	segs [][]byte
	ents []entry
}

// Len returns the number of ids the view covers.
func (v View) Len() int { return len(v.ents) }

// At returns the value and meta byte of id, which must be in 1..Len.
func (v View) At(id ID) (string, Meta) {
	e := v.ents[id-1]
	b := e.value(v.segs)
	return unsafe.String(unsafe.SliceData(b), len(b)), e.meta()
}

// Term returns the term of id, which must be in 1..Len.
func (v View) Term(id ID) rdf.Term {
	value, m := v.At(id)
	return rdf.Term{Kind: m.Kind(), Value: value}
}

// covers reports whether id is in 1..Len; id-1 wraps None around to the
// largest value, so one compare turns both away.
func (v View) covers(id ID) bool { return uint64(id-1) < uint64(len(v.ents)) }

// index is the term → id half of a table: open addressing with linear
// probing over slots of fingerprint<<32 | id, 0 marking an empty slot.
// The fingerprint is the top half of the term's hash and also places
// the slot, so growing re-places slots without reading a term; a probe
// compares a term's bytes only where the fingerprints agree.
type index struct {
	slots []uint64
	n     int
}

// lookup returns the id of (kind, v), whose hash is h, among t's terms;
// None if the index does not hold it.
func (x *index) lookup(h uint64, t *terms, kind rdf.TermKind, v string) ID {
	if len(x.slots) == 0 {
		return None
	}
	fp, mask := h>>32, uint64(len(x.slots)-1)
	for i := fp & mask; ; i = (i + 1) & mask {
		s := x.slots[i]
		if s == 0 {
			return None
		}
		if s>>32 == fp && t.equal(ID(uint32(s)), kind, v) {
			return ID(uint32(s))
		}
	}
}

// insert adds id, whose term hashes to h; the index must not hold it.
func (x *index) insert(h uint64, id ID) {
	x.reserve(x.n + 1)
	x.place(h>>32<<32 | uint64(id))
	x.n++
}

// reserve makes room for n entries at a load of at most three quarters.
func (x *index) reserve(n int) {
	size := max(len(x.slots), 16)
	for n*4 > size*3 {
		size *= 2
	}
	if size == len(x.slots) {
		return
	}
	old := x.slots
	x.slots = make([]uint64, size)
	for _, s := range old {
		if s != 0 {
			x.place(s)
		}
	}
}

func (x *index) place(s uint64) {
	mask := uint64(len(x.slots) - 1)
	i := s >> 32 & mask
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	x.slots[i] = s
}

// seed keys every table's hash, so a term hashes alike in a Table and in
// the Dictionary it is handed to.
var seed = maphash.MakeSeed()

// kindSalt sets the hashes of the three kinds apart.
var kindSalt = [...]uint64{rdf.IRI: 0, rdf.Literal: 0x9e3779b97f4a7c15, rdf.Blank: 0xc2b2ae3d27d4eb4f}

func hashTerm(kind rdf.TermKind, v string) uint64 {
	return maphash.String(seed, v) ^ kindSalt[kind]
}

// Table is a term table for one goroutine, with no lock: the same
// pointer-free segments and index as a Dictionary, numbering its terms
// 0, 1, 2, … in order of first Intern. The bulk loaders collect a block's
// or a file's terms in one and hand them to Dictionary.EncodeTable, which
// copies bytes and hashes instead of building a string per term. The
// zero Table is empty and ready to use.
type Table struct {
	terms  terms
	hashes []uint64 // local id → the term's hash
	index  index
}

// Intern returns the local id of the term (kind, value), adding it if
// the table does not hold it yet; added reports which. The table copies
// value.
func (t *Table) Intern(kind rdf.TermKind, value []byte) (local uint32, added bool) {
	kind = normKind(kind)
	v := unsafe.String(unsafe.SliceData(value), len(value)) // read here, never kept
	h := hashTerm(kind, v)
	if id := t.index.lookup(h, &t.terms, kind, v); id != None {
		return uint32(id - 1), false
	}
	id := t.terms.add(v, MetaOf(kind, v))
	t.hashes = append(t.hashes, h)
	t.index.insert(h, id)
	return uint32(id - 1), true
}

// Len returns the number of terms in the table.
func (t *Table) Len() int { return len(t.terms.ents) }

// All returns the local ids of every term in the table, in order.
func (t *Table) All() []uint32 {
	all := make([]uint32, t.Len())
	for i := range all {
		all[i] = uint32(i)
	}
	return all
}

// Kind returns the kind of term local.
func (t *Table) Kind(local uint32) rdf.TermKind { return t.terms.ents[local].meta().Kind() }
