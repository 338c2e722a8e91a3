// Package btree implements an on-disk B+-tree over fixed-width triple
// keys, the index structure of the disk-based Hexastore (paper §7 future
// work). Each of the six orderings of a disk Hexastore is one Tree whose
// keys are the triples permuted into that ordering, so every statement
// pattern becomes a prefix range scan.
//
// Keys are 24-byte [3]uint64 values compared lexicographically. Leaves
// are chained for range scans. Deletion is lazy (keys are removed from
// leaves without rebalancing), which keeps the write path simple and
// matches the paper's observation that RDF workloads are read-heavy.
package btree

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hexastore/internal/pagefile"
)

// Key is a lexicographically ordered triple of ids.
type Key [3]uint64

// Compare returns -1, 0, or +1 ordering a against b lexicographically.
func Compare(a, b Key) int {
	for i := 0; i < 3; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	return 0
}

// Less reports a < b.
func Less(a, b Key) bool { return Compare(a, b) < 0 }

// MaxKey is the largest possible key, useful as an inclusive scan bound.
var MaxKey = Key{^uint64(0), ^uint64(0), ^uint64(0)}

// Page layout. All node kinds begin with a one-byte type tag and a
// two-byte key count.
//
//	leaf:      [0]=tagLeaf  [2:4]=count [4:8]=next leaf id   [8:]=keys
//	comp leaf: [0]=tagCompLeaf [2:4]=count [4:8]=next leaf id
//	           [8:10]=byte length L of the key stream [10:10+L]=stream
//	           [10+L:10+L+2R]=restart table: R=(count-1)/restartEvery
//	           uint16 stream offsets
//	internal:  [0]=tagInner [2:4]=count [8:8+4*(maxInnerKeys+1)]=children
//	           [innerKeysOff:]=keys
//
// A compressed leaf holds its keys as a prefix-delta uvarint stream
// (see appendKeyDelta) instead of fixed 24-byte records, typically
// packing 3-6x more keys per page — fewer pages, fewer I/Os, and a
// smaller buffer-pool working set for the same triple set. Every
// restartEvery-th key is a restart point: it is written in full, like
// the first, and entry j-1 of the restart table is the stream offset of
// key j*restartEvery. A reader looking for lo binary-searches the table
// (decoding only the full key at each probed offset) and starts at the
// last restart key <= lo, so it decodes at most restartEvery keys
// before its first hit instead of half a ~900-key leaf. BulkBuild
// closes a leaf where its plain delta encoding would cross 90% of the
// page, so the restart keys and the table (about 100 bytes) come out of
// the fill slack and a tree has the page count it would have without
// them.
//
// Leaves of both kinds coexist in one tree: bulk builds emit compressed
// leaves (when the tree's compression flag is on) and in-place mutation
// re-encodes or splits them, so the formats are distinguished per page
// by the tag alone.
const (
	tagLeaf     = 1
	tagInner    = 2
	tagCompLeaf = 3

	keySize = 24

	leafKeysOff = 8
	// MaxLeafKeys is the raw leaf fanout.
	MaxLeafKeys = (pagefile.PayloadSize - leafKeysOff) / keySize

	// compLeafDataOff is where a compressed leaf's key stream starts;
	// compLeafCap is the byte capacity the stream and the restart table
	// share.
	compLeafDataOff = 10
	compLeafCap     = pagefile.PayloadSize - compLeafDataOff

	// restartEvery is the distance in keys between restart points of a
	// compressed leaf: the most a seek decodes before reaching its key.
	restartEvery = 64

	// MaxInnerKeys is the internal fanout minus one.
	MaxInnerKeys = (pagefile.PayloadSize - 8 - 4) / (keySize + 4)
	childrenOff  = 8
	innerKeysOff = childrenOff + 4*(MaxInnerKeys+1)

	// maxDepth bounds the internal levels of a descent. Every internal
	// node has at least two children, so a tree over the at most 2^32
	// pages of a file has at most 32 internal levels; a longer descent
	// follows a cycle of damaged child pointers.
	maxDepth = 32
)

// CorruptPageError reports a tree page that cannot be read as a node:
// an unknown tag, a key count past the page's capacity, a compressed
// leaf's stream or restart table past the page, or a child pointer or
// leaf chain that loops. The page's checksum held, so the bytes are as
// they were written; a bug or a damaged file wrote them.
type CorruptPageError struct {
	Page   pagefile.PageID
	Reason string
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("btree: page %d: %s (corrupted)", e.Page, e.Reason)
}

// pageFault returns why page payload d cannot be read as a tree node,
// or "" when its header fits the page. Every reader indexes a page by
// its count and stream length, so every page the tree reads passes here
// first (see get).
func pageFault(d []byte) string {
	n := nodeCount(d)
	switch nodeTag(d) {
	case tagLeaf:
		if n > MaxLeafKeys {
			return fmt.Sprintf("leaf holds %d keys, a page fits %d", n, MaxLeafKeys)
		}
	case tagInner:
		if n > MaxInnerKeys {
			return fmt.Sprintf("internal node holds %d keys, a page fits %d", n, MaxInnerKeys)
		}
	case tagCompLeaf:
		return compLeafFault(d)
	default:
		return fmt.Sprintf("unknown tag %d", nodeTag(d))
	}
	return ""
}

// compLeafFault is pageFault for a compressed leaf of at least
// compLeafDataOff bytes: its stream and restart table must lie inside
// the page, and the stream must hold at least three bytes a key, as
// every key is three uvarints or more (see appendKeyDelta).
func compLeafFault(d []byte) string {
	n, streamLen := nodeCount(d), compLeafStreamLen(d)
	if compLeafDataOff+streamLen+2*numRestarts(n) > len(d) {
		return fmt.Sprintf("stream of %d bytes and %d restarts overrun the page", streamLen, numRestarts(n))
	}
	if 3*n > streamLen {
		return fmt.Sprintf("%d keys in a stream of %d bytes", n, streamLen)
	}
	return ""
}

// get pins page id, checked by pageFault; the caller releases it.
func (t *Tree) get(id pagefile.PageID) (*pagefile.Page, error) {
	p, err := t.pf.Get(id)
	if err != nil {
		return nil, err
	}
	if why := pageFault(p.Data()); why != "" {
		t.pf.Release(p)
		return nil, &CorruptPageError{Page: id, Reason: why}
	}
	return p, nil
}

// tooDeep is the error of a descent past maxDepth internal levels.
func tooDeep(id pagefile.PageID) error {
	return &CorruptPageError{Page: id, Reason: fmt.Sprintf("more than %d internal levels: child pointers loop", maxDepth)}
}

// Tree is a B+-tree stored in a pagefile. It persists its root page id
// and key count in two root slots of the pagefile, so a Tree survives
// closing and reopening the file. A Tree is not safe for concurrent use;
// the disk store provides synchronization.
type Tree struct {
	pf        *pagefile.File
	rootSlot  int
	countSlot int
	root      pagefile.PageID
	count     uint64

	// compress makes BulkBuild emit compressed leaves. Reads and
	// mutations handle both leaf kinds regardless of the flag (the
	// format is per-page, carried by the tag).
	compress bool

	// scratch state reused across compressed-leaf decodes and
	// re-encodes; writers are single-goroutine (the disk store locks).
	scratchKeys []Key
	enc         leafEncoder
}

// SetCompression selects whether BulkBuild writes compressed leaves.
func (t *Tree) SetCompression(on bool) { t.compress = on }

// New attaches to the tree whose state lives in the given root slots of
// pf, creating an empty tree if the slots are zero.
func New(pf *pagefile.File, rootSlot, countSlot int) *Tree {
	return &Tree{
		pf:        pf,
		rootSlot:  rootSlot,
		countSlot: countSlot,
		root:      pagefile.PageID(pf.Root(rootSlot)),
		count:     pf.Root(countSlot),
	}
}

// Len returns the number of keys in the tree.
func (t *Tree) Len() uint64 { return t.count }

func (t *Tree) setRoot(id pagefile.PageID) {
	t.root = id
	t.pf.SetRoot(t.rootSlot, uint64(id))
}

func (t *Tree) setCount(n uint64) {
	t.count = n
	t.pf.SetRoot(t.countSlot, n)
}

// node accessors over a raw page payload.

func nodeTag(d []byte) byte  { return d[0] }
func nodeCount(d []byte) int { return int(binary.LittleEndian.Uint16(d[2:4])) }
func setNodeCount(d []byte, n int) {
	binary.LittleEndian.PutUint16(d[2:4], uint16(n))
}

func leafNext(d []byte) pagefile.PageID {
	return pagefile.PageID(binary.LittleEndian.Uint32(d[4:8]))
}
func setLeafNext(d []byte, id pagefile.PageID) {
	binary.LittleEndian.PutUint32(d[4:8], uint32(id))
}

func keyAt(d []byte, off, i int) Key {
	p := off + i*keySize
	return Key{
		binary.LittleEndian.Uint64(d[p:]),
		binary.LittleEndian.Uint64(d[p+8:]),
		binary.LittleEndian.Uint64(d[p+16:]),
	}
}

func putKeyAt(d []byte, off, i int, k Key) {
	p := off + i*keySize
	binary.LittleEndian.PutUint64(d[p:], k[0])
	binary.LittleEndian.PutUint64(d[p+8:], k[1])
	binary.LittleEndian.PutUint64(d[p+16:], k[2])
}

func childAt(d []byte, i int) pagefile.PageID {
	return pagefile.PageID(binary.LittleEndian.Uint32(d[childrenOff+4*i:]))
}
func putChildAt(d []byte, i int, id pagefile.PageID) {
	binary.LittleEndian.PutUint32(d[childrenOff+4*i:], uint32(id))
}

// Compressed-leaf codec. Keys are emitted as prefix deltas: a restart
// key (the first, and every restartEvery-th after it) as three full
// uvarints, any other key as
//
//	uvarint(k0-p0); if the delta is nonzero, k1 and k2 follow in full;
//	otherwise uvarint(k1-p1); if nonzero, k2 follows in full; otherwise
//	uvarint(k2-p2) (>= 1, since keys are strictly increasing).
//
// Shared triple prefixes — the normal case inside one leaf of one
// ordering — cost one byte each, so a typical key takes 3-6 bytes
// instead of 24.

// appendKeyDelta appends k's delta encoding relative to prev, or its
// full encoding when full is set.
func appendKeyDelta(dst []byte, prev, k Key, full bool) []byte {
	if full {
		dst = binary.AppendUvarint(dst, k[0])
		dst = binary.AppendUvarint(dst, k[1])
		return binary.AppendUvarint(dst, k[2])
	}
	d0 := k[0] - prev[0]
	dst = binary.AppendUvarint(dst, d0)
	if d0 != 0 {
		dst = binary.AppendUvarint(dst, k[1])
		return binary.AppendUvarint(dst, k[2])
	}
	d1 := k[1] - prev[1]
	dst = binary.AppendUvarint(dst, d1)
	if d1 != 0 {
		return binary.AppendUvarint(dst, k[2])
	}
	return binary.AppendUvarint(dst, k[2]-prev[2])
}

// numRestarts is the length of the restart table of a leaf of n keys:
// one entry per restart key after the first, whose offset is always 0.
func numRestarts(n int) int {
	if n == 0 {
		return 0
	}
	return (n - 1) / restartEvery
}

// restartOff reads the stream offset of restart key r*restartEvery,
// r >= 1, from a leaf's restart table.
func restartOff(table []byte, r int) int {
	return int(binary.LittleEndian.Uint16(table[2*(r-1):]))
}

// leafEncoder builds the body of a compressed leaf — key stream and
// restart table — one key at a time. Every writer of the format
// (BulkBuild, mutateCompLeaf, the burst split) encodes through it and
// stores the result with writeCompLeaf.
type leafEncoder struct {
	stream   []byte
	restarts []uint16 // stream offsets of keys restartEvery, 2*restartEvery, ...
	n        int
	prev     Key
	// plain is the length the stream would have with no restart keys;
	// BulkBuild places leaf boundaries by it.
	plain int
}

func (e *leafEncoder) reset() {
	e.stream, e.restarts, e.n, e.plain = e.stream[:0], e.restarts[:0], 0, 0
}

// size is the number of bytes the leaf body takes in a page.
func (e *leafEncoder) size() int { return len(e.stream) + 2*len(e.restarts) }

// add appends k, which must be greater than every key added before it.
func (e *leafEncoder) add(k Key) {
	mark := len(e.stream)
	e.stream = appendKeyDelta(e.stream, e.prev, k, e.n == 0)
	e.plain += len(e.stream) - mark
	if e.n > 0 && e.n%restartEvery == 0 {
		e.restarts = append(e.restarts, uint16(mark))
		e.stream = appendKeyDelta(e.stream[:mark], e.prev, k, true)
	}
	e.prev = k
	e.n++
}

// encodeLeafStream replaces e's contents with the encoding of keys.
func encodeLeafStream(e *leafEncoder, keys []Key) {
	e.reset()
	for _, k := range keys {
		e.add(k)
	}
}

// writeCompLeaf stores e's keys into page payload d as a compressed
// leaf, preserving the next-leaf pointer already in d. e.size() must
// not exceed compLeafCap.
func writeCompLeaf(d []byte, e *leafEncoder) {
	d[0] = tagCompLeaf
	setNodeCount(d, e.n)
	binary.LittleEndian.PutUint16(d[8:10], uint16(len(e.stream)))
	table := d[compLeafDataOff+copy(d[compLeafDataOff:], e.stream):]
	for i, off := range e.restarts {
		binary.LittleEndian.PutUint16(table[2*i:], off)
	}
}

// compLeafStreamLen returns the byte length of a compressed leaf's key
// stream.
func compLeafStreamLen(d []byte) int {
	return int(binary.LittleEndian.Uint16(d[8:10]))
}

// compIter decodes a compressed leaf's keys in ascending order, one per
// next call, holding no buffer — so concurrent readers of a page share
// no state. Every reader of the format walks it, so the layout is
// decoded in one place.
type compIter struct {
	stream []byte
	pos    int // stream offset of key i
	i, n   int
	k      Key // the key the last next call decoded
}

// iterCompLeaf returns an iterator positioned before the leaf's first
// key.
func iterCompLeaf(d []byte) compIter {
	return compIter{
		stream: d[compLeafDataOff : compLeafDataOff+compLeafStreamLen(d)],
		n:      nodeCount(d),
	}
}

// next decodes the next key into it.k, reporting false at the leaf's
// end.
func (it *compIter) next() bool {
	if it.i >= it.n {
		return false
	}
	it.k, it.pos = decodeNextKey(it.stream, it.pos, it.k, it.i%restartEvery == 0)
	it.i++
	return true
}

// seekCompLeaf returns an iterator positioned before the last restart
// key <= lo (before the first key when there is none): the following
// next calls reach the first key >= lo after at most restartEvery
// decodes. The restart table is binary-searched by decoding the full
// key at each probed offset.
func seekCompLeaf(d []byte, lo Key) compIter {
	it := iterCompLeaf(d)
	table := d[compLeafDataOff+len(it.stream):]
	// r is the restart to start from; restart 0 is key 0 at offset 0.
	r, hi := 0, numRestarts(it.n)
	for r < hi {
		mid := int(uint(r+hi+1) >> 1)
		if k, _ := decodeNextKey(it.stream, restartOff(table, mid), Key{}, true); Less(lo, k) {
			hi = mid - 1
		} else {
			r = mid
		}
	}
	if r > 0 {
		it.pos, it.i = restartOff(table, r), r*restartEvery
	}
	return it
}

// decodeCompLeaf decodes a compressed leaf's keys into dst (reset to
// zero length first).
func decodeCompLeaf(d []byte, dst []Key) []Key {
	dst = dst[:0]
	for it := iterCompLeaf(d); it.next(); {
		dst = append(dst, it.k)
	}
	return dst
}

// containsCompLeaf reports whether k is in the compressed leaf payload
// d.
func containsCompLeaf(d []byte, k Key) bool {
	for it := seekCompLeaf(d, k); it.next(); {
		if c := Compare(it.k, k); c >= 0 {
			return c == 0
		}
	}
	return false
}

// checkCompLeaf validates the compressed leaf payload d without
// trusting any of it: the stream and the restart table lie inside the
// page, count keys decode to exactly the stream's length in strictly
// increasing order, and every table entry is the offset at which the
// sequential decode reaches its restart key. It never reads outside d.
func checkCompLeaf(d []byte) error {
	if len(d) < compLeafDataOff {
		return fmt.Errorf("compressed leaf of %d bytes has no header", len(d))
	}
	if why := compLeafFault(d); why != "" {
		return errors.New(why)
	}
	n, streamLen := nodeCount(d), compLeafStreamLen(d)
	table := d[compLeafDataOff+streamLen:]
	it := iterCompLeaf(d)
	var prev Key
	for i := 0; i < n; i++ {
		if i > 0 && i%restartEvery == 0 {
			if off := restartOff(table, i/restartEvery); off != it.pos {
				return fmt.Errorf("restart %d at offset %d, key %d starts at %d", i/restartEvery, off, i, it.pos)
			}
		}
		it.next()
		if it.pos > streamLen {
			return fmt.Errorf("key %d runs past the stream's %d bytes", i, streamLen)
		}
		if i > 0 && !Less(prev, it.k) {
			return fmt.Errorf("key %d out of order", i)
		}
		prev = it.k
	}
	if it.pos != streamLen {
		return fmt.Errorf("stream length %d, %d keys decoded %d", streamLen, n, it.pos)
	}
	return nil
}

// streamUvarint reads the uvarint at pos. A truncated or overlong one
// yields a position past the stream's end, from which every later read
// fails the same way: a reader of a damaged stream sees garbage keys
// and checkCompLeaf sees pos > len(b), neither reads out of bounds.
func streamUvarint(b []byte, pos int) (uint64, int) {
	if pos < len(b) {
		if v := b[pos]; v < 0x80 {
			return uint64(v), pos + 1
		}
		if v, k := binary.Uvarint(b[pos:]); k > 0 {
			return v, pos + k
		}
	}
	return 0, len(b) + 1
}

// searchKeys returns the index of the first key at off >= k.
func searchKeys(d []byte, off, count int, k Key) int {
	lo, hi := 0, count
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if Less(keyAt(d, off, mid), k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// insertKeyAt shifts keys right and writes k at index i.
func insertKeyAt(d []byte, off, count, i int, k Key) {
	copy(d[off+(i+1)*keySize:off+(count+1)*keySize], d[off+i*keySize:off+count*keySize])
	putKeyAt(d, off, i, k)
}

// removeKeyAt shifts keys left over index i.
func removeKeyAt(d []byte, off, count, i int) {
	copy(d[off+i*keySize:off+(count-1)*keySize], d[off+(i+1)*keySize:off+count*keySize])
}

// decodeNextKey decodes the key at pos: a full key when full is set,
// otherwise a delta against prev.
func decodeNextKey(stream []byte, pos int, prev Key, full bool) (Key, int) {
	var k Key
	if full {
		var v uint64
		v, pos = streamUvarint(stream, pos)
		k[0] = v
		v, pos = streamUvarint(stream, pos)
		k[1] = v
		v, pos = streamUvarint(stream, pos)
		k[2] = v
		return k, pos
	}
	var d0, v uint64
	d0, pos = streamUvarint(stream, pos)
	k[0] = prev[0] + d0
	if d0 != 0 {
		v, pos = streamUvarint(stream, pos)
		k[1] = v
		v, pos = streamUvarint(stream, pos)
		k[2] = v
		return k, pos
	}
	var d1 uint64
	d1, pos = streamUvarint(stream, pos)
	k[1] = prev[1] + d1
	if d1 != 0 {
		v, pos = streamUvarint(stream, pos)
		k[2] = v
		return k, pos
	}
	v, pos = streamUvarint(stream, pos)
	k[2] = prev[2] + v
	return k, pos
}

// findLeaf descends to the leaf whose key range covers k and returns it
// pinned; the caller releases it.
func (t *Tree) findLeaf(k Key) (*pagefile.Page, error) {
	id := t.root
	for depth := 0; ; depth++ {
		p, err := t.get(id)
		if err != nil {
			return nil, err
		}
		d := p.Data()
		if tag := nodeTag(d); tag == tagLeaf || tag == tagCompLeaf {
			return p, nil
		}
		if depth == maxDepth {
			t.pf.Release(p)
			return nil, tooDeep(id)
		}
		n := nodeCount(d)
		i := searchKeys(d, innerKeysOff, n, k)
		if i < n && Compare(keyAt(d, innerKeysOff, i), k) == 0 {
			i++
		}
		id = childAt(d, i)
		t.pf.Release(p)
	}
}

// Contains reports whether k is in the tree.
func (t *Tree) Contains(k Key) (bool, error) {
	if t.root == pagefile.NilPage {
		return false, nil
	}
	p, err := t.findLeaf(k)
	if err != nil {
		return false, err
	}
	defer t.pf.Release(p)
	d := p.Data()
	if nodeTag(d) == tagCompLeaf {
		return containsCompLeaf(d, k), nil
	}
	n := nodeCount(d)
	i := searchKeys(d, leafKeysOff, n, k)
	return i < n && Compare(keyAt(d, leafKeysOff, i), k) == 0, nil
}

// splitRef describes one new right sibling produced by a node
// mutation: its smallest-key separator and its page id. Raw leaves and
// internal nodes yield at most one; a compressed leaf that overflows
// its page on re-encode can burst into several (it holds many more
// keys than a raw page can), which is why mutation results are a list.
type splitRef struct {
	sep   Key
	right pagefile.PageID
}

// Insert adds k, reporting whether the tree changed (false if k was
// already present).
func (t *Tree) Insert(k Key) (bool, error) {
	if t.root == pagefile.NilPage {
		p, err := t.pf.Allocate()
		if err != nil {
			return false, err
		}
		d := p.Data()
		d[0] = tagLeaf
		setNodeCount(d, 1)
		putKeyAt(d, leafKeysOff, 0, k)
		p.MarkDirty()
		t.setRoot(p.ID())
		t.pf.Release(p)
		t.setCount(1)
		return true, nil
	}
	added, splits, err := t.mutate(t.root, k, false, 0)
	if err != nil {
		return false, err
	}
	if err := t.growRoot(splits); err != nil {
		return false, err
	}
	if added {
		t.setCount(t.count + 1)
	}
	return added, nil
}

// Delete removes k, reporting whether the tree changed. Raw leaves are
// not rebalanced or reclaimed (lazy deletion): scans skip empty leaves
// via the leaf chain. Compressed leaves re-encode in place; in the
// rare case the re-encoded stream grows past the page (removing a key
// can lengthen its successor's delta), the leaf splits like an insert
// would.
func (t *Tree) Delete(k Key) (bool, error) {
	if t.root == pagefile.NilPage {
		return false, nil
	}
	removed, splits, err := t.mutate(t.root, k, true, 0)
	if err != nil {
		return false, err
	}
	if err := t.growRoot(splits); err != nil {
		return false, err
	}
	if removed {
		t.setCount(t.count - 1)
	}
	return removed, nil
}

// growRoot installs a new root over the old root and the split-off
// right siblings, when a mutation split the root.
func (t *Tree) growRoot(splits []splitRef) error {
	if len(splits) == 0 {
		return nil
	}
	p, err := t.pf.Allocate()
	if err != nil {
		return err
	}
	d := p.Data()
	d[0] = tagInner
	setNodeCount(d, len(splits))
	putChildAt(d, 0, t.root)
	for i, s := range splits {
		putKeyAt(d, innerKeysOff, i, s.sep)
		putChildAt(d, i+1, s.right)
	}
	p.MarkDirty()
	t.setRoot(p.ID())
	t.pf.Release(p)
	return nil
}

// mutate applies one insert (del=false) or delete (del=true) of k under
// page id, depth internal levels below the root, returning whether the
// tree changed and the right siblings the page split into (ascending,
// possibly several for a bursting compressed leaf).
func (t *Tree) mutate(id pagefile.PageID, k Key, del bool, depth int) (changed bool, splits []splitRef, err error) {
	p, err := t.get(id)
	if err != nil {
		return false, nil, err
	}
	defer t.pf.Release(p)
	d := p.Data()

	switch nodeTag(d) {
	case tagLeaf:
		if del {
			n := nodeCount(d)
			i := searchKeys(d, leafKeysOff, n, k)
			if i >= n || Compare(keyAt(d, leafKeysOff, i), k) != 0 {
				return false, nil, nil
			}
			removeKeyAt(d, leafKeysOff, n, i)
			setNodeCount(d, n-1)
			p.MarkDirty()
			return true, nil, nil
		}
		return t.insertRawLeaf(p, k)

	case tagCompLeaf:
		return t.mutateCompLeaf(p, k, del)

	default: // internal node
		if depth == maxDepth {
			return false, nil, tooDeep(id)
		}
		n := nodeCount(d)
		ci := searchKeys(d, innerKeysOff, n, k)
		if ci < n && Compare(keyAt(d, innerKeysOff, ci), k) == 0 {
			ci++
		}
		changed, csplits, err := t.mutate(childAt(d, ci), k, del, depth+1)
		if err != nil || len(csplits) == 0 {
			return changed, nil, err
		}
		m := len(csplits)
		if n+m <= MaxInnerKeys {
			// In-place: shift keys [ci,n) and children [ci+1,n+1) right
			// by m, then write the new separators and children.
			copy(d[innerKeysOff+(ci+m)*keySize:innerKeysOff+(n+m)*keySize],
				d[innerKeysOff+ci*keySize:innerKeysOff+n*keySize])
			copy(d[childrenOff+4*(ci+1+m):childrenOff+4*(n+1+m)],
				d[childrenOff+4*(ci+1):childrenOff+4*(n+1)])
			for j, s := range csplits {
				putKeyAt(d, innerKeysOff, ci+j, s.sep)
				putChildAt(d, ci+1+j, s.right)
			}
			setNodeCount(d, n+m)
			p.MarkDirty()
			return changed, nil, nil
		}
		// Overflow: materialize the widened arrays and split the node
		// into as many internal nodes as needed, pushing one separator
		// up between each pair.
		keys := make([]Key, 0, n+m)
		children := make([]pagefile.PageID, 0, n+m+1)
		for i := 0; i < n; i++ {
			keys = append(keys, keyAt(d, innerKeysOff, i))
		}
		for i := 0; i <= n; i++ {
			children = append(children, childAt(d, i))
		}
		keys = append(keys, make([]Key, m)...)
		copy(keys[ci+m:], keys[ci:n])
		children = append(children, make([]pagefile.PageID, m)...)
		copy(children[ci+1+m:], children[ci+1:n+1])
		for j, s := range csplits {
			keys[ci+j] = s.sep
			children[ci+1+j] = s.right
		}
		splits, err := t.splitInternal(p, keys, children)
		return changed, splits, err
	}
}

// insertRawLeaf inserts k into the raw leaf p, splitting once when
// full — the pre-existing single-split path.
func (t *Tree) insertRawLeaf(p *pagefile.Page, k Key) (bool, []splitRef, error) {
	d := p.Data()
	n := nodeCount(d)
	i := searchKeys(d, leafKeysOff, n, k)
	if i < n && Compare(keyAt(d, leafKeysOff, i), k) == 0 {
		return false, nil, nil
	}
	if n < MaxLeafKeys {
		insertKeyAt(d, leafKeysOff, n, i, k)
		setNodeCount(d, n+1)
		p.MarkDirty()
		return true, nil, nil
	}
	// Split the leaf: left keeps [0:mid), right takes [mid:n); then
	// insert k into the proper half.
	rp, err := t.pf.Allocate()
	if err != nil {
		return false, nil, err
	}
	defer t.pf.Release(rp)
	rd := rp.Data()
	rd[0] = tagLeaf
	mid := n / 2
	moved := n - mid
	copy(rd[leafKeysOff:leafKeysOff+moved*keySize], d[leafKeysOff+mid*keySize:leafKeysOff+n*keySize])
	setNodeCount(rd, moved)
	setNodeCount(d, mid)
	setLeafNext(rd, leafNext(d))
	setLeafNext(d, rp.ID())
	sep := keyAt(rd, leafKeysOff, 0)
	if Less(k, sep) {
		insertKeyAt(d, leafKeysOff, mid, searchKeys(d, leafKeysOff, mid, k), k)
		setNodeCount(d, mid+1)
	} else {
		i := searchKeys(rd, leafKeysOff, moved, k)
		insertKeyAt(rd, leafKeysOff, moved, i, k)
		setNodeCount(rd, moved+1)
	}
	p.MarkDirty()
	rp.MarkDirty()
	return true, []splitRef{{sep: sep, right: rp.ID()}}, nil
}

// mutateCompLeaf applies an insert or delete to a compressed leaf:
// decode, modify, re-encode. When the re-encoded stream no longer fits
// the page, the key set is split into encodable halves — the first
// rewrites the page, the rest become new chained compressed leaves.
func (t *Tree) mutateCompLeaf(p *pagefile.Page, k Key, del bool) (bool, []splitRef, error) {
	d := p.Data()
	t.scratchKeys = decodeCompLeaf(d, t.scratchKeys)
	keys := t.scratchKeys
	i := 0
	for i < len(keys) && Less(keys[i], k) {
		i++
	}
	found := i < len(keys) && Compare(keys[i], k) == 0
	if del {
		if !found {
			return false, nil, nil
		}
		keys = append(keys[:i], keys[i+1:]...)
	} else {
		if found {
			return false, nil, nil
		}
		keys = append(keys, Key{})
		copy(keys[i+1:], keys[i:])
		keys[i] = k
	}
	t.scratchKeys = keys

	encodeLeafStream(&t.enc, keys)
	if t.enc.size() <= compLeafCap {
		writeCompLeaf(d, &t.enc)
		p.MarkDirty()
		return true, nil, nil
	}

	// Burst: halve recursively until every group encodes within a page.
	groups := t.splitEncodable(keys)
	next := leafNext(d)
	var splits []splitRef
	// Rewrite this page with the first group.
	encodeLeafStream(&t.enc, groups[0])
	writeCompLeaf(d, &t.enc)
	prev := p
	for gi := 1; gi < len(groups); gi++ {
		rp, err := t.pf.Allocate()
		if err != nil {
			return false, nil, err
		}
		encodeLeafStream(&t.enc, groups[gi])
		writeCompLeaf(rp.Data(), &t.enc)
		setLeafNext(prev.Data(), rp.ID())
		prev.MarkDirty()
		if prev != p {
			t.pf.Release(prev)
		}
		splits = append(splits, splitRef{sep: groups[gi][0], right: rp.ID()})
		prev = rp
	}
	setLeafNext(prev.Data(), next)
	prev.MarkDirty()
	if prev != p {
		t.pf.Release(prev)
	}
	return true, splits, nil
}

// splitInternal rewrites the overflowing internal node p (whose
// widened keys/children arrays are given; len(keys) > MaxInnerKeys)
// as several internal nodes, pushing one separator up between each
// pair. Children are distributed evenly, so every part keeps at least
// one key.
func (t *Tree) splitInternal(p *pagefile.Page, keys []Key, children []pagefile.PageID) ([]splitRef, error) {
	parts := (len(children) + MaxInnerKeys) / (MaxInnerKeys + 1)
	base := len(children) / parts
	extra := len(children) % parts
	var splits []splitRef
	idx := 0
	for part := 0; part < parts; part++ {
		cnt := base
		if part < extra {
			cnt++
		}
		node := p
		if part > 0 {
			rp, err := t.pf.Allocate()
			if err != nil {
				return nil, err
			}
			defer t.pf.Release(rp)
			node = rp
			splits = append(splits, splitRef{sep: keys[idx-1], right: rp.ID()})
		}
		d := node.Data()
		d[0] = tagInner
		group := children[idx : idx+cnt]
		groupKeys := keys[idx : idx+cnt-1]
		for i, c := range group {
			putChildAt(d, i, c)
		}
		for i, kk := range groupKeys {
			putKeyAt(d, innerKeysOff, i, kk)
		}
		setNodeCount(d, len(groupKeys))
		node.MarkDirty()
		idx += cnt
	}
	return splits, nil
}

// splitEncodable partitions keys into consecutive groups that each
// encode within a compressed leaf page, by recursive halving. Groups
// alias the input slice.
func (t *Tree) splitEncodable(keys []Key) [][]Key {
	if encodeLeafStream(&t.enc, keys); t.enc.size() <= compLeafCap {
		return [][]Key{keys}
	}
	mid := len(keys) / 2
	return append(t.splitEncodable(keys[:mid]), t.splitEncodable(keys[mid:])...)
}

// Scan streams every key in [lo, hi] to fn in ascending order, stopping
// early when fn returns false.
func (t *Tree) Scan(lo, hi Key, fn func(Key) bool) error {
	if t.root == pagefile.NilPage || Less(hi, lo) {
		return nil
	}
	// The leaf the descent reaches stays pinned into the walk along the
	// leaf chain; exactly one leaf is pinned at a time. A chain longer
	// than the file has pages loops.
	p, err := t.findLeaf(lo)
	if err != nil {
		return err
	}
	for leaves, pages := 1, 0; ; leaves++ {
		d := p.Data()
		more := scanLeaf(d, lo, hi, fn)
		next := leafNext(d)
		t.pf.Release(p)
		if !more || next == pagefile.NilPage {
			return nil
		}
		if pages == 0 {
			pages = t.pf.NumPages()
		}
		if leaves >= pages {
			return &CorruptPageError{Page: next, Reason: "the leaf chain loops"}
		}
		if p, err = t.get(next); err != nil {
			return err
		}
	}
}

// scanLeaf streams the keys of leaf payload d that lie in [lo, hi] to
// fn, reporting whether the scan goes on into the next leaf: false once
// a key above hi was seen or fn stopped it. A compressed leaf is
// entered at its last restart key <= lo, so the keys decoded but
// skipped below lo number less than restartEvery.
func scanLeaf(d []byte, lo, hi Key, fn func(Key) bool) bool {
	if nodeTag(d) == tagCompLeaf {
		for it := seekCompLeaf(d, lo); it.next(); {
			if Less(it.k, lo) {
				continue
			}
			if Less(hi, it.k) || !fn(it.k) {
				return false
			}
		}
		return true
	}
	n := nodeCount(d)
	for i := searchKeys(d, leafKeysOff, n, lo); i < n; i++ {
		if k := keyAt(d, leafKeysOff, i); Less(hi, k) || !fn(k) {
			return false
		}
	}
	return true
}

// ScanPrefix1 streams keys whose first component equals a.
func (t *Tree) ScanPrefix1(a uint64, fn func(Key) bool) error {
	return t.Scan(Key{a, 0, 0}, Key{a, ^uint64(0), ^uint64(0)}, fn)
}

// ScanPrefix2 streams keys whose first two components equal (a, b).
func (t *Tree) ScanPrefix2(a, b uint64, fn func(Key) bool) error {
	return t.Scan(Key{a, b, 0}, Key{a, b, ^uint64(0)}, fn)
}

// BulkBuild replaces the tree contents with the given strictly increasing
// key sequence, building leaves and internal levels bottom-up without
// per-key descents. With compression on (SetCompression) the leaves are
// delta+varint compressed pages, typically packing several raw pages'
// worth of keys each — the disk rendering of the block-compressed index
// layer. It returns an error if keys are not strictly increasing or the
// tree is not empty.
func (t *Tree) BulkBuild(keys []Key) error {
	return t.BulkBuildFunc(len(keys), func(i int) Key { return keys[i] })
}

// BulkBuildFunc is BulkBuild over the n keys key(0), ..., key(n-1), so
// that a caller can derive each key as the build takes it rather than
// hold them all in an array. key may be called more than once per index.
func (t *Tree) BulkBuildFunc(n int, key func(i int) Key) error {
	if t.root != pagefile.NilPage {
		return fmt.Errorf("btree: BulkBuild on non-empty tree")
	}
	if n == 0 {
		return nil
	}
	prev := key(0)
	for i := 1; i < n; i++ {
		k := key(i)
		if Compare(prev, k) >= 0 {
			return fmt.Errorf("btree: BulkBuild keys not strictly increasing at %d", i)
		}
		prev = k
	}

	type nodeRef struct {
		id  pagefile.PageID
		min Key // smallest key under this node, used as parent separator
	}

	var level []nodeRef
	var prevLeaf *pagefile.Page

	// flushLeaf writes one leaf page holding key(start), ...,
	// key(end-1): as the compressed leaf enc holds, or raw when enc is
	// nil.
	flushLeaf := func(start, end int, enc *leafEncoder) error {
		p, err := t.pf.Allocate()
		if err != nil {
			return err
		}
		d := p.Data()
		if enc != nil {
			writeCompLeaf(d, enc)
		} else {
			d[0] = tagLeaf
			for i := start; i < end; i++ {
				putKeyAt(d, leafKeysOff, i-start, key(i))
			}
			setNodeCount(d, end-start)
		}
		p.MarkDirty()
		if prevLeaf != nil {
			setLeafNext(prevLeaf.Data(), p.ID())
			prevLeaf.MarkDirty()
			t.pf.Release(prevLeaf)
		}
		prevLeaf = p
		level = append(level, nodeRef{id: p.ID(), min: key(start)})
		return nil
	}

	if t.compress {
		// Close a leaf before the key whose plain delta encoding would
		// cross ~90% of the page's byte budget, so subsequent inserts
		// re-encode in place instead of bursting. The restart keys and
		// table are paid from the remaining 10%, not from the key
		// budget; only ids of 2^49 and up in keys a few bytes apart can
		// outgrow that slack, and such a leaf closes when the page
		// itself is full.
		byteTarget := compLeafCap * 9 / 10
		enc := &t.enc
		enc.reset()
		start := 0
		for i := 0; i < n; i++ {
			k := key(i)
			before := *enc
			enc.add(k)
			if i > start && (enc.plain > byteTarget || enc.size() > compLeafCap) {
				*enc = before
				if err := flushLeaf(start, i, enc); err != nil {
					return err
				}
				start = i
				enc.reset()
				enc.add(k)
			}
		}
		if err := flushLeaf(start, n, enc); err != nil {
			return err
		}
	} else {
		// Fill raw leaves to ~90% so subsequent inserts do not
		// immediately split.
		target := MaxLeafKeys * 9 / 10
		if target < 1 {
			target = 1
		}
		for start := 0; start < n; start += target {
			end := min(start+target, n)
			if err := flushLeaf(start, end, nil); err != nil {
				return err
			}
		}
	}
	if prevLeaf != nil {
		t.pf.Release(prevLeaf)
	}

	// Build internal levels until a single root remains.
	fanout := (MaxInnerKeys + 1) * 9 / 10
	if fanout < 2 {
		fanout = 2
	}
	for len(level) > 1 {
		// Precompute group boundaries so no group has a single child (an
		// internal node needs at least one separator key). If the final
		// group would be a singleton, it borrows one node from the group
		// before it; fanout is large enough that the donor stays valid.
		var starts []int
		for s := 0; s < len(level); s += fanout {
			starts = append(starts, s)
		}
		if len(starts) > 1 && len(level)-starts[len(starts)-1] == 1 {
			starts[len(starts)-1]--
		}
		var next []nodeRef
		for gi, start := range starts {
			end := len(level)
			if gi+1 < len(starts) {
				end = starts[gi+1]
			}
			p, err := t.pf.Allocate()
			if err != nil {
				return err
			}
			d := p.Data()
			d[0] = tagInner
			group := level[start:end]
			putChildAt(d, 0, group[0].id)
			for i := 1; i < len(group); i++ {
				putKeyAt(d, innerKeysOff, i-1, group[i].min)
				putChildAt(d, i, group[i].id)
			}
			setNodeCount(d, len(group)-1)
			p.MarkDirty()
			next = append(next, nodeRef{id: p.ID(), min: group[0].min})
			t.pf.Release(p)
		}
		level = next
	}
	t.setRoot(level[0].id)
	t.setCount(uint64(n))
	return nil
}

// Depth returns the height of the tree (0 when empty, 1 for a lone leaf).
// It is used by tests and diagnostics.
func (t *Tree) Depth() (int, error) {
	if t.root == pagefile.NilPage {
		return 0, nil
	}
	id := t.root
	for depth := 1; ; depth++ {
		p, err := t.get(id)
		if err != nil {
			return 0, err
		}
		d := p.Data()
		if tag := nodeTag(d); tag == tagLeaf || tag == tagCompLeaf {
			t.pf.Release(p)
			return depth, nil
		}
		if depth > maxDepth {
			t.pf.Release(p)
			return 0, tooDeep(id)
		}
		id = childAt(d, 0)
		t.pf.Release(p)
	}
}

// CheckInvariants validates structural invariants — key ordering within
// nodes, separator correctness, leaf-chain ordering, and the persisted
// count — returning a descriptive error on the first violation. Tests and
// the disk store's integrity checker call this.
func (t *Tree) CheckInvariants() error {
	if t.root == pagefile.NilPage {
		if t.count != 0 {
			return fmt.Errorf("btree: empty tree but count = %d", t.count)
		}
		return nil
	}
	var (
		seen    uint64
		last    Key
		hasLast bool
	)
	var walk func(id pagefile.PageID, lo, hi *Key, depth int) error
	walk = func(id pagefile.PageID, lo, hi *Key, depth int) error {
		p, err := t.get(id)
		if err != nil {
			return err
		}
		defer t.pf.Release(p)
		d := p.Data()
		n := nodeCount(d)
		checkLeafKey := func(i int, k Key) error {
			if hasLast && Compare(last, k) >= 0 {
				return fmt.Errorf("btree: leaf %d key %d out of order", id, i)
			}
			if lo != nil && Less(k, *lo) {
				return fmt.Errorf("btree: leaf %d key %d below separator", id, i)
			}
			if hi != nil && !Less(k, *hi) {
				return fmt.Errorf("btree: leaf %d key %d above separator", id, i)
			}
			last, hasLast = k, true
			seen++
			return nil
		}
		switch nodeTag(d) {
		case tagLeaf:
			for i := 0; i < n; i++ {
				if err := checkLeafKey(i, keyAt(d, leafKeysOff, i)); err != nil {
					return err
				}
			}
			return nil
		case tagCompLeaf:
			if err := checkCompLeaf(d); err != nil {
				return fmt.Errorf("btree: compressed leaf %d: %w", id, err)
			}
			for it := iterCompLeaf(d); it.next(); {
				if err := checkLeafKey(it.i-1, it.k); err != nil {
					return err
				}
			}
			return nil
		default: // tagInner: get let no other tag through
			if n < 1 {
				return fmt.Errorf("btree: internal node %d has no keys", id)
			}
			if depth == maxDepth {
				return tooDeep(id)
			}
			for i := 0; i < n; i++ {
				k := keyAt(d, innerKeysOff, i)
				if i > 0 && Compare(keyAt(d, innerKeysOff, i-1), k) >= 0 {
					return fmt.Errorf("btree: internal %d keys out of order at %d", id, i)
				}
			}
			for i := 0; i <= n; i++ {
				clo, chi := lo, hi
				if i > 0 {
					k := keyAt(d, innerKeysOff, i-1)
					clo = &k
				}
				if i < n {
					k := keyAt(d, innerKeysOff, i)
					chi = &k
				}
				if err := walk(childAt(d, i), clo, chi, depth+1); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if err := walk(t.root, nil, nil, 0); err != nil {
		return err
	}
	if seen != t.count {
		return fmt.Errorf("btree: count = %d but tree holds %d keys", t.count, seen)
	}
	return nil
}
