package sparql

// The repeated-query fast path: an LRU plan cache keyed on query shape
// and a byte-capped result cache keyed on shape + constants + output
// names, validated against the snapshot epoch of the pinned graph state
// (graph.Epocher).
//
// Correctness contract of the result cache: an entry is served only when
// the epoch token read from the *pinned snapshot* of the current
// evaluation equals the token the entry was filled under. Backends bump
// the token on every content change (the delta overlay on every publish,
// the stores on every Add/Remove), so publish-on-write invalidates
// exactly; content-preserving reorganizations (overlay compaction) keep
// the token and cached answers validly survive them.

import (
	"bytes"
	"encoding/binary"
	"hash/maphash"
	"sync"
	"unsafe"

	"hexastore/internal/core"
	"hexastore/internal/dictionary"
	"hexastore/internal/rdf"
)

// stepHint is the memoized per-step access-path choice of the cost-based
// planner: for a filter step with one join column, whether the expected
// candidate list is small enough to fetch whole (merge/intersect) or so
// much larger than the binding table that per-row existence probes win.
// Hints are advisory — the batch engine produces identical rows either
// way — so serving a hint computed for different constants of the same
// shape can cost speed, never correctness.
type stepHint uint8

const (
	hintNone stepHint = iota
	hintMerge
	hintProbe
)

// probeHintFactor: prefer per-row probes once the estimated candidate
// list outnumbers the estimated binding table by this factor (fetching
// the list is linear in its length; probing is one indexed lookup per
// row).
const probeHintFactor = 8

// planEntry is one memoized plan: the join order, access-path hints and
// per-step estimates of every union branch of a shape, and the triple
// count they were priced at.
type planEntry struct {
	priced  int
	orders  [][]int
	hints   [][]stepHint
	ests    [][]float64
	numPats []int // per-branch pattern count, guards against collisions
}

// planCache is a mutex-guarded LRU of shape → planEntry, its nodes on
// a ring through root: root.next is the most recent, root.prev the least.
type planCache struct {
	mu        sync.Mutex
	cap       int
	root      planNode
	items     map[string]*planNode
	evictions uint64
}

type planNode struct {
	key        string
	entry      planEntry
	prev, next *planNode
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		return nil
	}
	c := &planCache{cap: capacity, items: make(map[string]*planNode)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

func (c *planCache) unlink(n *planNode) { n.prev.next, n.next.prev = n.next, n.prev }

func (c *planCache) pushFront(n *planNode) {
	n.prev, n.next = &c.root, c.root.next
	n.next.prev = n
	c.root.next = n
}

// get returns the memoized order, hints and estimates for one branch of
// shape, or ok=false when absent, structurally incompatible (defensive:
// a shape collision cannot happen with the canonical walk, but a wrong
// plan must never be applied), or priced at a count the snapshot's size
// has moved from by a tenth or more. Stale counts only degrade join
// ordering, never correctness, so a plan survives smaller drift; any
// change to an empty store's size counts.
func (c *planCache) get(shape string, branch, numPats, size int) (order []int, hints []stepHint, ests []float64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, found := c.items[shape]
	if !found {
		return nil, nil, nil, false
	}
	e := &n.entry
	if d := size - e.priced; d != 0 && 10*max(d, -d) >= e.priced {
		// Priced on a store that is no more: drop the whole shape, the
		// caller replans.
		c.unlink(n)
		delete(c.items, shape)
		return nil, nil, nil, false
	}
	if branch >= len(e.orders) || e.orders[branch] == nil || e.numPats[branch] != numPats {
		return nil, nil, nil, false
	}
	c.unlink(n)
	c.pushFront(n)
	return e.orders[branch], e.hints[branch], e.ests[branch], true
}

// put memoizes the plan of one branch of shape, priced at size triples
// (or, for a later branch of a shape already held, at the count its
// first branch was priced at, which get kept).
func (c *planCache) put(shape string, branch, numPats, size int, order []int, hints []stepHint, ests []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, found := c.items[shape]
	if found {
		c.unlink(n)
	} else {
		n = &planNode{key: shape, entry: planEntry{priced: size}}
		c.items[shape] = n
	}
	c.pushFront(n)
	for len(c.items) > c.cap {
		back := c.root.prev
		c.unlink(back)
		delete(c.items, back.key)
		c.evictions++
	}
	e := &n.entry
	for branch >= len(e.orders) {
		e.orders = append(e.orders, nil)
		e.hints = append(e.hints, nil)
		e.ests = append(e.ests, nil)
		e.numPats = append(e.numPats, 0)
	}
	e.orders[branch] = order
	e.hints[branch] = hints
	e.ests[branch] = ests
	e.numPats[branch] = numPats
}

func (c *planCache) snapshot() (entries int, capacity int, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.cap, c.evictions
}

// resultCache is a mutex-guarded, byte-capped cache of result key →
// answer, valid for one snapshot epoch and one dictionary at a time. It
// holds no Go pointer per answer: each answer is copied, as one record,
// into an append-only segment — a []uint64, which the GC does not scan
// — and found through an open-addressing index of (key hash, location)
// slot pairs, also a []uint64. A full cache is a few dozen heap objects
// however many answers it holds.
//
// A hit hands out a Result whose cells alias the segment. A record is
// never written again, and eviction or a purge only drops the cache's
// reference to a segment, so a reader still serializing an answer keeps
// its segment alive. Eviction drops the oldest segment (FIFO); a record
// hit since it was written gets a second chance — it is copied into the
// segment being written, if that has room, and its hit mark cleared — so
// answers in use survive as they would under LRU (S3-FIFO, Yang et al.,
// SOSP 2023, makes the case for such a policy). An epoch change drops
// every segment and bumps the index generation, which empties every slot
// without touching the table.
//
// bytes counts the segments' capacity and the index, and capBytes bounds
// it: a segment holds at most three quarters of capBytes and the index at
// most a quarter, so the cache is within its cap whenever a put returns.
// A record larger than a segment may be is refused.
type resultCache struct {
	mu       sync.Mutex
	capBytes int64
	bytes    int64
	segCap   int // words a segment may hold; 0: the cap is too small to cache
	maxSeg   int // words of a full-size segment
	maxSlots int // slots the index may grow to

	segs    []rcSegment // oldest first; the last is the one written
	nextSeq uint64
	slots   []uint64 // slot i is slots[2i] (key hash) and slots[2i+1] (location)
	gen     uint64   // the index generation: a slot of another one is empty
	live    int

	epoch      string                 // epoch of every resident answer
	dict       *dictionary.Dictionary // the dictionary their ids decode through
	evictions  uint64
	epochChurn uint64
}

// rcSegment is a run of records, back to back from word 0; seq numbers
// segments in the order they were made.
type rcSegment struct {
	w    []uint64
	used int
	seq  uint64
}

// A slot's location word holds the generation, the hit mark, the
// segment's seq (mod 2^rcSeqBits) and the record's word offset. Fewer
// than 2^rcSeqBits segments are ever resident, so the seq names one.
const (
	rcOffBits  = 23
	rcSeqBits  = 16
	rcHit      = 1 << (rcOffBits + rcSeqBits)
	rcGenShift = rcOffBits + rcSeqBits + 1

	rcMinSlots    = 16
	rcMinSegWords = 512      // 4 KiB: the first segment of an epoch
	rcMaxSegWords = 32 << 10 // 256 KiB, or capBytes/2^14 if larger
)

// A record is rcHeaderWords words — the key's hash; the key's and the
// computed terms' byte lengths; the row count with the ASK flags; the
// computed-term and cell counts — then the cells, then the key bytes and
// the computed terms (a kind byte, a 4-byte length and the value each),
// padded to a word.
const (
	rcHeaderWords = 4
	rcAsk         = 1 << 63
	rcAnswer      = 1 << 62
)

func newResultCache(capBytes int64) *resultCache {
	if capBytes <= 0 {
		return nil
	}
	c := &resultCache{capBytes: capBytes, gen: 1}
	for n := rcMinSlots; int64(n)*16 <= capBytes/4; n *= 2 {
		c.maxSlots = n
	}
	if c.maxSlots >= rcMinSlots {
		c.segCap = int(min(capBytes/4*3/8, 1<<29))
		c.maxSeg = int(min(max(rcMaxSegWords, capBytes>>17), 1<<rcOffBits))
	}
	return c
}

// get returns the cached answer for key at epoch, whose ids decode
// through dict: a fresh header, naming vars (the caller's output names,
// which the key holds) over the cells in the cache's segment — no cell
// is copied. The caller may fill or sort its own header (fillRows,
// SortRows build fresh slices); nothing reachable from it may be written
// in place.
func (c *resultCache) get(key []byte, epoch string, dict *dictionary.Dictionary, vars []string) (*Result, bool) {
	h := maphash.Bytes(keySeed, key)
	c.mu.Lock()
	if c.epoch != epoch || c.dict != dict {
		c.mu.Unlock()
		return nil, false
	}
	i, found := c.find(h, key)
	if !found {
		c.mu.Unlock()
		return nil, false
	}
	c.slots[2*i+1] |= rcHit
	rec := c.record(c.slots[2*i+1])
	c.mu.Unlock()
	return readRecord(rec, vars, dict), true
}

// put copies res — straight from the evaluator, so columnar only — into
// the cache for key at epoch. A put under a new epoch or dictionary first
// purges every resident answer (they belong to a superseded state) and
// counts one epoch churn. A key already cached is left as it is: at one
// epoch, it names the same answer.
func (c *resultCache) put(key []byte, epoch string, dict *dictionary.Dictionary, res *Result) {
	words := recordWords(key, res)
	if words > c.segCap {
		return // larger than a segment may be: not worth purging for
	}
	h := maphash.Bytes(keySeed, key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != epoch || c.dict != dict {
		if c.epoch != "" {
			c.epochChurn++
		}
		c.purge()
		c.epoch, c.dict = epoch, dict
	}
	if _, found := c.find(h, key); found {
		return
	}
	for (c.live+1)*4 > len(c.slots)/2*3 {
		switch {
		case len(c.slots)/2 < c.maxSlots:
			c.grow()
		case len(c.segs) > 1:
			c.evictOldest()
		default:
			return
		}
	}
	seg := c.room(words)
	s := &c.segs[seg]
	off := s.used
	writeRecord(s.w[off:off+words], h, key, res)
	s.used += words
	c.insert(h, c.loc(s.seq, off))
	c.live++
	for c.bytes > c.capBytes && len(c.segs) > 1 {
		c.evictOldest()
	}
}

// find returns the slot holding key, whose hash is h, or ok=false.
func (c *resultCache) find(h uint64, key []byte) (slot int, ok bool) {
	if c.live == 0 {
		return 0, false
	}
	mask := len(c.slots)/2 - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		loc := c.slots[2*i+1]
		if loc>>rcGenShift != c.gen {
			return 0, false
		}
		if c.slots[2*i] == h && bytes.Equal(recordKey(c.record(loc)), key) {
			return i, true
		}
	}
}

// insert places a slot of hash h and location loc.
func (c *resultCache) insert(h, loc uint64) {
	mask := len(c.slots)/2 - 1
	i := int(h) & mask
	for c.slots[2*i+1]>>rcGenShift == c.gen {
		i = (i + 1) & mask
	}
	c.slots[2*i], c.slots[2*i+1] = h, loc
}

// remove empties slot i, shifting the slots of its probe run back over
// the hole so no lookup stops short of its key.
func (c *resultCache) remove(i int) {
	mask := len(c.slots)/2 - 1
	for j := i; ; {
		j = (j + 1) & mask
		loc := c.slots[2*j+1]
		if loc>>rcGenShift != c.gen {
			break
		}
		// The slot at j stays unless its home lies cyclically at or
		// before the hole.
		if home := int(c.slots[2*j]) & mask; (j-home)&mask < (j-i)&mask {
			continue
		}
		c.slots[2*i], c.slots[2*i+1] = c.slots[2*j], loc
		i = j
	}
	c.slots[2*i+1] = 0
}

// grow doubles the index.
func (c *resultCache) grow() {
	old := c.slots
	c.slots = make([]uint64, 2*max(len(old), rcMinSlots))
	c.bytes += int64(len(c.slots)-len(old)) * 8
	for i := 0; i < len(old); i += 2 {
		if old[i+1]>>rcGenShift == c.gen {
			c.insert(old[i], old[i+1])
		}
	}
}

func (c *resultCache) loc(seq uint64, off int) uint64 {
	return c.gen<<rcGenShift | seq&(1<<rcSeqBits-1)<<rcOffBits | uint64(off)
}

// slotOf returns the slot that locates the record at off in segment s.
func (c *resultCache) slotOf(h uint64, s *rcSegment, off int) int {
	want := c.loc(s.seq, off)
	mask := len(c.slots)/2 - 1
	i := int(h) & mask
	for c.slots[2*i+1]&^rcHit != want {
		i = (i + 1) & mask
	}
	return i
}

// record returns the words from the record at loc to its segment's end.
func (c *resultCache) record(loc uint64) []uint64 {
	seq := loc >> rcOffBits & (1<<rcSeqBits - 1)
	s := &c.segs[(seq-c.segs[0].seq)&(1<<rcSeqBits-1)]
	return s.w[loc&(1<<rcOffBits-1):]
}

// room returns the index of the segment to write a record of need words
// into, starting one when the last has no room: twice the last one's
// size up to maxSeg, and never less than need.
func (c *resultCache) room(need int) int {
	words := rcMinSegWords
	if n := len(c.segs); n > 0 {
		last := &c.segs[n-1]
		if len(last.w)-last.used >= need {
			return n - 1
		}
		words = 2 * len(last.w)
	}
	words = min(max(min(words, c.maxSeg), need), c.segCap)
	c.segs = append(c.segs, rcSegment{w: make([]uint64, words), seq: c.nextSeq})
	c.nextSeq++
	c.bytes += int64(words) * 8
	return len(c.segs) - 1
}

// evictOldest drops the oldest segment, which is not the last. A record
// hit since it was written moves to the last segment if that has room;
// every other one leaves the index.
func (c *resultCache) evictOldest() {
	old, last := &c.segs[0], &c.segs[len(c.segs)-1]
	for off := 0; off < old.used; {
		rec := old.w[off:]
		words := recordLen(rec)
		i := c.slotOf(rec[0], old, off)
		if c.slots[2*i+1]&rcHit != 0 && len(last.w)-last.used >= words {
			copy(last.w[last.used:], rec[:words])
			c.slots[2*i+1] = c.loc(last.seq, last.used)
			last.used += words
		} else {
			c.remove(i)
			c.live--
			c.evictions++
		}
		off += words
	}
	c.bytes -= int64(len(old.w)) * 8
	n := copy(c.segs, c.segs[1:])
	c.segs[n] = rcSegment{}
	c.segs = c.segs[:n]
}

// purge drops every segment and empties the index by moving to the next
// generation; the table is cleared only when the generation wraps.
func (c *resultCache) purge() {
	for _, s := range c.segs {
		c.bytes -= int64(len(s.w)) * 8
	}
	clear(c.segs)
	c.segs = c.segs[:0]
	c.live = 0
	if c.gen++; c.gen == 1<<(64-rcGenShift) {
		clear(c.slots)
		c.gen = 1
	}
}

func (c *resultCache) snapshot() (entries int, bytes, capBytes int64, evictions, churn uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.live, c.bytes, c.capBytes, c.evictions, c.epochChurn
}

// keySeed keys the result keys' hashes.
var keySeed = maphash.MakeSeed()

// recordWords is the size of res's record under key.
func recordWords(key []byte, res *Result) int {
	return rcHeaderWords + len(res.ids) + (len(key)+computedBytes(res.computed)+7)/8
}

// recordBytes is what caching res under key retains: its record and its
// index slot.
func recordBytes(key []byte, res *Result) int64 {
	return int64(recordWords(key, res))*8 + 16
}

func computedBytes(ts []rdf.Term) int {
	n := 0
	for _, t := range ts {
		n += 5 + len(t.Value)
	}
	return n
}

// recordLen returns the words of the record rec starts with.
func recordLen(rec []uint64) int {
	return rcHeaderWords + int(uint32(rec[3])) + (int(rec[1]>>32)+int(uint32(rec[1]))+7)/8
}

// recordKey returns the key bytes of the record rec starts with.
func recordKey(rec []uint64) []byte {
	return wordBytes(rec[rcHeaderWords+int(uint32(rec[3])):])[:rec[1]>>32]
}

func writeRecord(w []uint64, h uint64, key []byte, res *Result) {
	w[0] = h
	w[1] = uint64(len(key))<<32 | uint64(computedBytes(res.computed))
	w[2] = uint64(res.n)
	if res.IsAsk {
		w[2] |= rcAsk
	}
	if res.Answer {
		w[2] |= rcAnswer
	}
	w[3] = uint64(len(res.computed))<<32 | uint64(len(res.ids))
	copy(w[rcHeaderWords:], unsafe.Slice((*uint64)(unsafe.SliceData(res.ids)), len(res.ids)))
	b := wordBytes(w[rcHeaderWords+len(res.ids):])
	n := copy(b, key)
	for _, t := range res.computed {
		b[n] = byte(t.Kind)
		binary.LittleEndian.PutUint32(b[n+1:], uint32(len(t.Value)))
		n += 5 + copy(b[n+5:], t.Value)
	}
}

// readRecord returns a Result over the record rec starts with. Its cells
// and computed terms' values alias rec; the header, and a computed-term
// table when there is one, are all it allocates.
func readRecord(rec []uint64, vars []string, dict *dictionary.Dictionary) *Result {
	cells, computed := int(uint32(rec[3])), int(rec[3]>>32)
	r := &Result{
		Vars:   vars,
		IsAsk:  rec[2]&rcAsk != 0,
		Answer: rec[2]&rcAnswer != 0,
		n:      int(rec[2] &^ (rcAsk | rcAnswer)),
	}
	if cells > 0 {
		r.ids = unsafe.Slice((*core.ID)(&rec[rcHeaderWords]), cells)
	}
	if computed > 0 {
		b := wordBytes(rec[rcHeaderWords+cells:])[rec[1]>>32:]
		r.computed = make([]rdf.Term, computed)
		for i := range r.computed {
			v := b[5 : 5+binary.LittleEndian.Uint32(b[1:])]
			r.computed[i] = rdf.Term{Kind: rdf.TermKind(b[0]), Value: unsafe.String(unsafe.SliceData(v), len(v))}
			b = b[5+len(v):]
		}
	}
	// Ids are assigned append-only and never reused, so the dictionary's
	// term table as it stands now covers every cell of the answer.
	snap := dict.Snapshot()
	r.terms = snap.View()
	return r
}

func wordBytes(w []uint64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(w))), 8*len(w))
}

// CacheStats is a point-in-time snapshot of a Planner's plan- and
// result-cache counters, surfaced through /stats and /metrics.
type CacheStats struct {
	PlanEnabled   bool
	PlanEntries   int
	PlanCapacity  int
	PlanHits      uint64
	PlanMisses    uint64
	PlanEvictions uint64

	ResultEnabled   bool
	ResultEntries   int
	ResultBytes     int64
	ResultCapBytes  int64
	ResultHits      uint64
	ResultMisses    uint64
	ResultEvictions uint64
	EpochChurn      uint64
}
