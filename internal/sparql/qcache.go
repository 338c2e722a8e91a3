package sparql

// The repeated-query fast path: an LRU plan cache keyed on query shape
// and an LRU, byte-capped result cache keyed on shape + constants +
// output names, validated against the snapshot epoch of the pinned
// graph state (graph.Epocher).
//
// Correctness contract of the result cache: an entry is served only when
// the epoch token read from the *pinned snapshot* of the current
// evaluation equals the token the entry was filled under. Backends bump
// the token on every content change (the delta overlay on every publish,
// the stores on every Add/Remove), so publish-on-write invalidates
// exactly; content-preserving reorganizations (overlay compaction) keep
// the token and cached answers validly survive them.

import (
	"container/list"
	"sync"
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

// planEntry is one memoized plan: the join order and access-path hints
// of every union branch of a shape, valid for one statistics epoch.
type planEntry struct {
	epoch   uint64
	orders  [][]int
	hints   [][]stepHint
	numPats []int // per-branch pattern count, guards against collisions
}

// planCache is a mutex-guarded LRU of shape → planEntry.
type planCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recent; values are *planNode
	items     map[string]*list.Element
	evictions uint64
}

type planNode struct {
	key   string
	entry *planEntry
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		return nil
	}
	return &planCache{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the memoized order and hints for one branch of shape, or
// ok=false when absent, built under a different statistics epoch, or
// structurally incompatible (defensive: a shape collision cannot happen
// with the canonical walk, but a wrong plan must never be applied).
func (c *planCache) get(shape string, branch, numPats int, epoch uint64) (order []int, hints []stepHint, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[shape]
	if !found {
		return nil, nil, false
	}
	n := el.Value.(*planNode)
	if n.entry.epoch != epoch {
		// Stale statistics: drop the whole shape, the caller replans.
		c.ll.Remove(el)
		delete(c.items, shape)
		return nil, nil, false
	}
	if branch >= len(n.entry.orders) || n.entry.orders[branch] == nil || n.entry.numPats[branch] != numPats {
		return nil, nil, false
	}
	c.ll.MoveToFront(el)
	return n.entry.orders[branch], n.entry.hints[branch], true
}

// put memoizes the plan of one branch of shape under epoch.
func (c *planCache) put(shape string, branch, numPats int, epoch uint64, order []int, hints []stepHint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[shape]
	var e *planEntry
	if found {
		e = el.Value.(*planNode).entry
		if e.epoch != epoch {
			*e = planEntry{epoch: epoch}
		}
		c.ll.MoveToFront(el)
	} else {
		e = &planEntry{epoch: epoch}
		el = c.ll.PushFront(&planNode{key: shape, entry: e})
		c.items[shape] = el
		for c.ll.Len() > c.cap {
			back := c.ll.Back()
			c.ll.Remove(back)
			delete(c.items, back.Value.(*planNode).key)
			c.evictions++
		}
	}
	for branch >= len(e.orders) {
		e.orders = append(e.orders, nil)
		e.hints = append(e.hints, nil)
		e.numPats = append(e.numPats, 0)
	}
	e.orders[branch] = order
	e.hints[branch] = hints
	e.numPats[branch] = numPats
}

func (c *planCache) snapshot() (entries int, capacity int, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.cap, c.evictions
}

// resultCache is a mutex-guarded, byte-capped LRU of resultKey → Result,
// tagged with the snapshot epoch the answer was computed under. An epoch
// change purges the cache eagerly (publish-on-write invalidates exactly)
// — entries of a superseded epoch could never be served again anyway,
// but dropping them immediately returns their bytes.
type resultCache struct {
	mu         sync.Mutex
	capBytes   int64
	bytes      int64
	ll         *list.List // values are *resultNode
	items      map[string]*list.Element
	epoch      string // epoch of every resident entry
	evictions  uint64
	epochChurn uint64
}

type resultNode struct {
	key  string
	res  Result // columnar only (Rows nil); immutable once cached
	size int64
}

func newResultCache(capBytes int64) *resultCache {
	if capBytes <= 0 {
		return nil
	}
	return &resultCache{capBytes: capBytes, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached result for key at epoch: a private header over
// the shared, immutable id array — no cell or row is copied. The
// caller may fill or sort its own header (fillRows, SortRows build fresh
// slices); nothing reachable from it may be written in place.
func (c *resultCache) get(key, epoch string) (*Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != epoch {
		return nil, false
	}
	el, found := c.items[key]
	if !found {
		return nil, false
	}
	c.ll.MoveToFront(el)
	res := el.Value.(*resultNode).res
	return &res, true
}

// put caches res — straight from the evaluator, so columnar only — for
// key at epoch; size is what the entry retains (resultFootprint plus the
// key and entry overhead). The cells are shared, never copied. A put
// under a new epoch first purges every resident entry (they belong to a
// superseded state) and counts one epoch churn.
func (c *resultCache) put(key, epoch string, res *Result, size int64) {
	if size > c.capBytes {
		return // larger than the whole cache: not worth purging for
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.epoch != epoch {
		if c.ll.Len() > 0 {
			c.ll.Init()
			c.items = make(map[string]*list.Element)
			c.bytes = 0
		}
		if c.epoch != "" {
			c.epochChurn++
		}
		c.epoch = epoch
	}
	if el, found := c.items[key]; found {
		n := el.Value.(*resultNode)
		c.bytes += size - n.size
		n.res, n.size = *res, size
		c.ll.MoveToFront(el)
	} else {
		el := c.ll.PushFront(&resultNode{key: key, res: *res, size: size})
		c.items[key] = el
		c.bytes += size
	}
	for c.bytes > c.capBytes && c.ll.Len() > 1 {
		back := c.ll.Back()
		n := back.Value.(*resultNode)
		c.ll.Remove(back)
		delete(c.items, n.key)
		c.bytes -= n.size
		c.evictions++
	}
}

func (c *resultCache) snapshot() (entries int, bytes, capBytes int64, evictions, churn uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items), c.bytes, c.capBytes, c.evictions, c.epochChurn
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
	StatsEpoch    uint64

	ResultEnabled   bool
	ResultEntries   int
	ResultBytes     int64
	ResultCapBytes  int64
	ResultHits      uint64
	ResultMisses    uint64
	ResultEvictions uint64
	EpochChurn      uint64
}
