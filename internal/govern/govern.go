// Package govern is the query governor: the resource-control layer that
// keeps one pathological query from taking the whole process down with
// it. It has three independent pieces that the execution layers compose:
//
//   - Meter: per-query byte accounting of what the engine holds. One
//     limit turns would-be OOMs into a typed ErrBudgetExceeded the
//     serving tier can map to a clean 503.
//
//   - Governor: server-level admission control — a concurrency gate with
//     a bounded, deadline-aware wait queue. Excess load queues briefly
//     and then sheds with ErrRejected instead of stacking goroutines
//     without bound.
//
//   - Counters: the governor aggregates per-query outcomes (canceled,
//     budget kills, slow queries) for /stats, and owns the
//     slow-query log.
//
// The package is deliberately dependency-free (stdlib only) so every
// layer — sparql, server, facade, cmds — can import it without cycles.
package govern

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"
)

// ErrBudgetExceeded is returned (possibly wrapped) when a query's memory
// accounting would cross its limit. Callers match it with errors.Is; the HTTP layer maps it to
// 503 + Retry-After.
var ErrBudgetExceeded = errors.New("query memory budget exceeded")

// ErrRejected is returned by Governor.Acquire when the server is at
// capacity and the wait queue is full or the wait timed out. The HTTP
// layer maps it to 503 + Retry-After.
var ErrRejected = errors.New("server at query capacity")

// Meter accounts one query's engine-resident bytes, and every method is
// safe on a nil receiver (accounting simply vanishes), so call sites
// never branch.
//
// Grow fails with ErrBudgetExceeded once accounting would cross the
// limit. It is an advisory byte count, not allocator truth — the engine
// reports 8 bytes per binding-table cell of its pieces and fetched lists
// plus result-row estimates, which tracks the dominant allocations.
type Meter struct {
	limit int64
	used  atomic.Int64
	peak  atomic.Int64
}

// NewMeter returns a meter that fails growth past limit bytes; limit <= 0
// means "never fail", which still measures the peak.
func NewMeter(limit int64) *Meter {
	return &Meter{limit: limit}
}

// Grow accounts n more live bytes. It fails with an error wrapping
// ErrBudgetExceeded if the new total would cross the limit; the
// accounting is NOT applied on failure.
func (m *Meter) Grow(n int64) error {
	if m == nil || n == 0 {
		return nil
	}
	for {
		cur := m.used.Load()
		next := cur + n
		if m.limit > 0 && next > m.limit {
			return fmt.Errorf("%w: %d bytes needed, limit %d", ErrBudgetExceeded, next, m.limit)
		}
		if m.used.CompareAndSwap(cur, next) {
			for {
				p := m.peak.Load()
				if next <= p || m.peak.CompareAndSwap(p, next) {
					return nil
				}
			}
		}
	}
}

// Shrink releases n previously grown bytes.
func (m *Meter) Shrink(n int64) {
	if m == nil || n == 0 {
		return
	}
	m.used.Add(-n)
}

// Used returns the currently accounted live bytes.
func (m *Meter) Used() int64 {
	if m == nil {
		return 0
	}
	return m.used.Load()
}

// Peak returns the high-water mark of accounted live bytes.
func (m *Meter) Peak() int64 {
	if m == nil {
		return 0
	}
	return m.peak.Load()
}

// Config parameterizes a Governor.
type Config struct {
	// MaxConcurrent caps queries executing at once; <= 0 means
	// unlimited (admission control off, counters still collected).
	MaxConcurrent int
	// MaxQueue bounds how many queries may wait for a slot; arrivals
	// beyond it are rejected immediately. <= 0 disables queueing:
	// a full server rejects on arrival.
	MaxQueue int
	// QueueTimeout bounds how long a queued query waits for a slot
	// before ErrRejected. The wait is additionally deadline-aware: a
	// context that expires sooner ends the wait with the context's
	// error. <= 0 with MaxQueue > 0 means "wait until ctx expires".
	QueueTimeout time.Duration
	// SlowQuery logs queries (via Logf) whose total latency meets or
	// exceeds it; 0 disables the slow-query log.
	SlowQuery time.Duration
	// Logf receives slow-query lines; nil discards them.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time snapshot of governor counters for /stats.
type Stats struct {
	MaxConcurrent int   `json:"maxConcurrent"`
	Active        int64 `json:"active"`
	Queued        int64 `json:"queued"`
	Admitted      int64 `json:"admitted"`
	Rejected      int64 `json:"rejected"`
	Canceled      int64 `json:"canceled"`
	BudgetKills   int64 `json:"budgetKills"`
	SlowQueries   int64 `json:"slowQueries"`
}

// Governor is the server-side admission controller and per-query
// outcome aggregator. All methods are safe for concurrent use.
type Governor struct {
	cfg Config
	sem chan struct{}

	active      atomic.Int64
	queued      atomic.Int64
	admitted    atomic.Int64
	rejected    atomic.Int64
	canceled    atomic.Int64
	budgetKills atomic.Int64
	slow        atomic.Int64
}

// New returns a governor for cfg.
func New(cfg Config) *Governor {
	g := &Governor{cfg: cfg}
	if cfg.MaxConcurrent > 0 {
		g.sem = make(chan struct{}, cfg.MaxConcurrent)
	}
	return g
}

// Acquire admits one query, blocking in the bounded wait queue when the
// server is at capacity. On success it returns a release func the
// caller must invoke exactly once when the query finishes. It fails
// with ErrRejected (queue full or wait timed out) or the context's
// error (caller gone or deadline passed while queued).
func (g *Governor) Acquire(ctx context.Context) (release func(), err error) {
	if g == nil || g.sem == nil {
		if g != nil {
			g.admitted.Add(1)
			g.active.Add(1)
			return func() { g.active.Add(-1) }, nil
		}
		return func() {}, nil
	}
	select {
	case g.sem <- struct{}{}:
		g.admitted.Add(1)
		g.active.Add(1)
		return g.release, nil
	default:
	}
	// At capacity: join the bounded queue.
	if g.cfg.MaxQueue <= 0 || g.queued.Load() >= int64(g.cfg.MaxQueue) {
		g.rejected.Add(1)
		return nil, fmt.Errorf("%w: %d active", ErrRejected, g.cfg.MaxConcurrent)
	}
	g.queued.Add(1)
	defer g.queued.Add(-1)

	var timeout <-chan time.Time
	if g.cfg.QueueTimeout > 0 {
		t := time.NewTimer(g.cfg.QueueTimeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case g.sem <- struct{}{}:
		g.admitted.Add(1)
		g.active.Add(1)
		return g.release, nil
	case <-timeout:
		g.rejected.Add(1)
		return nil, fmt.Errorf("%w: queue wait exceeded %s", ErrRejected, g.cfg.QueueTimeout)
	case <-ctx.Done():
		g.rejected.Add(1)
		return nil, ctx.Err()
	}
}

func (g *Governor) release() {
	g.active.Add(-1)
	<-g.sem
}

// Observe records one finished query's outcome: its error class feeds
// the canceled/budget-kill counters, and queries at or over the slow-query threshold are logged. query is
// truncated for the log; m may be nil. Optional detail strings (e.g.
// the query trace's most expensive spans) are appended to the
// slow-query line so the log explains the latency, not just reports it.
func (g *Governor) Observe(query string, d time.Duration, err error, m *Meter, detail ...string) {
	if g == nil {
		return
	}
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		g.canceled.Add(1)
	case errors.Is(err, ErrBudgetExceeded):
		g.budgetKills.Add(1)
	}
	if g.cfg.SlowQuery > 0 && d >= g.cfg.SlowQuery {
		g.slow.Add(1)
		if g.cfg.Logf != nil {
			outcome := "ok"
			if err != nil {
				outcome = err.Error()
			}
			extra := ""
			for _, dt := range detail {
				if dt != "" {
					extra += " [" + dt + "]"
				}
			}
			g.cfg.Logf("slow query (%s, peak %dB, %s): %s%s",
				d.Round(time.Millisecond), m.Peak(), outcome, truncate(query, 200), extra)
		}
	}
}

// Stats returns a snapshot of the counters.
func (g *Governor) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	return Stats{
		MaxConcurrent: g.cfg.MaxConcurrent,
		Active:        g.active.Load(),
		Queued:        g.queued.Load(),
		Admitted:      g.admitted.Load(),
		Rejected:      g.rejected.Load(),
		Canceled:      g.canceled.Load(),
		BudgetKills:   g.budgetKills.Load(),
		SlowQueries:   g.slow.Load(),
	}
}

// truncate shortens s to at most n bytes for log lines.
func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "..."
}
