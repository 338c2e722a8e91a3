package govern

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestMeterGrowShrinkPeak(t *testing.T) {
	m := NewMeter(200)
	if err := m.Grow(80); err != nil {
		t.Fatalf("Grow(80): %v", err)
	}
	if err := m.Grow(120); err != nil {
		t.Fatalf("Grow(120) to exactly the limit: %v", err)
	}
	m.Shrink(160)
	if got := m.Used(); got != 40 {
		t.Fatalf("Used = %d, want 40", got)
	}
	if got := m.Peak(); got != 200 {
		t.Fatalf("Peak = %d, want 200", got)
	}
	// The limit: 40 + 161 > 200 fails, accounting unchanged.
	err := m.Grow(161)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Grow over the limit = %v, want ErrBudgetExceeded", err)
	}
	if got := m.Used(); got != 40 {
		t.Fatalf("failed Grow must not account: Used = %d, want 40", got)
	}
}

func TestMeterNilSafe(t *testing.T) {
	var m *Meter
	if err := m.Grow(1 << 40); err != nil {
		t.Fatalf("nil meter Grow: %v", err)
	}
	m.Shrink(5)
	if m.Used() != 0 || m.Peak() != 0 {
		t.Fatalf("nil meter must report zeroes")
	}
}

func TestMeterConcurrent(t *testing.T) {
	m := NewMeter(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if err := m.Grow(3); err != nil {
					t.Error(err)
					return
				}
				m.Shrink(1)
			}
		}()
	}
	wg.Wait()
	if got := m.Used(); got != 8*1000*2 {
		t.Fatalf("Used = %d, want %d", got, 8*1000*2)
	}
	if m.Peak() < m.Used() {
		t.Fatalf("Peak %d < Used %d", m.Peak(), m.Used())
	}
}

func TestGovernorUnlimited(t *testing.T) {
	g := New(Config{})
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if got := g.Stats().Active; got != 1 {
		t.Fatalf("Active = %d, want 1", got)
	}
	rel()
	if got := g.Stats().Active; got != 0 {
		t.Fatalf("Active after release = %d, want 0", got)
	}
}

func TestGovernorRejectsAtCapacity(t *testing.T) {
	g := New(Config{MaxConcurrent: 1}) // MaxQueue 0: reject on arrival
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	if _, err := g.Acquire(context.Background()); !errors.Is(err, ErrRejected) {
		t.Fatalf("second Acquire = %v, want ErrRejected", err)
	}
	rel()
	rel2, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("Acquire after release: %v", err)
	}
	rel2()
	st := g.Stats()
	if st.Admitted != 2 || st.Rejected != 1 {
		t.Fatalf("Admitted/Rejected = %d/%d, want 2/1", st.Admitted, st.Rejected)
	}
}

func TestGovernorQueueTimeout(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: 20 * time.Millisecond})
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	defer rel()
	start := time.Now()
	if _, err := g.Acquire(context.Background()); !errors.Is(err, ErrRejected) {
		t.Fatalf("queued Acquire = %v, want ErrRejected", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("queue timeout fired after %s, want ~20ms", d)
	}
}

func TestGovernorQueueDeadlineAware(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: time.Minute})
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	defer rel()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := g.Acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Acquire = %v, want DeadlineExceeded", err)
	}
}

func TestGovernorQueueAdmitsWhenFreed(t *testing.T) {
	g := New(Config{MaxConcurrent: 1, MaxQueue: 4, QueueTimeout: time.Minute})
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		rel2, err := g.Acquire(context.Background())
		if err == nil {
			rel2()
		}
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	rel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued Acquire: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatalf("queued Acquire never admitted after release")
	}
}

func TestObserveCounters(t *testing.T) {
	var logged []string
	g := New(Config{SlowQuery: time.Millisecond, Logf: func(f string, a ...any) {
		logged = append(logged, f)
	}})
	m := NewMeter(20)
	g.Observe("SELECT 1", 5*time.Millisecond, nil, m)
	g.Observe("SELECT 2", 0, context.Canceled, nil)
	g.Observe("SELECT 3", 0, context.DeadlineExceeded, nil)
	g.Observe("SELECT 4", 0, ErrBudgetExceeded, nil)
	st := g.Stats()
	if st.Canceled != 2 {
		t.Fatalf("Canceled = %d, want 2", st.Canceled)
	}
	if st.BudgetKills != 1 {
		t.Fatalf("BudgetKills = %d, want 1", st.BudgetKills)
	}
	if st.SlowQueries != 1 || len(logged) != 1 {
		t.Fatalf("SlowQueries = %d (%d log lines), want 1/1", st.SlowQueries, len(logged))
	}
}

func TestTruncate(t *testing.T) {
	if got := truncate(strings.Repeat("x", 300), 200); len(got) != 203 {
		t.Fatalf("truncate length = %d, want 203", len(got))
	}
}

func TestNilGovernor(t *testing.T) {
	var g *Governor
	rel, err := g.Acquire(context.Background())
	if err != nil {
		t.Fatalf("nil governor Acquire: %v", err)
	}
	rel()
	g.Observe("q", 0, nil, nil)
	if g.Stats() != (Stats{}) {
		t.Fatalf("nil governor stats must be zero")
	}
}
