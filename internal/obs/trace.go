// Package obs is the engine's dependency-free observability layer: a
// nil-safe span tree for per-query execution traces (the EXPLAIN /
// EXPLAIN ANALYZE backbone) and a small Prometheus-text metrics
// registry (counters, gauges, fixed log-scale histograms) for the
// /metrics endpoint.
//
// Everything here is stdlib-only and safe for concurrent use. The
// tracing half is designed around a nil fast path: every Span method is
// a no-op on a nil receiver, so instrumented code threads a *Span
// unconditionally and pays one predictable nil check when tracing is
// off — the batch engine's per-row loops never touch a span at all,
// only per-step bookkeeping does.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Trace is the root of a per-query span tree. It is the same type as
// Span — the distinction is purely positional (a Trace is the span
// whose duration covers the whole query) — so helpers written against
// *Span compose with roots and children alike.
type Trace = Span

// NewTrace starts a new root span. The returned trace is live
// immediately; call Finish when the query completes.
func NewTrace(name string) *Trace { return newSpan(name) }

// Attr is one key/value annotation on a span, kept in insertion order
// so renderings read in the order the engine recorded them
// (est before actual, rows-in before rows-out). A value that is a
// fmt.Stringer is kept as recorded and rendered when the span is
// printed, so describing a span costs nothing for a trace nobody reads.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed node of an execution trace. All methods are safe on
// a nil receiver (no-ops returning zero values), and all mutation is
// mutex-guarded so parallel join workers can annotate concurrently.
type Span struct {
	mu       sync.Mutex
	name     string
	label    fmt.Stringer // see ChildOf
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

func newSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// Child starts a nested span. Returns nil when the receiver is nil, so
// trace plumbing composes without guards.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name)
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// ChildOf starts a nested span whose name is name[label], with the
// label rendered only when the name is read — the trace kept for the
// slow-query log names every join step after its pattern, and a fast
// query never prints it. label must not change once passed.
func (s *Span) ChildOf(name string, label fmt.Stringer) *Span {
	c := s.Child(name)
	if c != nil {
		c.label = label
	}
	return c
}

// Finish stamps the span's end time. Repeated calls keep the first
// stamp so a deferred Finish cannot clobber an explicit one.
func (s *Span) Finish() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// Set records (or overwrites) an attribute. Values should be one of
// string, bool, int64, int, float64 or an immutable fmt.Stringer (which
// renders as its string) so JSON and tree renderings stay stable.
func (s *Span) Set(key string, v any) {
	if s == nil {
		return
	}
	if n, ok := v.(int); ok {
		v = int64(n)
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
	s.mu.Unlock()
}

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, v int64) { s.Set(key, v) }

// Add accumulates delta into an integer attribute, creating it at the
// delta on first use. Non-integer existing values are overwritten.
func (s *Span) Add(key string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			if cur, ok := s.attrs[i].Value.(int64); ok {
				s.attrs[i].Value = cur + delta
			} else {
				s.attrs[i].Value = delta
			}
			s.mu.Unlock()
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: delta})
	s.mu.Unlock()
}

// Name returns the span's name ("" on nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	if s.label != nil {
		return s.name + "[" + s.label.String() + "]"
	}
	return s.name
}

// Duration is the span's elapsed time: end-start once finished, the
// live elapsed time while still open, 0 on nil.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Attr looks an attribute up by key.
func (s *Span) Attr(key string) (any, bool) {
	if s == nil {
		return nil, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, a := range s.attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return nil, false
}

// Attrs returns a copy of the span's attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Attr(nil), s.attrs...)
}

// Children returns a copy of the span's child slice.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// MarshalJSON renders the span tree as
//
//	{"name": ..., "durationUs": ..., "attrs": {...}, "children": [...]}
//
// with attrs emitted in insertion order (a hand-built object, since Go
// maps marshal key-sorted). This is the trace JSON schema served by
// /sparql?explain=1.
func (s *Span) MarshalJSON() ([]byte, error) {
	if s == nil {
		return []byte("null"), nil
	}
	s.mu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	name := s.Name()
	dur := s.Duration()

	var b bytes.Buffer
	b.WriteByte('{')
	b.WriteString(`"name":`)
	nb, err := json.Marshal(name)
	if err != nil {
		return nil, err
	}
	b.Write(nb)
	fmt.Fprintf(&b, `,"durationUs":%d`, dur.Microseconds())
	if len(attrs) > 0 {
		b.WriteString(`,"attrs":{`)
		for i, a := range attrs {
			if i > 0 {
				b.WriteByte(',')
			}
			kb, err := json.Marshal(a.Key)
			if err != nil {
				return nil, err
			}
			b.Write(kb)
			b.WriteByte(':')
			v := a.Value
			if st, ok := v.(fmt.Stringer); ok {
				v = st.String()
			}
			vb, err := json.Marshal(v)
			if err != nil {
				return nil, err
			}
			b.Write(vb)
		}
		b.WriteByte('}')
	}
	if len(children) > 0 {
		b.WriteString(`,"children":[`)
		for i, c := range children {
			if i > 0 {
				b.WriteByte(',')
			}
			cb, err := c.MarshalJSON()
			if err != nil {
				return nil, err
			}
			b.Write(cb)
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.Bytes(), nil
}

// WriteTree pretty-prints the span tree, one span per line, indented by
// depth, with the duration and attrs inline:
//
//	query 1.23ms
//	  plan 10µs order=[1 0] est[0]=120
//	  step[?s p ?o] 800µs kind=merge rowsIn=1 rowsOut=98
//
// A join step's kind is one of merge, probe-list, probe, const-probe,
// semi-merge, semi-probe and expand; a step folded into an expansion
// that intersects with it reads kind=folded into=step k; a GROUP BY or
// DISTINCT answered a group at a time is one step of kind=group-keys with
// the keys it walked and the rows they stand for, and under it one
// kind=semi-bitset step per semijoin it tests against a bitset, with the
// keys of that bitset. access=cursor marks a step whose per-row lists come
// from a key cursor, and an aggregate[…] span's distinct=keyed a
// COUNT(DISTINCT) that counts rows without its pair table.
func (s *Span) WriteTree(w io.Writer) error {
	if s == nil {
		return nil
	}
	return s.writeTree(w, 0)
}

func (s *Span) writeTree(w io.Writer, depth int) error {
	s.mu.Lock()
	attrs := append([]Attr(nil), s.attrs...)
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	name := s.Name()
	var b strings.Builder
	for i := 0; i < depth; i++ {
		b.WriteString("  ")
	}
	b.WriteString(name)
	fmt.Fprintf(&b, " %s", s.Duration().Round(time.Microsecond))
	for _, a := range attrs {
		fmt.Fprintf(&b, " %s=%v", a.Key, a.Value)
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, c := range children {
		if err := c.writeTree(w, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// String renders the tree (WriteTree into a string); "" on nil.
func (s *Span) String() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.writeTree(&b, 0) //nolint:errcheck // strings.Builder cannot fail
	return b.String()
}

// Top returns the n most expensive descendant spans (the root itself is
// excluded — its duration is the whole query), sorted by duration
// descending. Used by the governor's slow-query log.
func (s *Span) Top(n int) []*Span {
	if s == nil || n <= 0 {
		return nil
	}
	var all []*Span
	var walk func(sp *Span)
	walk = func(sp *Span) {
		for _, c := range sp.Children() {
			all = append(all, c)
			walk(c)
		}
	}
	walk(s)
	sort.SliceStable(all, func(i, j int) bool { return all[i].Duration() > all[j].Duration() })
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// FormatTop renders Top(n) as a single log-friendly string:
// "step[?a p ?c] 1.2ms; merge 800µs; serialize 400µs".
func (s *Span) FormatTop(n int) string {
	top := s.Top(n)
	if len(top) == 0 {
		return ""
	}
	parts := make([]string, len(top))
	for i, sp := range top {
		parts[i] = fmt.Sprintf("%s %s", sp.Name(), sp.Duration().Round(time.Microsecond))
	}
	return strings.Join(parts, "; ")
}
