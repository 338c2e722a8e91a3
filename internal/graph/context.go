package graph

import "context"

// ContextAware is an optional Graph capability: a backend returns a
// ctx-observing variant of itself so cancellation reaches the inside of
// one operation, not just the gaps between operations.
//
// No backend in this module implements it, and the SPARQL evaluator
// does not call WithContext: it checks its context between per-row
// probes and every 128 streamed callbacks, which bounds cancellation
// latency to one candidate-list fetch on the memory and disk stores.
// The interface and WithContext exist only because the benchmark's
// tracing decorator (benchmark/tracedgraph.go) forwards them; delete
// them together with that decorator.
type ContextAware interface {
	// WithContext returns a view of the graph whose operations fail
	// with ctx.Err() once ctx is done. The returned graph shares the
	// receiver's state and capabilities.
	WithContext(ctx context.Context) Graph
}

// WithContext returns g observing ctx when the backend supports it
// (ContextAware), and g unchanged otherwise. A nil or Background
// context never wraps.
func WithContext(ctx context.Context, g Graph) Graph {
	if ctx == nil || ctx == context.Background() || ctx == context.TODO() {
		return g
	}
	if ca, ok := g.(ContextAware); ok {
		return ca.WithContext(ctx)
	}
	return g
}
