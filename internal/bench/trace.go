package bench

// trace_overhead — the cost of observability. The tentpole claim of the
// tracing layer is that a query that does not ask for a trace pays
// (almost) nothing: spans are recorded per join step, never per row,
// and every instrumentation site is a nil check when tracing is off.
// This figure measures it directly: the same join workload with
// tracing disabled vs enabled, over growing LUBM prefixes. The two
// lines should be within a few percent of each other — if they
// diverge, an instrumentation site has crept into a per-row path.

import (
	"context"
	"fmt"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/lubm"
	"hexastore/internal/obs"
	"hexastore/internal/sparql"
)

// TraceFigureIDs names the tracing-overhead figures RunTrace produces.
var TraceFigureIDs = []string{"trace_overhead"}

// traceQuery is the join workload: a three-pattern star-and-chain join
// that exercises the merge/probe step machinery (the instrumented
// paths) without being dominated by result materialization.
const traceQuery = `SELECT ?x ?c WHERE {
	?x <lubm:type> <lubm:GraduateStudent> .
	?x <lubm:takesCourse> ?c .
	?x <lubm:memberOf> ?d }`

// traceReps is how many times each point evaluates the query; the
// reported value is the per-evaluation mean, which is stable enough for
// an overhead comparison without per-rep variance tracking.
const traceReps = 5

// tracePoint times traceReps evaluations through pl, with or without a
// trace attached, and returns mean seconds per evaluation.
func tracePoint(pl *sparql.Planner, q *sparql.Query, traced bool) (float64, error) {
	start := time.Now()
	for i := 0; i < traceReps; i++ {
		opt := sparql.EvalOptions{}
		if traced {
			opt.Trace = obs.NewTrace("query")
		}
		if _, err := pl.EvalOpts(context.Background(), q, opt); err != nil {
			return 0, err
		}
		if traced {
			opt.Trace.Finish()
		}
	}
	return time.Since(start).Seconds() / traceReps, nil
}

// RunTrace times the trace_overhead figure: join latency with tracing off vs
// on over growing LUBM prefixes. The "trace overhead" headline number
// is the ratio of the two series at the largest prefix.
func RunTrace(cfg Config, progress func(string)) ([]*Figure, error) {
	cfg = cfg.withDefaults()
	data := lubm.Config{Universities: cfg.LUBMUniversities, Seed: cfg.Seed}.GenerateAll()

	fig := &Figure{
		ID:     "trace_overhead",
		Title:  "Query tracing overhead: three-pattern join, tracing off vs on",
		YLabel: "seconds per query",
	}
	fig.Series = append(fig.Series, Series{Name: "tracing off"}, Series{Name: "tracing on"})

	q, err := sparql.Parse(traceQuery)
	if err != nil {
		return nil, err
	}
	for _, n := range prefixSizes(len(data), cfg.Steps) {
		if progress != nil {
			progress(fmt.Sprintf("trace: prefix of %d triples", n))
		}
		b := core.NewBuilder(nil)
		b.AddAll(core.EncodeTriples(b.Dictionary(), data[:n], cfg.Workers))
		pl := sparql.NewPlanner(graph.Memory(b.BuildParallel(cfg.Workers)))
		for mi, traced := range []bool{false, true} {
			sec, err := tracePoint(pl, q, traced)
			if err != nil {
				return nil, fmt.Errorf("bench: trace_overhead traced=%v: %w", traced, err)
			}
			fig.Series[mi].Points = append(fig.Series[mi].Points, Point{Triples: n, Value: sec})
		}
	}
	return []*Figure{fig}, nil
}
