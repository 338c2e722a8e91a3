package bench

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/graph"
	"hexastore/internal/lubm"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
)

// GovernFigureIDs names the query-governor figures RunGovern produces.
var GovernFigureIDs = []string{"govern01"}

// govern01 measures what governance buys the *other* tenants: cheap
// bound-subject lookups sampled while adversarial neighbors loop a
// quadratic self-join on the same store. The ungoverned series lets the
// hogs materialize their join state without limits; the governed series
// runs the same hogs under a per-query memory limit (a hog whose state
// would cross it fails typed) and a short deadline. The gap between the two
// p99 lines is the latency tax one pathological query imposes on
// everyone else when nothing reins it in.
const (
	governHogs       = 2
	governHogBudget  = 8 << 20
	governHogTimeout = 50 * time.Millisecond
	governSamples    = 40
)

// governHogQuery is the adversarial neighbor: students pairing on a
// shared course — quadratic in students-per-course, so its binding
// table dwarfs the cheap lookups'. The LIMIT bounds one iteration (the
// hog loops for the whole sampling window either way) so the ungoverned
// series measures interference, not an OOM.
const governHogQuery = `SELECT ?a ?b WHERE {
	?a <lubm:takesCourse> ?c .
	?b <lubm:takesCourse> ?c } LIMIT 200000`

// governCheapQueries samples bound-subject lookups evenly from the
// data: each routes through one merge-join path and returns a handful
// of rows, the profile of a well-behaved tenant.
func governCheapQueries(data []rdf.Triple) ([]*sparql.Query, error) {
	var queries []*sparql.Query
	for i := 0; i < 8 && len(data) > 0; i++ {
		s := data[i*len(data)/8].Subject
		q, err := sparql.Parse(fmt.Sprintf(`SELECT ?p ?o WHERE { <%s> ?p ?o }`, s.Value))
		if err != nil {
			return nil, err
		}
		queries = append(queries, q)
	}
	return queries, nil
}

// governPoint measures cheap-query latency percentiles while governHogs
// background goroutines loop the hog query, governed or not. The hog
// context is canceled when sampling ends, so the point's cost is
// bounded in both modes.
func governPoint(pl *sparql.Planner, cheap []*sparql.Query, hog *sparql.Query, governed bool) (p50, p99 float64, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < governHogs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				opt := sparql.EvalOptions{Workers: 1}
				hctx := ctx
				hcancel := context.CancelFunc(func() {})
				if governed {
					opt.MemBudget = governHogBudget
					hctx, hcancel = context.WithTimeout(ctx, governHogTimeout)
				}
				_, _ = pl.EvalOpts(hctx, hog, opt) //nolint:errcheck // hog outcomes are the governor's business
				hcancel()
			}
		}()
	}

	lat := make([]float64, 0, governSamples*len(cheap))
	for s := 0; s < governSamples; s++ {
		for _, q := range cheap {
			start := time.Now()
			if _, qerr := pl.EvalOpts(context.Background(), q, sparql.EvalOptions{Workers: 1}); qerr != nil {
				err = qerr
			}
			lat = append(lat, time.Since(start).Seconds())
		}
	}
	cancel()
	wg.Wait()
	if err != nil {
		return 0, 0, err
	}
	sort.Float64s(lat)
	return lat[len(lat)/2], lat[len(lat)*99/100], nil
}

// RunGovern times the govern01 figure: cheap-query p50/p99 with the
// adversarial mixed workload, governor off vs on, over growing LUBM
// prefixes.
func RunGovern(cfg Config, progress func(string)) ([]*Figure, error) {
	cfg = cfg.withDefaults()
	data := lubm.Config{Universities: cfg.LUBMUniversities, Seed: cfg.Seed}.GenerateAll()

	fig := &Figure{
		ID:     "govern01",
		Title:  "Cheap-query latency beside an adversarial neighbor: ungoverned vs governed hogs",
		YLabel: "seconds",
	}
	names := []string{"p50 ungoverned", "p99 ungoverned", "p50 governed", "p99 governed"}
	for _, name := range names {
		fig.Series = append(fig.Series, Series{Name: name})
	}
	hog, err := sparql.Parse(governHogQuery)
	if err != nil {
		return nil, err
	}
	for _, n := range prefixSizes(len(data), cfg.Steps) {
		if progress != nil {
			progress(fmt.Sprintf("govern: prefix of %d triples", n))
		}
		cheap, err := governCheapQueries(data[:n])
		if err != nil {
			return nil, err
		}
		b := core.NewBuilder(nil)
		b.AddAll(core.EncodeTriples(b.Dictionary(), data[:n], cfg.Workers))
		pl := sparql.NewPlanner(graph.Memory(b.BuildParallel(cfg.Workers)))
		for mi, governed := range []bool{false, true} {
			p50, p99, err := governPoint(pl, cheap, hog, governed)
			if err != nil {
				return nil, fmt.Errorf("bench: govern01 governed=%v: %w", governed, err)
			}
			fig.Series[mi*2].Points = append(fig.Series[mi*2].Points, Point{Triples: n, Value: p50})
			fig.Series[mi*2+1].Points = append(fig.Series[mi*2+1].Points, Point{Triples: n, Value: p99})
		}
	}
	return []*Figure{fig}, nil
}
