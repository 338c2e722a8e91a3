package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"hexastore/internal/graph"
	"hexastore/internal/lubm"
	"hexastore/internal/queries"
	"hexastore/internal/sparql"
	"hexastore/internal/triplestore"
)

// Snapshot is the machine-readable benchmark record written by
// `hexbench -json`: one file per revision, so the repository accumulates
// a PR-over-PR performance trajectory (timings and allocation counts)
// instead of relying on numbers quoted in commit messages.
type Snapshot struct {
	Revision  string    `json:"revision"`
	Generated time.Time `json:"generated"`
	// GoMaxProcs records the parallelism the numbers were taken at
	// (the worker budget itself is in Config.Workers): a parallel-load
	// or parallel-join win only reproduces on a machine with comparable
	// GOMAXPROCS.
	GoMaxProcs int       `json:"go_max_procs"`
	Config     Config    `json:"config"`
	Figures    []*Figure `json:"figures"`
}

// WriteJSON serializes a snapshot of the given figures.
func WriteJSON(w io.Writer, rev string, cfg Config, figs []*Figure) error {
	cfg = cfg.withDefaults()
	snap := Snapshot{
		Revision:   rev,
		Generated:  time.Now().UTC().Truncate(time.Second),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Config:     cfg,
		Figures:    figs,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(&snap)
}

// SPARQLQuery is one query of the evaluator benchmark suite.
type SPARQLQuery struct {
	ID    string
	Title string
	Query string
}

// SPARQLQueries are the multi-pattern join queries timed by RunSPARQL:
// the SPARQL evaluator's hot shapes (chained joins, a cyclic join,
// DISTINCT and GROUP BY) over the LUBM schema. The table is exported so
// the Go benchmarks (bench_test.go BenchmarkSPARQLJoinBackends) time
// exactly the workload the BENCH_<rev>.json trajectory tracks.
var SPARQLQueries = []SPARQLQuery{
	{"sparql01", "SPARQL 2-pattern chain (advisor→teacherOf)",
		`SELECT ?student ?course WHERE {
			?student <lubm:advisor> ?prof .
			?prof <lubm:teacherOf> ?course }`},
	{"sparql02", "SPARQL 3-pattern cyclic join (advisor/teacherOf/takesCourse)",
		`SELECT ?student ?course WHERE {
			?student <lubm:advisor> ?prof .
			?prof <lubm:teacherOf> ?course .
			?student <lubm:takesCourse> ?course }`},
	{"sparql03", "SPARQL DISTINCT join",
		`SELECT DISTINCT ?prof WHERE {
			?student <lubm:advisor> ?prof .
			?student <lubm:takesCourse> ?course }`},
	{"sparql04", "SPARQL GROUP BY count",
		`SELECT ?prof (COUNT(?student) AS ?n) WHERE {
			?student <lubm:advisor> ?prof } GROUP BY ?prof`},
	{"sparql05", "SPARQL GROUP BY distinct count join",
		`SELECT ?prof (COUNT(DISTINCT ?student) AS ?n) WHERE {
			?student <lubm:advisor> ?prof .
			?student <lubm:takesCourse> ?course } GROUP BY ?prof`},
}

// RunSPARQL times the SPARQL evaluator itself — not the hand-written
// query plans of the paper figures — on LUBM data, once per backend:
// the in-memory Hexastore (merge-join engine over shared terminal
// lists) and the flat baseline table (the same engine over lists
// graph.SortedOf sorts from its Match output).
// These series are what this repository's own engine work is judged by.
func RunSPARQL(cfg Config, progress func(string)) ([]*Figure, error) {
	cfg = cfg.withDefaults()
	data := lubm.Config{Universities: cfg.LUBMUniversities, Seed: cfg.Seed}.GenerateAll()

	figs := make([]*Figure, len(SPARQLQueries))
	parsed := make([]*sparql.Query, len(SPARQLQueries))
	for i, q := range SPARQLQueries {
		figs[i] = &Figure{ID: q.ID, Title: q.Title, YLabel: "seconds"}
		var err error
		if parsed[i], err = sparql.Parse(q.Query); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", q.ID, err)
		}
	}

	for _, n := range prefixSizes(len(data), cfg.Steps) {
		s := queries.Load(data[:n])
		base := triplestore.New(s.Dict)
		for _, t := range data[:n] {
			ds, dp, do := s.Dict.EncodeTriple(t)
			base.Add(ds, dp, do)
		}
		triples := s.Hexa.Len()
		if progress != nil {
			progress(fmt.Sprintf("sparql: loaded prefix of %d triples", triples))
		}
		backends := []struct {
			name string
			g    graph.Graph
		}{
			{"Hexastore", graph.Memory(s.Hexa)},
			{"Baseline", graph.Baseline(base)},
		}
		planners := make([]*sparql.Planner, len(backends))
		for bi, b := range backends {
			planners[bi] = sparql.NewPlanner(b.g)
		}
		for qi := range SPARQLQueries {
			q := parsed[qi]
			for bi, b := range backends {
				pl := planners[bi]
				var evalErr error
				p := measureBest(cfg.Repeats, func() {
					if _, err := pl.EvalOpts(context.Background(), q, sparql.EvalOptions{Workers: cfg.Workers}); err != nil && evalErr == nil {
						evalErr = err
					}
				})
				if evalErr != nil {
					return nil, fmt.Errorf("bench: %s on %s: %w", SPARQLQueries[qi].ID, b.name, evalErr)
				}
				p.Triples = triples
				f := figs[qi]
				found := false
				for si := range f.Series {
					if f.Series[si].Name == b.name {
						f.Series[si].Points = append(f.Series[si].Points, p)
						found = true
					}
				}
				if !found {
					f.Series = append(f.Series, Series{Name: b.name, Points: []Point{p}})
				}
			}
		}
	}
	return figs, nil
}
