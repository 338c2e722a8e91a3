package bench

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/dictionary"
	"hexastore/internal/graph"
	"hexastore/internal/lubm"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
)

// WriteFigureIDs names the mixed read/write figures RunWrite produces.
var WriteFigureIDs = []string{"write01"}

// writeMixQueries is the read side of the mixed workload: the 2-pattern
// chain join from the SPARQL suite, evaluated repeatedly while updates
// stream in.
const writeMixQuery = `SELECT ?student ?course WHERE {
	?student <lubm:advisor> ?prof .
	?prof <lubm:teacherOf> ?course }`

// runMixed runs the mixed workload over ov: snapshot-pinned queries
// through ov's Planner pl, one overlay batch per update, no request lock
// in either direction.
func runMixed(ov *delta.Overlay, pl *sparql.Planner, q *sparql.Query, tag string) error {
	query := func() error {
		_, err := pl.EvalOpts(context.Background(), q, sparql.EvalOptions{})
		return err
	}
	update := func(ops []graph.TripleOp) error {
		_, _, err := ov.ApplyTriples(ops)
		return err
	}
	return MixedWorkload(query, update, tag)
}

// MixedWorkload drives the write01 mixed read/write workload: 2 reader
// goroutines each run 40 evaluations of the query while 2 writer
// goroutines each commit 40 update batches (5 inserts followed, one
// batch later, by their 5 deletes — so the store returns to its initial
// state and repeats stay comparable). The same driver backs the hexbench
// write01 figure and BenchmarkWrite01, so the benchmark twin cannot
// drift from the figure it mirrors. tag namespaces the written triples,
// keeping every invocation's inserts fresh.
func MixedWorkload(query func() error, update func([]graph.TripleOp) error, tag string) error {
	const (
		readers    = 2
		writers    = 2
		queriesPer = 40
		batchesPer = 40
		batchSize  = 5
	)
	var wg sync.WaitGroup
	errCh := make(chan error, readers+writers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < queriesPer; i++ {
				if err := query(); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			batch := func(b int, del bool) []graph.TripleOp {
				ops := make([]graph.TripleOp, batchSize)
				for i := range ops {
					ops[i] = graph.TripleOp{Del: del, T: rdf.T(
						rdf.NewIRI(fmt.Sprintf("bench:%s/w%d/b%d/s%d", tag, w, b, i)),
						rdf.NewIRI("lubm:advisor"),
						rdf.NewIRI(fmt.Sprintf("bench:%s/w%d/prof", tag, w)),
					)}
				}
				return ops
			}
			for b := 0; b < batchesPer; b++ {
				if err := update(batch(b, false)); err != nil {
					errCh <- err
					return
				}
				if b > 0 {
					if err := update(batch(b-1, true)); err != nil {
						errCh <- err
						return
					}
				}
			}
			if err := update(batch(batchesPer-1, true)); err != nil {
				errCh <- err
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunWrite times the write01 figure: a fixed mixed read/write workload
// (concurrent chain-join SELECTs against a stream of INSERT/DELETE
// batches) over growing LUBM prefixes, through the MVCC delta overlay —
// the one write path of a memory store — without and with a
// group-committed WAL (durability included in the measured path).
func RunWrite(cfg Config, progress func(string)) ([]*Figure, error) {
	cfg = cfg.withDefaults()
	data := lubm.Config{Universities: cfg.LUBMUniversities, Seed: cfg.Seed}.GenerateAll()

	dict := dictionary.New()
	encoded := core.EncodeTriples(dict, data, cfg.Workers)
	q, err := sparql.Parse(writeMixQuery)
	if err != nil {
		return nil, err
	}

	fig := &Figure{
		ID:     "write01",
		Title:  "Mixed read/write throughput: MVCC overlay vs overlay+WAL",
		YLabel: "seconds",
	}
	walDir, err := os.MkdirTemp("", "hexbench-wal")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)

	series := []string{"Overlay", "Overlay+WAL"}
	run := 0
	for _, n := range prefixSizes(len(encoded), cfg.Steps) {
		if progress != nil {
			progress(fmt.Sprintf("write: prefix of %d triples", n))
		}
		for si, name := range series {
			// A fresh store per series, bulk-built on the shared
			// dictionary so query constants resolve identically.
			b := core.NewBuilder(dict)
			b.AddAll(encoded[:n])
			opts := delta.Options{}
			if name == "Overlay+WAL" {
				run++
				opts.WALPath = filepath.Join(walDir, fmt.Sprintf("w%d.log", run))
			}
			ov, oerr := delta.Open(graph.Memory(b.BuildParallel(cfg.Workers)), opts)
			if oerr != nil {
				return nil, oerr
			}
			pl := sparql.NewPlanner(ov)

			var runErr error
			tag := 0
			p := measureBest(cfg.Repeats, func() {
				tag++
				if err := runMixed(ov, pl, q, fmt.Sprintf("%d-%d", run, tag)); err != nil && runErr == nil {
					runErr = err
				}
			})
			if err := ov.Close(); err != nil && runErr == nil {
				runErr = err
			}
			if runErr != nil {
				return nil, fmt.Errorf("bench: write01 %s: %w", name, runErr)
			}
			p.Triples = n
			if len(fig.Series) <= si {
				fig.Series = append(fig.Series, Series{Name: name})
			}
			fig.Series[si].Points = append(fig.Series[si].Points, p)
		}
	}
	return []*Figure{fig}, nil
}
