// Command hexquery loads RDF data and runs SPARQL-subset queries
// against a Hexastore.
//
// Usage:
//
//	hexquery -f data.nt 'SELECT ?s WHERE { ?s <type> <Text> } LIMIT 10'
//	hexquery -turtle data.ttl 'ASK { <alice> <knows> <bob> }'
//	hexquery -restore data.hex 'SELECT DISTINCT ?p WHERE { <alice> ?p ?o }'
//	hexquery -disk /path/to/store 'SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 5'
//	hexquery -workers 4 -f data.nt 'SELECT ?s WHERE { ?s ?p ?o } LIMIT 10'
//
// With no query argument the query text is read from stdin. -workers
// bounds the parallelism of both the load pipeline and the intra-query
// join workers (default GOMAXPROCS), matching hexload/hexserver/hexbench.
// -timeout puts a deadline on the query and -mem-budget limits its
// engine memory: crossing it fails the query instead of OOMing.
// A query runs through a sparql.Planner, as hexserver runs it, so
// -explain prints the cost-based plan hexserver would run (pattern
// order, cardinality estimates, access-path hints) without executing.
// -explain-analyze executes and prints the full span tree with estimated
// vs actual rows per step — equivalent to prefixing the query with
// EXPLAIN or EXPLAIN ANALYZE.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"hexastore"
	"hexastore/internal/disk"
	"hexastore/internal/govern"
	"hexastore/internal/graph"
	"hexastore/internal/obs"
	"hexastore/internal/sparql"
)

func main() {
	var (
		file    = flag.String("f", "", "N-Triples file to load")
		turtle  = flag.String("turtle", "", "Turtle file to load instead of -f")
		restore = flag.String("restore", "", "binary snapshot to load instead of -f")
		diskDir = flag.String("disk", "", "query an existing disk-based Hexastore directory")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0),
			"parallelism budget for the load pipeline and intra-query joins; 1 = sequential")
		timeout = flag.Duration("timeout", 0,
			"per-query deadline; an expired query fails with context.DeadlineExceeded (0 = none)")
		memBudget = flag.String("mem-budget", "",
			"per-query memory limit (e.g. 64M, 1G): a query whose join pieces, fetched lists and result rows would cross it fails instead of OOMing — at the value itself, where earlier releases wrote temp files and failed at 4x it (empty = unlimited)")
		explain = flag.Bool("explain", false,
			"print the query plan (pattern order, cardinality estimates, plan-cache outcome) without executing")
		explainAnalyze = flag.Bool("explain-analyze", false,
			"execute the query with tracing and print the span tree (estimated vs actual rows per step)")
	)
	flag.Parse()
	sparql.SetMaxWorkers(*workers)
	budget, err := govern.ParseBytes(*memBudget)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hexquery: -mem-budget: %v\n", err)
		os.Exit(2)
	}

	var (
		st      *hexastore.Store
		diskSt  *disk.Store
		triples int
	)
	switch {
	case *diskDir != "":
		diskSt, err = disk.Open(*diskDir, disk.Options{CacheSize: 4096})
	case *restore != "":
		var f *os.File
		if f, err = os.Open(*restore); err == nil {
			st, err = hexastore.Restore(f)
			f.Close()
		}
	case *turtle != "":
		var f *os.File
		if f, err = os.Open(*turtle); err == nil {
			st, err = hexastore.LoadTurtleParallel(f, *workers)
			f.Close()
		}
	case *file != "":
		var f *os.File
		if f, err = os.Open(*file); err == nil {
			st, err = hexastore.LoadNTriplesParallel(f, *workers)
			f.Close()
		}
	default:
		fmt.Fprintln(os.Stderr, "hexquery: pass -f data.nt, -turtle data.ttl, -restore data.hex, or -disk dir")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "hexquery: %v\n", err)
		os.Exit(1)
	}

	src := ""
	if flag.NArg() > 0 {
		src = flag.Arg(0)
	} else {
		raw, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hexquery: reading stdin: %v\n", err)
			os.Exit(1)
		}
		src = string(raw)
	}

	var g graph.Graph
	if diskSt != nil {
		g = graph.Disk(diskSt)
		defer diskSt.Close()
	} else {
		g = hexastore.AsGraph(st)
	}
	triples = g.Len()
	pl := sparql.NewPlanner(g)

	start := time.Now()
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	q, err := sparql.Parse(src)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hexquery: %v\n", err)
		os.Exit(1)
	}
	opt := sparql.EvalOptions{MemBudget: budget}
	if *explain || *explainAnalyze {
		// The flags mirror the in-query EXPLAIN [ANALYZE] prefix; a
		// prefix already present in the query text wins.
		if q.Explain == sparql.ExplainNone {
			if *explain {
				q.Explain = sparql.ExplainPlan
			} else {
				q.Explain = sparql.ExplainExec
			}
		}
	}
	if q.Explain != sparql.ExplainNone {
		opt.Trace = obs.NewTrace("query")
	}
	res, err := pl.EvalOpts(ctx, q, opt)
	opt.Trace.Finish()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hexquery: %v\n", err)
		os.Exit(1)
	}
	if opt.Trace != nil {
		opt.Trace.WriteTree(os.Stdout)
		if q.Explain == sparql.ExplainPlan {
			fmt.Fprintf(os.Stderr, "planned in %v over %d triples\n", time.Since(start), triples)
			return
		}
	}
	elapsed := time.Since(start)

	if res.IsAsk {
		fmt.Println(res.Answer)
		fmt.Fprintf(os.Stderr, "answered in %v over %d triples\n", elapsed, triples)
		return
	}
	res.SortRows()
	for _, v := range res.Vars {
		fmt.Printf("?%s\t", v)
	}
	fmt.Println()
	for i := 0; i < res.Len(); i++ {
		for c := range res.Vars {
			fmt.Printf("%s\t", res.At(i, c))
		}
		fmt.Println()
	}
	fmt.Fprintf(os.Stderr, "%d rows in %v over %d triples\n", res.Len(), elapsed, triples)
}
