// Command hexbench regenerates the tables behind every figure of the
// Hexastore paper's evaluation section (Figures 3–15).
//
// Usage:
//
//	hexbench -all                        # every figure, default scale
//	hexbench -fig fig10                  # one figure
//	hexbench -fig fig04,fig05 -records 60000 -steps 6 -repeats 3
//	hexbench -fig space01                # §4.1 space model beside the packed bytes
//	hexbench -list                       # the figure ids above
//	hexbench -torture -seed 7 -runs 200  # crash-consistency torture campaign
//
// -torture runs no benchmarks: it drives the crash-consistency torture
// harness (internal/iofault/torture) — seeded randomized workloads
// crashed at every enumerated fault point, reopened, and verified
// against an in-memory reference — and exits non-zero on any invariant
// violation or differential mismatch.
//
// Output is one aligned table per figure: rows are data-prefix sizes,
// columns are the competing stores (response time in seconds, memory in
// MB for fig15a/fig15b, bytes per triple for space01). The paper plots
// these series on log axes; the reproduction target is the shape — who
// wins and by how many orders of magnitude — not absolute numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"

	"hexastore/internal/bench"
	"hexastore/internal/iofault/torture"
	"hexastore/internal/sparql"
)

func main() {
	var (
		figFlag  = flag.String("fig", "", "comma-separated figure ids (e.g. fig03,fig10); empty with -all for everything")
		all      = flag.Bool("all", false, "run every figure")
		records  = flag.Int("records", 30000, "Barton catalog records to generate")
		univs    = flag.Int("universities", 10, "LUBM universities to generate")
		steps    = flag.Int("steps", 6, "prefix points per figure")
		repeats  = flag.Int("repeats", 3, "timing repeats per point (best-of)")
		seed     = flag.Int64("seed", 1, "generator seed")
		quiet    = flag.Bool("q", false, "suppress progress output")
		listFlag = flag.Bool("list", false, "list known figure ids and exit")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0),
			"parallelism budget for the load pipeline and intra-query joins; 1 = sequential")
		tortureRun = flag.Bool("torture", false, "run the crash-consistency torture campaign instead of benchmarks")
		runs       = flag.Int("runs", 200, "crash runs for -torture (split across scenarios)")
		batches    = flag.Int("batches", 0, "workload batches per -torture run (0 = harness default)")
	)
	flag.Parse()
	sparql.SetMaxWorkers(*workers)

	if *tortureRun {
		logf := func(format string, a ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", a...)
		}
		if *quiet {
			logf = nil
		}
		res, err := torture.Run(torture.Options{
			Seed:    *seed,
			Runs:    *runs,
			Batches: *batches,
			Logf:    logf,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hexbench: torture: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("torture: %d crash runs over %d fault points, %d violations (seed %d)\n",
			res.Runs, res.FaultPoints, len(res.Violations), *seed)
		for _, v := range res.Violations {
			fmt.Printf("  %s\n", v)
		}
		if len(res.Violations) > 0 {
			os.Exit(1)
		}
		return
	}

	if *listFlag {
		for _, id := range slices.Concat(bench.FigureIDs, bench.SpaceFigureIDs) {
			fmt.Println(id)
		}
		return
	}

	var ids []string
	if *figFlag != "" {
		ids = strings.Split(*figFlag, ",")
	} else if !*all {
		fmt.Fprintln(os.Stderr, "hexbench: pass -all or -fig <ids>; see -list for ids")
		os.Exit(2)
	}

	// space01 is not a paper figure: it has its own runner, reached
	// through -fig like the rest.
	runSpace := false
	figIDs := ids[:0]
	for _, id := range ids {
		if id == "space01" {
			runSpace = true
		} else {
			figIDs = append(figIDs, id)
		}
	}
	ids = figIDs

	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintln(os.Stderr, msg)
		}
	}

	cfg := bench.Config{
		BartonRecords:    *records,
		LUBMUniversities: *univs,
		Steps:            *steps,
		Repeats:          *repeats,
		Seed:             *seed,
		Workers:          *workers,
	}
	// runSuite executes one benchmark suite and prints its tables; any
	// failure is fatal.
	runSuite := func(run func(bench.Config, func(string)) ([]*bench.Figure, error)) {
		figs, err := run(cfg, progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hexbench: %v\n", err)
			os.Exit(1)
		}
		for _, f := range figs {
			if err := f.WriteTable(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "hexbench: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *all || len(ids) > 0 {
		runSuite(func(cfg bench.Config, progress func(string)) ([]*bench.Figure, error) {
			return bench.Run(cfg, ids, progress)
		})
	}
	if runSpace {
		runSuite(bench.RunSpace)
	}
}
