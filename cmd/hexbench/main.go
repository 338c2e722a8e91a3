// Command hexbench regenerates the tables behind every figure of the
// Hexastore paper's evaluation section (Figures 3–15).
//
// Usage:
//
//	hexbench -all                        # every figure, default scale
//	hexbench -fig fig10                  # one figure
//	hexbench -fig fig04,fig05 -records 60000 -steps 6 -repeats 3
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
// MB for fig15a/fig15b). The paper plots these series on log axes; the
// reproduction target is the shape — who wins and by how many orders of
// magnitude — not absolute numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
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
		ablation = flag.String("ablation", "", "comma-separated extension ablations (disk,cracking,kowari) or 'all'")
		write    = flag.Bool("write", false, "run the write01 mixed read/write figure (locked store vs MVCC overlay vs overlay+WAL)")
		jsonOut  = flag.Bool("json", false, "also run the bulk-load, mixed read/write and SPARQL-engine suites and write timings+allocs to BENCH_<rev>.json")
		rev      = flag.String("rev", "", "revision label for the -json snapshot (default: current git short hash, else 'dev')")
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
		for _, id := range bench.FigureIDs {
			fmt.Println(id)
		}
		for _, id := range bench.AblationIDs {
			fmt.Println("ablation-" + id)
		}
		for _, id := range bench.LoadFigureIDs {
			fmt.Println(id)
		}
		for _, id := range bench.WriteFigureIDs {
			fmt.Println(id)
		}
		for _, id := range bench.GovernFigureIDs {
			fmt.Println(id)
		}
		for _, id := range bench.TraceFigureIDs {
			fmt.Println(id)
		}
		for _, id := range bench.ServeFigureIDs {
			fmt.Println(id)
		}
		return
	}

	var ids []string
	if *figFlag != "" {
		ids = strings.Split(*figFlag, ",")
	} else if !*all && *ablation == "" && !*jsonOut && !*write {
		fmt.Fprintln(os.Stderr, "hexbench: pass -all, -fig <ids>, -ablation <ids>, -write, or -json; see -list for ids")
		os.Exit(2)
	}

	// -list advertises the load and write suites alongside the paper
	// figures; accept their ids through -fig too instead of bouncing
	// users to the dedicated flags.
	runLoad, runWrite, runSpace, runGovern, runTrace, runServe := false, *write, false, false, false, false
	figIDs := ids[:0]
	for _, id := range ids {
		switch id {
		case "load01":
			runLoad = true
		case "write01":
			runWrite = true
		case "space01":
			runSpace = true
		case "govern01":
			runGovern = true
		case "trace_overhead":
			runTrace = true
		case "serve01", "serve01lat":
			runServe = true
		default:
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
	// runSuite executes one benchmark suite, prints its tables, and
	// collects the figures for the -json snapshot; any failure is fatal.
	var snapshot []*bench.Figure
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
		snapshot = append(snapshot, figs...)
	}

	if *all || len(ids) > 0 {
		runSuite(func(cfg bench.Config, progress func(string)) ([]*bench.Figure, error) {
			return bench.Run(cfg, ids, progress)
		})
	}

	if *ablation != "" {
		var abl []string
		if *ablation != "all" {
			abl = strings.Split(*ablation, ",")
		}
		runSuite(func(cfg bench.Config, progress func(string)) ([]*bench.Figure, error) {
			return bench.RunAblations(cfg, abl, progress)
		})
	}

	if runLoad && !*jsonOut {
		runSuite(bench.RunLoad)
	}
	if runWrite && !*jsonOut {
		runSuite(bench.RunWrite)
	}
	if runSpace && !*jsonOut {
		runSuite(bench.RunSpace)
	}
	if runGovern && !*jsonOut {
		runSuite(bench.RunGovern)
	}
	if runTrace && !*jsonOut {
		runSuite(bench.RunTrace)
	}
	if runServe && !*jsonOut {
		runSuite(bench.RunServe)
	}

	if *jsonOut {
		runSuite(bench.RunLoad)
		runSuite(bench.RunWrite)
		runSuite(bench.RunSpace)
		runSuite(bench.RunGovern)
		runSuite(bench.RunTrace)
		runSuite(bench.RunServe)
		runSuite(bench.RunSPARQL)

		label := *rev
		if label == "" {
			label = gitRev()
		}
		name := fmt.Sprintf("BENCH_%s.json", label)
		f, err := os.Create(name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hexbench: %v\n", err)
			os.Exit(1)
		}
		if err := bench.WriteJSON(f, label, cfg, snapshot); err != nil {
			f.Close()
			fmt.Fprintf(os.Stderr, "hexbench: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "hexbench: %v\n", err)
			os.Exit(1)
		}
		progress("wrote " + name)
	}
}

// gitRev returns the current short commit hash, or "dev" outside a git
// checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "dev"
	}
	return strings.TrimSpace(string(out))
}
