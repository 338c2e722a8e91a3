// Command benchmark is the repository's end-to-end benchmark: it
// generates LUBM data and request streams from a seed, starts a real
// hexserver subprocess, drives it over loopback HTTP in a closed loop,
// checks the answers against an in-process oracle, and reports
// end-to-end metrics (tracing off) or, with -trace 1, per-layer metrics
// from a fixed-count traced replay. See README.md.
//
// It is started through run.sh, which builds hexserver and this program
// into .bench_build/ inside the checkout:
//
//	bash benchmark/run.sh --workload lookup-mem --seed 1 --seconds 16 --trace 0
//	bash benchmark/run.sh --workload all                  # every metric of every workload
//	bash benchmark/run.sh --workload scan-mem --runs 10   # medians, quartiles, spread
//	bash benchmark/run.sh --compare a.json b.json         # gate b against a
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// workDir is where run.sh puts the binaries and where every file the
// benchmark writes goes; it is relative to the checkout root, the
// directory run.sh is started from.
const workDir = ".bench_build"

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name         = flag.String("workload", "", "one of lookup-mem, scan-mem, lookup-disk, mixed-live, or all")
		seed         = flag.Int64("seed", 1, "seed of the data set and the request streams")
		seconds      = flag.Int("seconds", 16, "measured seconds per run, split evenly over the run's server instances")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced replay")
		universities = flag.Int("universities", 30, "LUBM universities (30 = ~530k triples)")
		runs         = flag.Int("runs", 1, "repeat with seeds seed..seed+runs-1 and report median, quartiles and spread")
		compare      = flag.Bool("compare", false, "compare two runs.json files given as arguments; exit 1 on a regression")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllServers()
		os.Exit(130)
	}()
	defer killAllServers()

	var selected []workload
	traces := []int{*trace}
	if *name == "all" {
		selected = workloads
		traces = []int{0, 1}
	} else if w, ok := workloadByName(*name); ok {
		selected = []workload{w}
	} else {
		fatal("unknown -workload %q", *name)
	}
	if *seconds < 1 || *universities < 1 || *runs < 1 || *trace < 0 || *trace > 1 {
		fatal("-seconds, -universities and -runs must be at least 1, -trace 0 or 1")
	}

	summary := newSummary()
	last := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range selected {
		for _, tr := range traces {
			for i := 0; i < *runs; i++ {
				cfg := runConfig{
					workload: w, seed: *seed + int64(i), universities: *universities, seconds: *seconds,
					dir: workDir, serverBin: filepath.Join(workDir, "bin", "hexserver"),
				}
				var (
					rep *report
					err error
				)
				if tr == 1 {
					rep, err = runTraced(cfg)
				} else {
					rep, err = runTimed(cfg)
				}
				if rep != nil {
					printReport(rep)
				}
				if err != nil {
					killAllServers()
					fatal("%s: %v", w.Name, err)
				}
				summary.add(rep)
				last.Correct = last.Correct && rep.Failed == 0
				last.Attempted += rep.Attempted
				last.Failed += rep.Failed
			}
		}
	}
	summary.finish()
	path := filepath.Join(workDir, "runs.json")
	if err := writeJSON(path, summary); err != nil {
		fatal("%v", err)
	}
	if *runs > 1 || len(selected) > 1 {
		summary.print(os.Stdout)
		fmt.Printf("summary written to %s\n", path)
	}

	// The result line: one workload's metrics (medians when repeated).
	if len(selected) == 1 {
		for name, ms := range summary.Workloads[selected[0].Name].Metrics {
			last.Metrics[name] = metric{Value: ms.Median, Unit: ms.Unit}
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println(string(line))
	if !last.Correct {
		killAllServers()
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	killAllServers()
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport prints one run: its context as indented JSON, then every
// metric on a line of its own, by name, with its unit.
func printReport(rep *report) {
	metrics := rep.Metrics
	rep.Metrics = nil
	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	enc.Encode(rep) //nolint:errcheck // a report holds only plain data
	rep.Metrics = metrics
	for _, n := range sortedKeys(metrics) {
		fmt.Printf("%-12s %-32s %14.6g %s\n", rep.Workload, n, metrics[n].Value, metrics[n].Unit)
	}
}
