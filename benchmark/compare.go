package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// metricSummary is one metric over a workload's repeated runs.
type metricSummary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median
}

type workloadSummary struct {
	Seeds   []int64                   `json:"seeds"`
	Metrics map[string]*metricSummary `json:"metrics"`
}

// summary is the runs.json document: every metric of every workload run
// by one invocation, with the spread between its repeats.
type summary struct {
	Commit     string                      `json:"commit"`
	GoVersion  string                      `json:"go_version"`
	NProc      int                         `json:"nproc"`
	GoMaxProcs int                         `json:"gomaxprocs"`
	Workloads  map[string]*workloadSummary `json:"workloads"`
}

func newSummary() *summary {
	return &summary{
		Commit: commit(), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		Workloads: map[string]*workloadSummary{},
	}
}

func (s *summary) add(rep *report) {
	ws := s.Workloads[rep.Workload]
	if ws == nil {
		ws = &workloadSummary{Metrics: map[string]*metricSummary{}}
		s.Workloads[rep.Workload] = ws
	}
	if n := len(ws.Seeds); n == 0 || ws.Seeds[n-1] != rep.Seed {
		ws.Seeds = append(ws.Seeds, rep.Seed)
	}
	for name, m := range rep.Metrics {
		ms := ws.Metrics[name]
		if ms == nil {
			ms = &metricSummary{Unit: m.Unit}
			ws.Metrics[name] = ms
		}
		ms.Values = append(ms.Values, m.Value)
	}
}

func (s *summary) finish() {
	for _, ws := range s.Workloads {
		for _, ms := range ws.Metrics {
			ms.Q1, ms.Median, ms.Q3 = quartiles(ms.Values)
			ms.Spread = spread(ms.Values)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (s *summary) print(w io.Writer) {
	fmt.Fprintf(w, "%-12s %-32s %14s %14s %14s %8s  %s\n", "workload", "metric", "median", "q1", "q3", "spread", "unit")
	for _, wl := range sortedKeys(s.Workloads) {
		ws := s.Workloads[wl]
		for _, name := range sortedKeys(ws.Metrics) {
			ms := ws.Metrics[name]
			fmt.Fprintf(w, "%-12s %-32s %14.6g %14.6g %14.6g %7.2f%%  %s\n",
				wl, name, ms.Median, ms.Q1, ms.Q3, 100*ms.Spread, ms.Unit)
		}
	}
}

func readSummary(path string) (*summary, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s summary
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles prints, for every workload and end-to-end metric present
// in both files, the two medians, how much worse b is as a share of a,
// the bound, and a verdict: regressed when b's median is worse than a's
// by more than the bound, unresolved when it is not but either side's
// spread is wider than the bound (the runs cannot tell), ok otherwise.
func compareFiles(w io.Writer, pathA, pathB string) (regressed bool, err error) {
	a, err := readSummary(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSummary(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "a: %s (commit %s)\nb: %s (commit %s)\n", pathA, a.Commit, pathB, b.Commit)
	fmt.Fprintf(w, "%-12s %-24s %12s %12s %22s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	compared := 0
	for _, wl := range workloads {
		wa, wb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if wa == nil || wb == nil {
			continue
		}
		for _, d := range endToEnd {
			ma, mb := wa.Metrics[d.Name], wb.Metrics[d.Name]
			if ma == nil || mb == nil || ma.Median == 0 {
				continue
			}
			compared++
			worse := (mb.Median - ma.Median) / ma.Median
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "regressed"
				regressed = true
			case ma.Spread > d.Bound || mb.Spread > d.Bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-12s %-24s %12.6g %12.6g %+8.2f%% of %-9.6g %6.1f%%  %s\n",
				wl.Name, d.Name, ma.Median, mb.Median, 100*worse, ma.Median, 100*d.Bound, verdict)
		}
	}
	if compared == 0 {
		return false, fmt.Errorf("no workload and end-to-end metric is in both files")
	}
	return regressed, nil
}
