// Package bench is the experiment harness that regenerates every figure
// of the Hexastore paper's evaluation section (§5.3): response-time
// sweeps over progressively larger data prefixes for the twelve
// benchmark queries (Figures 3–14) and the memory-usage measurement
// (Figure 15), each with one series per competing store.
//
// The harness follows the paper's methodology: the full data set is
// generated once, prefixes of increasing length are loaded into all
// three stores over a shared dictionary, and each query implementation
// is timed per prefix (best of Repeats runs, smoothing scheduler noise).
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"hexastore/internal/barton"
	"hexastore/internal/lubm"
	"hexastore/internal/queries"
	"hexastore/internal/rdf"
)

// Point is one measurement: data-set prefix size versus the metric
// (seconds for response-time figures, megabytes for Figure 15).
type Point struct {
	Triples int
	Value   float64
}

// Series is a named line of a figure (one per store variant).
type Series struct {
	Name   string
	Points []Point
}

// Figure is one reproduced figure of the paper.
type Figure struct {
	ID     string // e.g. "fig03"
	Title  string // e.g. "Barton data set, Query 1"
	YLabel string // "seconds" or "MB"
	Series []Series
}

// WriteTable prints the figure as an aligned table: one row per prefix
// size, one column per series — the same numbers the paper plots.
func (f *Figure) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s (%s)\n", f.ID, f.Title, f.YLabel); err != nil {
		return err
	}
	fmt.Fprintf(w, "%12s", "triples")
	for _, s := range f.Series {
		fmt.Fprintf(w, " %14s", s.Name)
	}
	fmt.Fprintln(w)
	if len(f.Series) == 0 {
		return nil
	}
	for i := range f.Series[0].Points {
		fmt.Fprintf(w, "%12d", f.Series[0].Points[i].Triples)
		for _, s := range f.Series {
			fmt.Fprintf(w, " %14.6f", s.Points[i].Value)
		}
		fmt.Fprintln(w)
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Config parameterizes a full benchmark run. Zero fields take defaults
// sized for a laptop-scale run (the paper swept to 6M triples on a 16GB
// Opteron; the shapes are scale-invariant, and MaxTriples can be raised).
type Config struct {
	BartonRecords    int // catalog records to generate (default 30000)
	LUBMUniversities int // universities to generate (default 10)
	Steps            int // prefix points per figure (default 6)
	Repeats          int // timing repeats, best-of (default 3)
	Seed             int64
	// Workers is the parallelism budget for the load pipeline and
	// intra-query joins (default runtime.GOMAXPROCS(0)).
	Workers int
}

func (c Config) withDefaults() Config {
	if c.BartonRecords == 0 {
		c.BartonRecords = 30_000
	}
	if c.LUBMUniversities == 0 {
		c.LUBMUniversities = 10
	}
	if c.Steps == 0 {
		c.Steps = 6
	}
	if c.Repeats == 0 {
		c.Repeats = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// FigureIDs lists every figure the harness can regenerate, in paper
// order. fig15a/fig15b are the two panels of Figure 15.
var FigureIDs = []string{
	"fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
	"fig10", "fig11", "fig12", "fig13", "fig14", "fig15a", "fig15b",
}

var figureTitles = map[string]string{
	"fig03":  "Barton data set, Query 1",
	"fig04":  "Barton data set, Query 2",
	"fig05":  "Barton data set, Query 3",
	"fig06":  "Barton data set, Query 4",
	"fig07":  "Barton data set, Query 5",
	"fig08":  "Barton data set, Query 6",
	"fig09":  "Barton data set, Query 7",
	"fig10":  "LUBM data set, Query 1",
	"fig11":  "LUBM data set, Query 2",
	"fig12":  "LUBM data set, Query 3",
	"fig13":  "LUBM data set, Query 4",
	"fig14":  "LUBM data set, Query 5",
	"fig15a": "Memory Consumption - Barton Dataset",
	"fig15b": "Memory Consumption - LUBM Dataset",
}

// bartonFigures maps figure id → whether it has 28-property variants.
var bartonFigures = map[string]bool{
	"fig03": false, "fig04": true, "fig05": true, "fig06": true,
	"fig07": false, "fig08": true, "fig09": false,
}

var lubmFigures = map[string]bool{
	"fig10": false, "fig11": false, "fig12": false, "fig13": false, "fig14": false,
}

// Run regenerates the requested figures (all of FigureIDs when ids is
// empty). The progress callback, if non-nil, receives one line per
// loaded prefix.
func Run(cfg Config, ids []string, progress func(string)) ([]*Figure, error) {
	cfg = cfg.withDefaults()
	if len(ids) == 0 {
		ids = FigureIDs
	}
	want := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, ok := figureTitles[id]; !ok {
			return nil, fmt.Errorf("bench: unknown figure %q (known: %v)", id, FigureIDs)
		}
		want[id] = true
	}

	var figures []*Figure
	if anyIn(want, bartonFigures) || want["fig15a"] {
		data := barton.Config{Records: cfg.BartonRecords, Seed: cfg.Seed}.GenerateAll()
		figures = append(figures, sweepDataset(cfg, "barton", data, want, progress)...)
	}
	if anyIn(want, lubmFigures) || want["fig15b"] {
		data := lubm.Config{Universities: cfg.LUBMUniversities, Seed: cfg.Seed}.GenerateAll()
		figures = append(figures, sweepDataset(cfg, "lubm", data, want, progress)...)
	}
	sort.Slice(figures, func(i, j int) bool { return figures[i].ID < figures[j].ID })
	return figures, nil
}

func anyIn(want map[string]bool, group map[string]bool) bool {
	for id := range group {
		if want[id] {
			return true
		}
	}
	return false
}

// measurement identifies one (figure, series) cell filled per prefix.
type measurement struct {
	figID  string
	series string
	run    func() // timed body; nil for memory series (filled directly)
}

func sweepDataset(cfg Config, dataset string, data []rdf.Triple, want map[string]bool, progress func(string)) []*Figure {
	figs := make(map[string]*Figure)
	ensure := func(id string) *Figure {
		f, ok := figs[id]
		if !ok {
			ylabel := "seconds"
			if id == "fig15a" || id == "fig15b" {
				ylabel = "MB"
			}
			f = &Figure{ID: id, Title: figureTitles[id], YLabel: ylabel}
			figs[id] = f
		}
		return f
	}
	addPoint := func(id, series string, triples int, p Point) {
		p.Triples = triples
		f := ensure(id)
		for i := range f.Series {
			if f.Series[i].Name == series {
				f.Series[i].Points = append(f.Series[i].Points, p)
				return
			}
		}
		f.Series = append(f.Series, Series{Name: series, Points: []Point{p}})
	}

	for _, n := range prefixSizes(len(data), cfg.Steps) {
		s := queries.Load(data[:n])
		triples := s.Hexa.Len()
		if progress != nil {
			progress(fmt.Sprintf("%s: loaded prefix of %d triples (%d distinct)", dataset, n, triples))
		}

		var ms []measurement
		switch dataset {
		case "barton":
			ms = bartonMeasurements(s, want)
			if want["fig15a"] {
				addMemoryPoints(addPoint, "fig15a", s, triples)
			}
		case "lubm":
			ms = lubmMeasurements(s, want)
			if want["fig15b"] {
				addMemoryPoints(addPoint, "fig15b", s, triples)
			}
		}
		for _, m := range ms {
			addPoint(m.figID, m.series, triples, Point{Value: timeBest(cfg.Repeats, m.run)})
		}
	}

	out := make([]*Figure, 0, len(figs))
	for _, f := range figs {
		out = append(out, f)
	}
	return out
}

// prefixSizes returns Steps evenly spaced prefix lengths ending at n.
func prefixSizes(n, steps int) []int {
	if steps < 1 {
		steps = 1
	}
	out := make([]int, 0, steps)
	for i := 1; i <= steps; i++ {
		out = append(out, n*i/steps)
	}
	return out
}

// timeBest runs fn repeats times and returns the fastest wall-clock
// duration in seconds.
func timeBest(repeats int, fn func()) float64 {
	best := time.Duration(1<<62 - 1)
	for i := 0; i < repeats; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best.Seconds()
}

func addMemoryPoints(addPoint func(id, series string, triples int, p Point), id string, s *queries.Stores, triples int) {
	const mb = 1 << 20
	dictBytes := s.Dict.SizeBytes()
	addPoint(id, "Hexastore", triples, Point{Value: float64(s.Hexa.Stats().SizeBytes()+dictBytes) / mb})
	addPoint(id, "COVP1", triples, Point{Value: float64(s.C1.Stats().SizeBytes()+dictBytes) / mb})
	addPoint(id, "COVP2", triples, Point{Value: float64(s.C2.Stats().SizeBytes()+dictBytes) / mb})
}
