package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"hexastore/internal/lubm"
)

// runConfig is one invocation's inputs: the four public knobs plus where
// the launcher put the server binary and the scratch directory.
type runConfig struct {
	workload     workload
	seed         int64
	universities int
	seconds      int
	dir          string // scratch directory inside the checkout
	serverBin    string
}

// instances is how many times a run starts the server. Two starts of the
// same binary on the same data differ by several percent in speed for
// their whole life (heap layout, page placement), so one instance per run
// would make runs disagree by that much; a run therefore splits its
// measured seconds evenly over this many instances and reports medians
// over them. setup_s is the median of the same starts.
const instances = 4

// window is the measured time on each instance.
func (c runConfig) window() time.Duration {
	return time.Duration(c.seconds) * time.Second / instances
}

// warmup is discarded traffic before each window: long enough for the
// plan cache, the result cache's hot head and the buffer pool to fill.
func (c runConfig) warmup() time.Duration {
	return min(max(c.window()/4, 500*time.Millisecond), 5*time.Second)
}

// report is everything one run prints besides the result line.
type report struct {
	Workload     string   `json:"workload"`
	Why          string   `json:"why"`
	Trace        int      `json:"trace"`
	Seed         int64    `json:"seed"`
	Universities int      `json:"universities"`
	Seconds      int      `json:"seconds"`
	WarmupS      float64  `json:"warmup_s"`
	Connections  int      `json:"connections"`
	Loop         string   `json:"loop"`
	NProc        int      `json:"nproc"`
	GoMaxProcs   int      `json:"gomaxprocs"`
	GoVersion    string   `json:"go_version"`
	Commit       string   `json:"commit"`
	Triples      int      `json:"triples"`
	DatasetHash  string   `json:"dataset_sha256"`
	StreamHash   string   `json:"stream_sha256"`
	ServerFlags  []string `json:"server_flags"`
	FlushPolicy  string   `json:"flush_policy"`
	ServerLog    string   `json:"server_log"`
	TraceFile    string   `json:"trace_file,omitempty"`

	SetupsS []float64 `json:"setups_s,omitempty"`
	// RSSPeakMB is each instance's VmHWM at the end of its window. It is
	// not a bounded metric: on the disk store it is set by whether a GC
	// cycle happens to run at the peak of the bulk load, and flips between
	// ~240 and ~290 MB from start to start.
	RSSPeakMB []float64       `json:"rss_peak_mb,omitempty"`
	Latency   *latencyFigures `json:"latency,omitempty"`

	Checked     int      `json:"answers_checked"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Failures    []string `json:"failures,omitempty"`
	AckedWrites int      `json:"acked_writes"`
	LostWrites  int      `json:"lost_writes"`
	WriteCheck  string   `json:"write_check,omitempty"`

	Metrics map[string]metric `json:"metrics,omitempty"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func newReport(cfg runConfig, trace int, ds dataset, st streams) *report {
	return &report{
		Workload: cfg.workload.Name, Why: cfg.workload.Why, Trace: trace,
		Seed: cfg.seed, Universities: cfg.universities, Seconds: cfg.seconds,
		WarmupS: cfg.warmup().Seconds(), Connections: connections,
		Loop:  "closed: each connection waits for its reply before sending the next request",
		NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
		Triples: ds.Triples, DatasetHash: ds.Hash, StreamHash: st.Hash,
		ServerFlags: append([]string{"-load", "<data set>"}, cfg.workload.serverArgs("<dir>")...),
		FlushPolicy: cfg.workload.flush,
		ServerLog:   filepath.Join(cfg.dir, "server-"+cfg.workload.Name+".log"),
	}
}

// runDir makes a scratch directory private to this run; the caller
// removes it.
func (c runConfig) runDir() (string, error) {
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(c.dir, fmt.Sprintf("run-%s-%d-", c.workload.Name, c.seed))
}

// serve starts the workload's server over ds in a fresh directory under
// run and returns it with its spawn-to-ready time.
func (c runConfig) serve(run string, n int, ds dataset, logPath string, extra ...string) (*serverProc, string, time.Duration, error) {
	sdir := filepath.Join(run, fmt.Sprintf("srv%d", n))
	if err := os.Mkdir(sdir, 0o755); err != nil {
		return nil, "", 0, err
	}
	args := append([]string{"-load", ds.Path}, c.workload.serverArgs(sdir)...)
	args = append(args, extra...)
	srv, took, err := startServer(c.serverBin, args, logPath)
	return srv, sdir, took, err
}

// runTimed is the tracing-off run: generate inputs, then on each of a
// few server instances set up, warm up and drive the closed loop through
// a measured window; afterwards check answers and, with writes,
// durability.
func runTimed(cfg runConfig) (*report, error) {
	run, err := cfg.runDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(run)

	orc := newOracle()
	ds, err := writeDataset(filepath.Join(run, "data.nt"), cfg.workload, cfg.universities, orc.load)
	if err != nil {
		return nil, err
	}
	st := makeStreams(cfg.workload, cfg.universities, cfg.seed)
	rep := newReport(cfg, 0, ds, st)

	drv := newDriver(cfg.workload, &st)
	var (
		wins           []window
		bytesPerTriple []float64
	)
	for i := 0; i < instances; i++ {
		win, err := func() (window, error) {
			srv, sdir, took, err := cfg.serve(run, i, ds, rep.ServerLog)
			if err != nil {
				return window{}, err
			}
			defer func() { srv.kill() }()
			rep.SetupsS = append(rep.SetupsS, took.Seconds())
			stats, err := srv.stats()
			if err != nil {
				return window{}, err
			}
			// Dictionary ids depend on how the two load workers interleave,
			// and the compressed lists' size on the ids, so even this
			// differs a little from start to start.
			bytesPerTriple = append(bytesPerTriple, max(num(stats, "indexBytesPerTriple"), num(stats, "diskBytesPerTriple")))
			win, err := drv.run(srv, cfg.warmup(), cfg.window())
			if err != nil || !cfg.workload.write || i < instances-1 {
				return win, err
			}

			// Durability, on the last instance: kill, restart on the same
			// WAL, read the enrolments back.
			rep.AckedWrites = drv.acked
			rep.WriteCheck = "process kill (SIGKILL) and restart on the same WAL; not a power-failure test"
			srv.kill()
			args := cfg.workload.serverArgs(sdir)
			if _, err := os.Stat(filepath.Join(sdir, "wal.log.snapshot")); err != nil {
				// No checkpoint yet: the base data comes from the file
				// again, the updates from the log.
				args = append([]string{"-load", ds.Path}, args...)
			}
			if srv, _, err = startServer(cfg.serverBin, args, rep.ServerLog+".restart"); err != nil {
				return win, fmt.Errorf("restart after kill: %w", err)
			}
			if rep.LostWrites, err = lostWrites(srv, cfg, drv.acked); err != nil {
				return win, err
			}
			if rep.LostWrites > 0 {
				drv.fail("%d acknowledged writes lost across kill and restart", rep.LostWrites)
			}
			return win, nil
		}()
		if err != nil {
			return nil, err
		}
		wins = append(wins, win)
		rep.RSSPeakMB = append(rep.RSSPeakMB, win.rssPeakMB)
	}

	for _, c := range drv.captured {
		if err := orc.sameAnswer(c.query, c.body); err != nil {
			drv.fail("wrong answer to %q: %v", c.query, err)
		}
	}
	rep.Checked = len(drv.captured)
	if rep.Checked == 0 {
		drv.fail("no answer was checked")
	}
	rep.Attempted = int(drv.attempts.Load())
	rep.Failed = drv.failed
	rep.Failures = drv.failures

	fig, err := figures(cfg.workload, wins)
	rep.Latency = &fig
	if err != nil {
		return rep, err
	}
	var ticks int64
	for _, win := range wins {
		ticks += win.cpuTicks
	}
	m := metricSet{
		"setup_s":                median(rep.SetupsS),
		"qps":                    fig.QPS,
		"read_p50_ms":            fig.P50ms,
		"read_tail_ms":           fig.TailMs,
		"cpu_ms_per_op":          float64(ticks*tickMillis) / float64(fig.Samples+fig.WriteSamples),
		"store_bytes_per_triple": median(bytesPerTriple),
	}
	var missing []string
	if rep.Metrics, missing = m.render(endToEnd, false); len(missing) > 0 {
		return rep, fmt.Errorf("metrics not measured: %v", missing)
	}
	return rep, nil
}

// lostWrites compares the restarted server's enrolment triples with what
// the acknowledged updates imply, and returns how many triples differ:
// acknowledged inserts that are missing plus acknowledged deletes that
// are still there.
func lostWrites(srv *serverProc, cfg runConfig, acked int) (int, error) {
	var buf bytes.Buffer
	q := fmt.Sprintf(`SELECT ?s ?c WHERE { ?s <%stakesCourse> ?c }`, lubm.Namespace)
	if err := query(newClient(), srv.base, q, &buf); err != nil {
		return 0, fmt.Errorf("read back enrolments: %w", err)
	}
	rows, err := responseRows(buf.Bytes())
	if err != nil {
		return 0, err
	}
	marker := "<" + lubm.Namespace + "BenchStudent"
	got := map[string]bool{}
	for _, r := range rows {
		if strings.Contains(r, marker) {
			got[r] = true
		}
	}
	courses := cfg.universities * deptsPerUniv * coursesPerDept
	diff := 0
	for b := 0; b < backlogBatches+writeRequests/2; b++ {
		inserted := b < backlogBatches || 2*(b-backlogBatches) < acked
		deleted := 2*b+1 < acked
		for j := 0; j < batchTriples; j++ {
			t := benchTriple(cfg.seed, b, j, courses)
			row := canonicalRow([]string{"s=" + t.Subject.Key(), "c=" + t.Object.Key()})
			if got[row] != (inserted && !deleted) {
				diff++
			}
			delete(got, row)
		}
	}
	return diff + len(got), nil
}
