// Package torture is the crash-consistency torture harness: it drives
// seeded randomized workloads through the fault-injection filesystem
// (internal/iofault), crashes them at every enumerated fault point —
// each mutating filesystem operation (write, sync, truncate, rename,
// remove) is a distinct on-disk state the machine can die at, including
// torn final writes — then "reboots" by reopening the store through the
// real filesystem and verifies recovery:
//
//   - structural invariants hold (disk B+-tree CheckIntegrity);
//   - the recovered triple set equals the in-memory reference model
//     after exactly M workload batches, for some M between the last
//     batch whose Apply was acknowledged (WAL fsync returned) and the
//     batch in flight at the crash — the standard crash contract:
//     acknowledged writes are never lost, the in-flight write is
//     atomically in or out, nothing else moves;
//   - a SPARQL differential: a query set answers identically on the
//     recovered store and on a fresh in-memory store built from the
//     reference state M.
//
// Two scenarios run. "memory" covers the memory store with WAL and
// snapshot checkpoints, crashing through appends, group-commit fsyncs,
// snapshot tmp-write/fsync/rename, WAL truncation, and Close. "disk"
// covers the disk-backed store behind the delta overlay, crashing
// through the WAL-append window over a bulk-loaded pagefile. Disk
// checkpoint merges rewrite B+-tree pages in place and are not
// power-fail atomic (torn pages are detected by per-page CRCs, not
// rolled back), so the disk scenario keeps its durable main immutable
// during the crash window — the documented recovery story for a crash
// mid-merge is re-seeding the store, not silent self-repair.
package torture

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/iofault"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
)

// Options parameterize a torture campaign.
type Options struct {
	// Seed makes the whole campaign deterministic: workload, crash
	// points, and tear fractions all derive from it.
	Seed int64
	// Runs is the total number of crash runs, split across the
	// scenarios (default 200). When a scenario has more runs than fault
	// points, every point is hit at least once and extra cycles revisit
	// them with different tear fractions.
	Runs int
	// Batches is the number of workload batches in the scripted history
	// (default 24). More batches mean more fault points per run.
	Batches int
	// Dir roots the scratch stores; empty uses a temp dir that is
	// removed afterwards.
	Dir string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Violation is one failed crash-recovery check.
type Violation struct {
	Scenario string
	Run      int
	CrashAt  int64   // mutation ordinal the crash fired at
	Tear     float64 // torn-write fraction (<0 = clean cut after the op)
	Detail   string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s run %d (crash at mutation %d, tear %.2f): %s",
		v.Scenario, v.Run, v.CrashAt, v.Tear, v.Detail)
}

// Result summarizes a campaign.
type Result struct {
	Runs        int   // crash runs executed
	FaultPoints int64 // enumerated fault points across scenarios
	Violations  []Violation
}

// Err returns nil for a clean campaign, else an error naming the first
// violation.
func (r *Result) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return fmt.Errorf("torture: %d violation(s); first: %s", len(r.Violations), r.Violations[0])
}

// Run executes the campaign.
func Run(opts Options) (*Result, error) {
	if opts.Runs <= 0 {
		opts.Runs = 200
	}
	if opts.Batches <= 0 {
		opts.Batches = 24
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	root := opts.Dir
	if root == "" {
		var err error
		root, err = os.MkdirTemp("", "hextorture")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(root)
	}

	res := &Result{}
	diskRuns := opts.Runs / 2
	memRuns := opts.Runs - diskRuns
	for _, job := range []struct {
		sc   scenario
		runs int
	}{
		{memoryScenario(), memRuns},
		{diskScenario(), diskRuns},
	} {
		if job.runs == 0 {
			continue
		}
		if err := runScenario(job.sc, root, opts.Seed, job.runs, opts.Batches, logf, res); err != nil {
			return res, err
		}
	}
	return res, nil
}

// scenario is one store configuration under torture. open builds the
// store through fsys (the injector during runs); reopen is the
// post-crash reboot through the real filesystem, including any
// structural integrity checks.
type scenario struct {
	name         string
	checkpoints  bool // sprinkle synchronous Checkpoint calls into the script
	includeClose bool // enumerate crash points inside Close's checkpoint too
	seedTriples  int  // triples made durable before the crash window opens
	open         func(fsys iofault.FS, dir string, seed []rdf.Triple) (*delta.Overlay, error)
	reopen       func(dir string) (graph.Graph, func() error, error)
}

func memoryScenario() scenario {
	open := func(fsys iofault.FS, dir string, _ []rdf.Triple) (*delta.Overlay, error) {
		walPath := filepath.Join(dir, "store.wal")
		snap := walPath + ".snapshot"
		st, ok, err := delta.RestoreSnapshot(fsys, snap)
		if err != nil {
			return nil, err
		}
		if !ok {
			st = core.New()
		}
		return delta.Open(graph.Memory(st), delta.Options{
			WALPath:          walPath,
			SnapshotPath:     snap,
			CompactThreshold: -1, // manual only: op sequences must be deterministic
			FS:               fsys,
		})
	}
	return scenario{
		name:         "memory",
		checkpoints:  true,
		includeClose: true,
		open:         open,
		reopen: func(dir string) (graph.Graph, func() error, error) {
			ov, err := open(nil, dir, nil)
			if err != nil {
				return nil, nil, err
			}
			return ov, ov.Close, nil
		},
	}
}

func diskScenario() scenario {
	const cache = 256
	return scenario{
		name:        "disk",
		seedTriples: 40,
		open: func(fsys iofault.FS, dir string, seed []rdf.Triple) (*delta.Overlay, error) {
			root := filepath.Join(dir, "disk")
			var (
				st  *disk.Store
				err error
			)
			dopts := disk.Options{CacheSize: cache, FS: fsys}
			if disk.Exists(root) {
				st, err = disk.Open(root, dopts)
			} else {
				st, err = disk.Create(root, dopts)
				if err == nil && len(seed) > 0 {
					ids := core.EncodeTriples(st.Dictionary(), seed, 1)
					if lerr := st.BulkLoadParallel(ids, 1); lerr != nil {
						st.Close()
						return nil, lerr
					}
					if ferr := st.Flush(); ferr != nil {
						st.Close()
						return nil, ferr
					}
				}
			}
			if err != nil {
				return nil, err
			}
			ov, err := delta.Open(graph.Disk(st), delta.Options{
				WALPath:          filepath.Join(dir, "store.wal"),
				CompactThreshold: -1,
				FS:               fsys,
			})
			if err != nil {
				st.Close()
				return nil, err
			}
			return ov, nil
		},
		reopen: func(dir string) (graph.Graph, func() error, error) {
			st, err := disk.Open(filepath.Join(dir, "disk"), disk.Options{CacheSize: cache})
			if err != nil {
				return nil, nil, err
			}
			if err := st.CheckIntegrity(); err != nil {
				st.Close()
				return nil, nil, fmt.Errorf("integrity: %w", err)
			}
			ov, err := delta.Open(graph.Disk(st), delta.Options{
				WALPath:          filepath.Join(dir, "store.wal"),
				CompactThreshold: -1,
			})
			if err != nil {
				st.Close()
				return nil, nil, err
			}
			return ov, ov.Close, nil
		},
	}
}

// runScenario sizes the fault-point window with a fault-free dry run,
// then executes the crash runs.
func runScenario(sc scenario, root string, seed int64, runs, nBatches int, logf func(string, ...any), res *Result) error {
	rng := rand.New(rand.NewSource(seed))
	u := newUniverse()
	seedSet := makeSeed(rng, u, sc.seedTriples)
	script := makeScript(rng, u, nBatches, sc.checkpoints, seedSet)
	states := refStates(seedSet, script)

	// Dry run: apply the whole script fault-free and record the
	// mutation ordinals bracketing the crash window. Every crash run
	// replays the identical script, so ordinals line up exactly.
	dryDir := filepath.Join(root, sc.name+"-dry")
	if err := os.MkdirAll(dryDir, 0o755); err != nil {
		return err
	}
	inj := iofault.NewInjector(nil)
	ov, err := sc.open(inj, dryDir, seedSet)
	if err != nil {
		return fmt.Errorf("torture: %s dry open: %w", sc.name, err)
	}
	lo := inj.Mutations()
	for i := range script {
		if _, _, aerr := ov.ApplyTriples(script[i].ops); aerr != nil {
			ov.Close()
			return fmt.Errorf("torture: %s dry batch %d: %w", sc.name, i, aerr)
		}
		if script[i].checkpoint {
			if cerr := ov.Checkpoint(); cerr != nil {
				ov.Close()
				return fmt.Errorf("torture: %s dry checkpoint %d: %w", sc.name, i, cerr)
			}
		}
	}
	end := inj.Mutations()
	if cerr := ov.Close(); cerr != nil {
		return fmt.Errorf("torture: %s dry close: %w", sc.name, cerr)
	}
	hiMut := end
	if sc.includeClose {
		hiMut = inj.Mutations()
	}
	os.RemoveAll(dryDir)
	points := hiMut - lo
	if points <= 0 {
		return fmt.Errorf("torture: %s enumerated no fault points", sc.name)
	}
	res.FaultPoints += points
	logf("torture: %s: %d fault points (mutations %d..%d), %d crash runs", sc.name, points, lo+1, hiMut, runs)

	tears := []float64{-1, 0.5, 0, 0.9, 0.25}
	for r := 0; r < runs; r++ {
		var crashAt int64
		if int64(runs) >= points {
			crashAt = lo + 1 + int64(r)%points
		} else {
			// Fewer runs than points: spread evenly over the window.
			crashAt = lo + 1 + int64(r)*points/int64(runs)
		}
		tear := tears[(int64(r)/points)%int64(len(tears))]
		v, err := crashRun(sc, root, script, states, seedSet, r, crashAt, tear)
		if err != nil {
			return err
		}
		res.Runs++
		if v != nil {
			res.Violations = append(res.Violations, *v)
			logf("torture: VIOLATION: %s", v)
		}
		if (r+1)%50 == 0 {
			logf("torture: %s: %d/%d runs, %d violations", sc.name, r+1, runs, len(res.Violations))
		}
	}
	return nil
}

// crashRun executes one workload-until-crash, reboots, and verifies.
func crashRun(sc scenario, root string, script []batch, states []tripleState, seedSet []rdf.Triple, r int, crashAt int64, tear float64) (*Violation, error) {
	dir := filepath.Join(root, fmt.Sprintf("%s-run%d", sc.name, r))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	viol := func(format string, args ...any) *Violation {
		return &Violation{Scenario: sc.name, Run: r, CrashAt: crashAt, Tear: tear, Detail: fmt.Sprintf(format, args...)}
	}

	inj := iofault.NewInjector(nil).CrashAtMutation(crashAt, tear)
	ov, err := sc.open(inj, dir, seedSet)
	if err != nil {
		// The window starts after setup, so setup must never crash.
		return viol("open failed before the crash window: %v", err), nil
	}
	// applied = batches whose Apply acknowledged (WAL-durable);
	// hi = the furthest batch whose records could have reached disk
	// (the in-flight batch may have been fully written before the
	// crashing fsync).
	applied, hi := 0, 0
	for i := range script {
		if _, _, aerr := ov.ApplyTriples(script[i].ops); aerr != nil {
			hi = applied + 1
			break
		}
		applied = i + 1
		hi = applied
		if script[i].checkpoint {
			if cerr := ov.Checkpoint(); cerr != nil {
				break // checkpoint changes no logical state: hi stays applied
			}
		}
	}
	ov.Close() //nolint:errcheck // the simulated machine is off; errors are the point
	if hi > len(script) {
		hi = len(script)
	}

	// Reboot: reopen through the real filesystem. Everything the
	// injector let through (including torn prefixes) is on disk.
	g, closeG, err := sc.reopen(dir)
	if err != nil {
		return viol("reopen after crash: %v", err), nil
	}
	defer closeG() //nolint:errcheck // verification already done by then
	got, err := tripleSet(g)
	if err != nil {
		return viol("enumerate recovered store: %v", err), nil
	}
	match := -1
	for cand := applied; cand <= hi; cand++ {
		if setsEqual(got, states[cand]) {
			match = cand
			break
		}
	}
	if match < 0 {
		return viol("recovered %d triples match no durable prefix (acked batch %d, in-flight %d): %s",
			len(got), applied, hi, diffDetail(got, states[applied])), nil
	}

	// SPARQL differential: the recovered store and a fresh in-memory
	// store built from reference state `match` must answer identically.
	ref := buildReference(states[match])
	for _, q := range diffQueries {
		want, werr := queryCanon(ref, q)
		if werr != nil {
			return nil, fmt.Errorf("torture: reference query %q: %w", q, werr)
		}
		gotQ, gerr := queryCanon(g, q)
		if gerr != nil {
			return viol("query %q on recovered store: %v", q, gerr), nil
		}
		if want != gotQ {
			return viol("SPARQL differential mismatch at state %d for %q: recovered %d rows, reference %d rows",
				match, q, strings.Count(gotQ, "\n")+1, strings.Count(want, "\n")+1), nil
		}
	}
	return nil, nil
}

// ---- workload model ----

// batch is one scripted update batch, optionally followed by a
// synchronous checkpoint.
type batch struct {
	ops        []graph.TripleOp
	checkpoint bool
}

type tripleState map[rdf.Triple]struct{}

// universe is the closed term vocabulary the workload draws from. Small
// on purpose: collisions (re-adds, removes of live triples, re-adds of
// removed ones) are where recovery bugs live.
type universe struct {
	subj, pred, obj []rdf.Term
}

func newUniverse() universe {
	iri := func(kind string, i int) rdf.Term {
		return rdf.NewIRI(fmt.Sprintf("http://hex.test/%s%d", kind, i))
	}
	var u universe
	for i := 0; i < 12; i++ {
		u.subj = append(u.subj, iri("s", i))
	}
	for i := 0; i < 4; i++ {
		u.pred = append(u.pred, iri("p", i))
	}
	// Objects overlap subjects so join queries have real paths.
	u.obj = append(u.obj, u.subj...)
	for i := 0; i < 12; i++ {
		u.obj = append(u.obj, iri("o", i))
	}
	for i := 0; i < 6; i++ {
		u.obj = append(u.obj, rdf.NewLiteral(fmt.Sprintf("value %d", i)))
	}
	return u
}

func (u universe) randTriple(rng *rand.Rand) rdf.Triple {
	return rdf.Triple{
		Subject:   u.subj[rng.Intn(len(u.subj))],
		Predicate: u.pred[rng.Intn(len(u.pred))],
		Object:    u.obj[rng.Intn(len(u.obj))],
	}
}

// makeSeed draws n distinct triples for pre-window durable state.
func makeSeed(rng *rand.Rand, u universe, n int) []rdf.Triple {
	seen := tripleState{}
	var out []rdf.Triple
	for len(out) < n {
		t := u.randTriple(rng)
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// makeScript generates the deterministic batch script. A live list (not
// a map — map iteration order would break determinism) biases removes
// toward triples actually present.
func makeScript(rng *rand.Rand, u universe, nBatches int, checkpoints bool, seed []rdf.Triple) []batch {
	live := append([]rdf.Triple(nil), seed...)
	idx := map[rdf.Triple]int{}
	for i, t := range live {
		idx[t] = i
	}
	script := make([]batch, 0, nBatches)
	for b := 0; b < nBatches; b++ {
		n := 1 + rng.Intn(6)
		ops := make([]graph.TripleOp, 0, n)
		for k := 0; k < n; k++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				j := rng.Intn(len(live))
				t := live[j]
				last := len(live) - 1
				live[j] = live[last]
				idx[live[j]] = j
				live = live[:last]
				delete(idx, t)
				ops = append(ops, graph.TripleOp{Del: true, T: t})
			} else {
				t := u.randTriple(rng)
				ops = append(ops, graph.TripleOp{T: t})
				if _, ok := idx[t]; !ok {
					idx[t] = len(live)
					live = append(live, t)
				}
			}
		}
		script = append(script, batch{ops: ops, checkpoint: checkpoints && rng.Intn(6) == 0})
	}
	return script
}

// refStates computes the reference model after each batch: states[i] is
// the triple set once batches[0..i-1] have applied (states[0] is the
// seeded initial state).
func refStates(seed []rdf.Triple, script []batch) []tripleState {
	cur := tripleState{}
	for _, t := range seed {
		cur[t] = struct{}{}
	}
	clone := func() tripleState {
		c := make(tripleState, len(cur))
		for t := range cur {
			c[t] = struct{}{}
		}
		return c
	}
	states := make([]tripleState, 0, len(script)+1)
	states = append(states, clone())
	for _, b := range script {
		for _, op := range b.ops {
			if op.Del {
				delete(cur, op.T)
			} else {
				cur[op.T] = struct{}{}
			}
		}
		states = append(states, clone())
	}
	return states
}

// ---- verification ----

func tripleSet(g graph.Graph) (tripleState, error) {
	set := tripleState{}
	err := graph.DecodeMatch(g, graph.None, graph.None, graph.None, func(t rdf.Triple) bool {
		set[t] = struct{}{}
		return true
	})
	return set, err
}

func setsEqual(a, b tripleState) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if _, ok := b[t]; !ok {
			return false
		}
	}
	return true
}

// diffDetail names one triple separating got from want, for violation
// reports.
func diffDetail(got, want tripleState) string {
	for t := range got {
		if _, ok := want[t]; !ok {
			return fmt.Sprintf("extra triple %v (vs acked state, %d triples)", t, len(want))
		}
	}
	for t := range want {
		if _, ok := got[t]; !ok {
			return fmt.Sprintf("missing triple %v (vs acked state, %d triples)", t, len(want))
		}
	}
	return fmt.Sprintf("sizes equal to acked state (%d) but some later state differs", len(want))
}

// buildReference bulk-builds an in-memory store holding exactly state.
func buildReference(state tripleState) graph.Graph {
	ts := make([]rdf.Triple, 0, len(state))
	for t := range state {
		ts = append(ts, t)
	}
	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), ts, 1))
	return graph.Memory(b.BuildParallel(1))
}

// diffQueries is the SPARQL differential set: a full scan, a bound
// predicate, a join, and an ASK.
var diffQueries = []string{
	"SELECT ?s ?p ?o WHERE { ?s ?p ?o }",
	"SELECT ?s ?o WHERE { ?s <http://hex.test/p0> ?o }",
	"SELECT ?a ?b WHERE { ?a <http://hex.test/p1> ?x . ?x <http://hex.test/p2> ?b }",
	"ASK { <http://hex.test/s0> ?p ?o }",
}

// queryCanon runs q and renders the result in a canonical order-free
// form so two stores can be compared textually.
func queryCanon(g graph.Graph, q string) (string, error) {
	res, err := sparql.NewPlanner(g).Exec(q)
	if err != nil {
		return "", err
	}
	if res.IsAsk {
		return fmt.Sprintf("ask:%v", res.Answer), nil
	}
	rows := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		parts := make([]string, 0, len(row))
		for name, term := range row {
			parts = append(parts, fmt.Sprintf("%s=%d:%s", name, term.Kind, term.Value))
		}
		sort.Strings(parts)
		rows = append(rows, strings.Join(parts, "|"))
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n"), nil
}
