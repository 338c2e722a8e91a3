package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"

	"hexastore/internal/lubm"
	"hexastore/internal/rdf"
)

// workload is one traffic mix with the server configuration it runs on.
type workload struct {
	Name string
	Why  string // one line, repeated in BENCHMARK.json and the README

	// serverArgs returns the hexserver flags besides -addr and -load;
	// dir is a scratch directory private to one server start.
	serverArgs func(dir string) []string
	// flush states the durability policy those flags select.
	flush string

	// tail is the latency percentile reported as read_tail_ms. It must
	// have well over ten samples beyond it at a tenth of the sandbox's
	// throughput, and it must lie inside a latency mode, not on the knee
	// between two: on the lookup workloads p99 separates ordinary
	// requests (p98 0.7 ms) from those a GC cycle or compaction delayed
	// (p99.5 3 ms) and moved 6-12 % between identical runs, where p99.9
	// moves 2-3 %.
	tail float64
	// zipf selects the skewed request distribution (lookup-mem); the
	// other lookup streams draw uniformly from the full constant pool.
	zipf  bool
	scan  bool // analytic rotation instead of lookups; result cache off
	disk  bool // disk store behind a diskCachePages buffer pool
	write bool // overlay and WAL; second connection issues updates

	// traceRequests is the fixed request count of the traced run, so
	// its counts repeat exactly.
	traceRequests int
	// checkCap bounds how many distinct queries are compared with the
	// oracle per run.
	checkCap int
}

// compactThreshold is mixed-live's -compact-threshold: with 16 delta
// entries per insert/delete pair it yields a compaction every ~1250
// pairs, several per measured window.
const compactThreshold = 20000

// diskCachePages is lookup-disk's -cache: a 2 MiB pool against an ~18 MiB
// store.
const diskCachePages = 512

var workloads = []workload{
	{
		Name: "lookup-mem",
		Why:  "zipfian selective lookups on the memory store with default caches: http, server, govern and the sparql caches do the work, the indexes little",
		serverArgs: func(string) []string {
			return nil
		},
		flush: "no durable state: memory store",
		tail:  0.999, zipf: true, traceRequests: 2000, checkCap: 256,
	},
	{
		Name: "scan-mem",
		Why:  "analytic joins returning up to MB-scale JSON, result cache off: join, decode and JSON encoding dominate, http framing and caches do little",
		serverArgs: func(string) []string {
			return []string{"-result-cache-bytes", "0"}
		},
		flush: "no durable state: memory store",
		tail:  0.95, scan: true, traceRequests: 42, checkCap: 42,
	},
	{
		Name: "lookup-disk",
		Why:  "uniform lookups on the disk store behind a 2 MiB buffer pool: result cache and pool miss, so disk, btree and pagefile do the work",
		serverArgs: func(dir string) []string {
			return []string{"-disk", dir + "/store", "-cache", fmt.Sprint(diskCachePages)}
		},
		flush: "bulk load flushed once before /readyz; the read-only window writes nothing",
		tail:  0.999, disk: true, traceRequests: 2000, checkCap: 256,
	},
	{
		Name: "mixed-live",
		Why:  "uniform lookups beside INSERT/DELETE batches through the overlay and an fsynced WAL: shows read-path gains that cost writes, epoch churn and compaction stalls",
		serverArgs: func(dir string) []string {
			return []string{"-live", "-wal", dir + "/wal.log", "-compact-threshold", fmt.Sprint(compactThreshold)}
		},
		flush: "WAL group commit, one fsync per acknowledged update batch (hexserver's default policy); snapshot and log truncation on a compaction no write raced",
		tail:  0.995, write: true, traceRequests: 2000, checkCap: 256,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The generator's per-department population, set explicitly so the
// constant pools below can be sized without reading lubm's defaults.
const (
	deptsPerUniv     = 15
	undergradPerDept = 120
	gradPerDept      = 30
	coursesPerDept   = 20
	fullPerDept      = 3
	assocPerDept     = 4
	assistPerDept    = 3
)

// datasetSeed fixes the data set: -seed varies the request streams, not
// the store they run on, so set-up time, memory and bytes per triple are
// comparable between runs with different seeds.
const datasetSeed = 1

func lubmConfig(universities int) lubm.Config {
	return lubm.Config{
		Universities: universities, Seed: datasetSeed,
		DeptsPerUniv: deptsPerUniv, UndergradPerDept: undergradPerDept,
		GradPerDept: gradPerDept, CoursesPerDept: coursesPerDept,
		FullPerDept: fullPerDept, AssocPerDept: assocPerDept, AssistPerDept: assistPerDept,
	}
}

// Write traffic: batches of batchTriples enrolment triples about
// students that exist only for the benchmark, so no read's answer depends
// on them. backlogBatches of them are bulk-loaded with the data set; the
// writer alternates INSERT of a new batch with DELETE of the oldest live
// one, so the store size is steady and every pair adds one add and one
// tombstone per triple to the delta.
const (
	batchTriples   = 8
	backlogBatches = 4096
	writeRequests  = 16384
)

func benchTriple(seed int64, batch, j, courses int) rdf.Triple {
	if batch < backlogBatches {
		seed = datasetSeed // the backlog is part of the data set
	}
	// splitmix64 of (seed, batch, j): every batch's courses are fixed by
	// the seed alone, whichever order batches are rendered in.
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(batch*batchTriples+j) + 1
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return rdf.T(
		rdf.NewIRI(fmt.Sprintf("%sBenchStudent%d", lubm.Namespace, batch*batchTriples+j)),
		lubm.PropTakesCourse,
		lubm.Course(int(x%uint64(courses))))
}

func updateText(verb string, seed int64, batch, courses int) string {
	var b strings.Builder
	b.WriteString(verb)
	b.WriteString(" DATA {")
	for j := 0; j < batchTriples; j++ {
		t := benchTriple(seed, batch, j, courses)
		fmt.Fprintf(&b, " <%s> <%s> <%s> .", t.Subject.Value, t.Predicate.Value, t.Object.Value)
	}
	b.WriteString(" }")
	return b.String()
}

// dataset is the generated input: an N-Triples file for the server and
// the same triples streamed to whoever else needs them in-process.
type dataset struct {
	Path    string
	Triples int
	Hash    string // sha256 of the file
}

// writeDataset generates the LUBM data (plus mixed-live's enrolment
// backlog) to path, handing every triple to each sink.
func writeDataset(path string, w workload, universities int, sinks ...func(rdf.Triple)) (dataset, error) {
	f, err := os.Create(path)
	if err != nil {
		return dataset{}, err
	}
	defer f.Close()
	h := sha256.New()
	bw := bufio.NewWriterSize(io.MultiWriter(f, h), 1<<20)
	nt := rdf.NewWriter(bw)
	n := 0
	var werr error
	emit := func(t rdf.Triple) bool {
		if werr = nt.Write(t); werr != nil {
			return false
		}
		for _, sink := range sinks {
			sink(t)
		}
		n++
		return true
	}
	lubmConfig(universities).Generate(emit)
	if w.write && werr == nil {
		courses := universities * deptsPerUniv * coursesPerDept
		for b := 0; b < backlogBatches && werr == nil; b++ {
			for j := 0; j < batchTriples; j++ {
				if !emit(benchTriple(datasetSeed, b, j, courses)) {
					break
				}
			}
		}
	}
	if werr == nil {
		werr = nt.Flush()
	}
	if werr == nil {
		werr = bw.Flush()
	}
	if werr == nil {
		werr = f.Close()
	}
	if werr != nil {
		return dataset{}, fmt.Errorf("write data set %s: %w", path, werr)
	}
	return dataset{Path: path, Triples: n, Hash: hex.EncodeToString(h.Sum(nil))}, nil
}

// stream is a pre-generated request sequence: order indexes pool, and a
// run that outlasts it wraps around.
type stream struct {
	pool  []string
	order []uint32
}

func (s *stream) at(i int) string { return s.pool[s.order[i%len(s.order)]] }

// streams are a workload's inputs besides the data set.
type streams struct {
	reads  stream
	writes []string // update texts in issue order; empty unless the workload writes
	Hash   string   // sha256 over every request text in order
}

const (
	lookupStreamLen = 1 << 18
	scanStreamLen   = 1 << 12
	zipfPerShape    = 1024
	zipfSkew        = 1.2
)

// The four selective shapes. The object-bound one is what the paper's
// osp/ops orderings add over COVP.
func joinQuery(course int) string {
	return fmt.Sprintf(`SELECT ?s ?d WHERE { ?s <%stakesCourse> <%sCourse%d> . ?s <%smemberOf> ?d }`,
		lubm.Namespace, lubm.Namespace, course, lubm.Namespace)
}
func starQuery(student string) string {
	return fmt.Sprintf(`SELECT ?p ?o WHERE { <%s> ?p ?o }`, student)
}
func twoBoundQuery(student string) string {
	return fmt.Sprintf(`SELECT ?c WHERE { <%s> <%stakesCourse> ?c }`, student, lubm.Namespace)
}
func objectQuery(object string) string {
	return fmt.Sprintf(`SELECT ?s ?p WHERE { ?s ?p <%s> }`, object)
}

func studentIRI(universities, i int) string {
	undergrads := universities * deptsPerUniv * undergradPerDept
	if i < undergrads {
		return lubm.UndergraduateStudent(i).Value
	}
	return lubm.GraduateStudent(i - undergrads).Value
}

// objectIRI enumerates the object-bound shape's constants: departments
// (members, staff, courses: ~180 rows) and professors (advisees and
// publications: ~10 rows). Courses are left out because mixed-live's
// writes enrol students in them, and reads must not depend on writes.
func objectIRI(universities, i int) string {
	depts := universities * deptsPerUniv
	if i < depts {
		return lubm.Department(i).Value
	}
	i -= depts
	for _, rank := range []struct {
		n    int
		term func(int) rdf.Term
	}{{fullPerDept, lubm.FullProfessor}, {assocPerDept, lubm.AssociateProfessor}, {assistPerDept, lubm.AssistantProfessor}} {
		if i < depts*rank.n {
			return rank.term(i).Value
		}
		i -= depts * rank.n
	}
	panic("objectIRI: index out of range")
}

// scanShapes are the analytic rotation: the five join shapes the
// repository's evaluator figures time (sparql01-05, copied so that the
// workload cannot change under the benchmark), an ORDER BY … LIMIT over a
// unique key (so the cut is deterministic) and a FILTER between two
// variables.
var scanShapes = []string{
	`SELECT ?student ?course WHERE { ?student <lubm:advisor> ?prof . ?prof <lubm:teacherOf> ?course }`,
	`SELECT ?student ?course WHERE { ?student <lubm:advisor> ?prof . ?prof <lubm:teacherOf> ?course . ?student <lubm:takesCourse> ?course }`,
	`SELECT DISTINCT ?prof WHERE { ?student <lubm:advisor> ?prof . ?student <lubm:takesCourse> ?course }`,
	`SELECT ?prof (COUNT(?student) AS ?n) WHERE { ?student <lubm:advisor> ?prof } GROUP BY ?prof`,
	`SELECT ?prof (COUNT(DISTINCT ?student) AS ?n) WHERE { ?student <lubm:advisor> ?prof . ?student <lubm:takesCourse> ?course } GROUP BY ?prof`,
	`SELECT ?student ?prof WHERE { ?student <lubm:advisor> ?prof } ORDER BY ?student LIMIT 100`,
	`SELECT ?student ?course WHERE { ?student <lubm:teachingAssistantOf> ?course . ?student <lubm:advisor> ?prof . ?prof <lubm:teacherOf> ?c2 . FILTER (?course != ?c2) }`,
}

// restrict narrows an analytic shape to the students of one university.
func restrict(shape string, university int) string {
	return strings.Replace(shape, "{",
		fmt.Sprintf("{ ?student <%smemberOf> ?dept . ?dept <%ssubOrganizationOf> <%s> . ",
			lubm.Namespace, lubm.Namespace, lubm.University(university).Value), 1)
}

// makeStreams generates w's request streams from seed.
func makeStreams(w workload, universities int, seed int64) streams {
	rng := rand.New(rand.NewSource(seed))
	var s streams
	switch {
	case w.scan:
		s.reads = scanStream(rng, universities)
	case w.zipf:
		s.reads = zipfStream(rng, universities)
	default:
		s.reads = uniformStream(rng, universities)
	}
	if w.write {
		courses := universities * deptsPerUniv * coursesPerDept
		s.writes = make([]string, writeRequests)
		for k := range s.writes {
			if k%2 == 0 {
				s.writes[k] = updateText("INSERT", seed, backlogBatches+k/2, courses)
			} else {
				s.writes[k] = updateText("DELETE", seed, k/2, courses)
			}
		}
	}
	h := sha256.New()
	var idx [4]byte
	for _, q := range s.reads.pool {
		io.WriteString(h, q)
		h.Write([]byte{0})
	}
	for _, i := range s.reads.order {
		binary.LittleEndian.PutUint32(idx[:], i)
		h.Write(idx[:])
	}
	for _, u := range s.writes {
		io.WriteString(h, u)
		h.Write([]byte{0})
	}
	s.Hash = hex.EncodeToString(h.Sum(nil))
	return s
}

// lookupPool renders the four shapes over constants picked by pick, which
// returns the indexes to use out of n candidates. starts[k] is where shape
// k's queries begin in the pool; starts[4] is its length.
func lookupPool(universities int, pick func(n int) []int) (pool []string, starts [5]int) {
	courses := universities * deptsPerUniv * coursesPerDept
	students := universities * deptsPerUniv * (undergradPerDept + gradPerDept)
	objects := universities * deptsPerUniv * (1 + fullPerDept + assocPerDept + assistPerDept)
	for _, c := range pick(courses) {
		pool = append(pool, joinQuery(c))
	}
	starts[1] = len(pool)
	for _, i := range pick(students) {
		pool = append(pool, starQuery(studentIRI(universities, i)))
	}
	starts[2] = len(pool)
	for _, i := range pick(students) {
		pool = append(pool, twoBoundQuery(studentIRI(universities, i)))
	}
	starts[3] = len(pool)
	for _, i := range pick(objects) {
		pool = append(pool, objectQuery(objectIRI(universities, i)))
	}
	starts[4] = len(pool)
	return pool, starts
}

// Both lookup streams rotate through the four shapes, so every run has
// the same shape mix whatever the seed; the seed picks the constants.

// zipfStream: ~1k constants per shape in a seeded popularity order, the
// constant of each request drawn with a zipfian rank distribution so that
// every shape has a hot head that repeats.
func zipfStream(rng *rand.Rand, universities int) stream {
	// Which constants are popular is part of the workload, not of the
	// seed: a department as an object's rank 1 (180 rows a reply) instead
	// of a professor (10 rows) made seeds differ by 20 % in throughput.
	popularity := rand.New(rand.NewSource(datasetSeed))
	pool, starts := lookupPool(universities, func(n int) []int {
		perm := popularity.Perm(n)
		if len(perm) > zipfPerShape {
			perm = perm[:zipfPerShape]
		}
		return perm
	})
	var ranks [4]*rand.Zipf
	for k := range ranks {
		ranks[k] = rand.NewZipf(rng, zipfSkew, 1, uint64(starts[k+1]-starts[k]-1))
	}
	order := make([]uint32, lookupStreamLen)
	for i := range order {
		k := i % 4
		order[i] = uint32(starts[k]) + uint32(ranks[k].Uint64())
	}
	return stream{pool: pool, order: order}
}

// uniformStream: every constant of every shape, drawn uniformly, so
// repeats are rare and caches sized for a hot set miss.
func uniformStream(rng *rand.Rand, universities int) stream {
	pool, starts := lookupPool(universities, func(n int) []int {
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		return all
	})
	order := make([]uint32, lookupStreamLen)
	for i := range order {
		k := i % 4
		order[i] = uint32(starts[k] + rng.Intn(starts[k+1]-starts[k]))
	}
	return stream{pool: pool, order: order}
}

// scanStream: rounds of the seven shapes, two unrestricted and then one
// restricted to a uniformly drawn university. The restricted queries take
// a few milliseconds, six of the unrestricted ones a few tens and the
// advisor→teacherOf join, with its ~4 MB answer, over a hundred. At two
// unrestricted rounds in three the median falls among the six and the
// 95th percentile inside the large join, each in the middle of a latency
// mode; at one in two the median sat in the gap between two modes and
// moved by 13 % between identical runs.
func scanStream(rng *rand.Rand, universities int) stream {
	shapes := scanShapes
	pool := append([]string(nil), shapes...)
	for u := 0; u < universities; u++ {
		for _, sh := range shapes {
			pool = append(pool, restrict(sh, u))
		}
	}
	order := make([]uint32, scanStreamLen)
	for i := range order {
		shape := i % len(shapes)
		if (i/len(shapes))%3 < 2 {
			order[i] = uint32(shape)
		} else {
			order[i] = uint32(len(shapes)*(1+rng.Intn(universities)) + shape)
		}
	}
	return stream{pool: pool, order: order}
}
