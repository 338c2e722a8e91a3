// Package hexastore is a production-quality RDF triple store
// implementing the sextuple-indexing architecture of Weiss, Karras and
// Bernstein, "Hexastore: Sextuple Indexing for Semantic Web Data
// Management" (VLDB 2008), with interchangeable storage backends behind
// one Graph interface.
//
// A Hexastore materializes all six orderings of the RDF triple elements
// (spo, sop, pso, pos, osp, ops). The in-memory rendering packs each
// head's vectors as delta+varint bytes in immutable arenas; the disk
// rendering keeps the six orderings as B+-trees in one pagefile (the
// "fully operational disk-based Hexastore" of the paper's §7). In
// exchange for the space, every statement pattern — with any combination
// of bound subject, predicate and object — is answered from a
// purpose-built index.
//
// # Opening a store
//
// Open selects the backend with functional options and returns a handle
// that the SPARQL query and update engines, the serializers, and the
// HTTP server all accept:
//
//	db, _ := hexastore.Open()                          // in-memory Hexastore (delta overlay)
//	db, _ := hexastore.Open(hexastore.WithDisk(dir))   // disk-based Hexastore
//	db, _ := hexastore.Open(hexastore.WithBaseline())  // flat triples table
//	defer db.Close()
//
//	db.AddTriple(hexastore.T(
//	    hexastore.IRI("alice"), hexastore.IRI("knows"), hexastore.IRI("bob")))
//
//	res, _ := db.Query(`SELECT ?who WHERE { <alice> <knows> ?who }`)
//	db.Update(`INSERT DATA { <alice> <knows> <carol> }`)
//
// A Store built with NewBuilder, LoadNTriples or Restore is sealed: it
// answers queries (Query, AsGraph) but takes no writes. Open
// returns the writable in-memory handle: a delta overlay over a sealed
// store. See the examples directory for complete programs, and the
// README's "The paper's query figures" for the paper reproduction.
package hexastore

import (
	"context"
	"errors"
	"io"
	"sync"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/dictionary"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/idlist"
	"hexastore/internal/obs"
	"hexastore/internal/query"
	"hexastore/internal/rdf"
	"hexastore/internal/sparql"
	"hexastore/internal/triplestore"
)

// Core data-model types.
type (
	// Store is the sealed six-index in-memory Hexastore.
	Store = core.Store
	// Builder bulk-loads a Store (sort-once construction).
	Builder = core.Builder
	// Stats reports index sizes and the §4.1 space-expansion factor.
	Stats = core.Stats
	// Index names one of the six orderings (SPO … OPS).
	Index = core.Index
	// Vec is one vector of an index as Store.Head returns it: sorted keys,
	// each with its terminal list, read in place from the packed store.
	Vec = idlist.Packed
	// View is a read-only sorted id list: a Vec entry's terminal list, or
	// what Store.Objects, Subjects and Properties return.
	View = idlist.View
	// List is a raw sorted id list, as the Engine's joins return it.
	List = idlist.List
	// ID is a dictionary-encoded resource identifier.
	ID = dictionary.ID
	// Dictionary maps RDF terms to IDs and back.
	Dictionary = dictionary.Dictionary
	// Term is an RDF term (IRI, literal, or blank node).
	Term = rdf.Term
	// Triple is one RDF statement.
	Triple = rdf.Triple
	// Graph is the backend-neutral store interface all query layers
	// accept; see package internal/graph.
	Graph = graph.Graph
	// Engine evaluates patterns, joins and path expressions over the
	// index vectors of a sealed in-memory Store.
	Engine = query.Engine
	// Pattern is a triple pattern with None as the wildcard.
	Pattern = query.Pattern
	// Result holds SPARQL-subset query solutions.
	Result = sparql.Result
	// Row is one query solution.
	Row = sparql.Row
	// UpdateResult reports the effect of a SPARQL UPDATE request.
	UpdateResult = sparql.UpdateResult
	// Trace is a query execution trace: a span tree with per-step
	// cardinality estimates and actuals (see QueryTraced and the
	// EXPLAIN / EXPLAIN ANALYZE query prefixes).
	Trace = obs.Trace
)

// None is the unbound/wildcard marker in patterns.
const None = dictionary.None

// The six index orderings.
const (
	SPO = core.SPO
	SOP = core.SOP
	PSO = core.PSO
	POS = core.POS
	OSP = core.OSP
	OPS = core.OPS
)

// DB is a Graph-backed store handle returned by Open. It embeds the
// backend Graph, so a *DB can be passed anywhere a Graph is accepted
// (sparql.Exec, server.NewGraph, WriteNTriples, …) while adding
// string-level conveniences and lifecycle management.
//
// The DB methods are safe to call concurrently with each other. On the
// backends that mutate in place (disk without an overlay, baseline),
// mutations (Update, AddTriple, RemoveTriple) are serialized against
// queries and serializers, because query evaluation nests store read
// locks and a writer arriving between two nested read locks would
// deadlock both goroutines; calling the embedded Graph's mutation
// methods directly bypasses this guard. Every other backend pins
// snapshots and needs no guard.
type DB struct {
	graph.Graph
	closer io.Closer

	// overlay is the delta overlay behind Graph: always for the memory
	// backend, with WithWAL or WithDeltaOverlay for the others; nil
	// otherwise.
	overlay *delta.Overlay

	// mu orders DB-level operations: queries and serializers share it,
	// mutations take it exclusively. With an overlay the lock is not
	// taken at all — readers pin immutable snapshots and the
	// backend serializes its own writers, so queries stream concurrently
	// with updates.
	mu sync.RWMutex

	// queryTimeout and memBudget are the handle-level query limits set
	// with WithQueryTimeout / WithMemBudget; zero means unlimited.
	queryTimeout time.Duration
	memBudget    int64

	// plMu guards the lazily built planner; planCacheSize and
	// resultCacheBytes are the cache budgets it is built with (see
	// WithPlanCache / WithResultCache).
	plMu             sync.Mutex
	pl               *sparql.Planner
	planCacheSize    int
	resultCacheBytes int64
}

// Unwrap exposes the backend behind the handle — the concrete store, or
// the delta overlay — so layers handed a *DB find its capabilities.
func (db *DB) Unwrap() any { return graph.Unwrap(db.Graph) }

// options collects the Open configuration.
type options struct {
	dir              string
	cacheSize        int
	dict             *dictionary.Dictionary
	baseline         bool
	overlay          bool
	walPath          string
	compactThreshold int
	compress         bool
	queryTimeout     time.Duration
	memBudget        int64
	planCacheSize    int
	resultCacheBytes int64
}

// Option configures Open.
type Option func(*options)

// WithDisk selects the disk-based Hexastore rooted at dir. A store
// already present in dir is opened; otherwise a new one is created.
func WithDisk(dir string) Option { return func(o *options) { o.dir = dir } }

// WithDiskCache sets the disk backend's buffer pool capacity in pages
// (0 = pagefile default). It has no effect on in-memory backends.
func WithDiskCache(pages int) Option { return func(o *options) { o.cacheSize = pages } }

// WithDictionary makes an in-memory backend share dict, so several
// stores can be compared on identical ids. The disk backend persists
// its own dictionary and rejects this option.
func WithDictionary(d *Dictionary) Option { return func(o *options) { o.dict = d } }

// WithBaseline selects the unindexed triples-table baseline — the
// "conventional solution" the paper argues against, useful as a
// differential-testing reference.
func WithBaseline() Option { return func(o *options) { o.baseline = true } }

// WithDeltaOverlay wraps the chosen backend in the live-update MVCC
// overlay (package delta): the main indexes stay immutable for readers,
// writes land in a small sorted in-memory delta, queries pin consistent
// snapshots without locking against writers, and background compaction
// folds the delta into the main. The memory backend always has one — it
// is how a sealed store takes writes — so the option matters for the
// disk and baseline backends. Durability follows the backend: on the
// disk backend every DB.Update still ends durable (Flush merges the
// delta into the trees eagerly when no WAL absorbs it); on the memory
// backend there is none. Combine with WithWAL for group-committed
// durability and crash recovery on either backend.
func WithDeltaOverlay() Option { return func(o *options) { o.overlay = true } }

// WithWAL enables the write-ahead log at path (implies WithDeltaOverlay):
// every update is group-committed to the log before it becomes visible,
// and Open replays the log after a crash. For the in-memory backend,
// checkpoints additionally persist the compacted store to path+".snapshot"
// (restored by Open) so the log can be truncated; the disk backend
// truncates after flushing its trees.
func WithWAL(path string) Option {
	return func(o *options) {
		o.walPath = path
		o.overlay = true
	}
}

// WithCompactThreshold sets the delta size (pending adds + tombstones)
// that triggers background compaction of a delta overlay; 0 keeps the
// default (delta.DefaultCompactThreshold), negative disables automatic
// compaction. No effect on a disk or baseline backend without
// WithDeltaOverlay/WithWAL.
func WithCompactThreshold(n int) Option { return func(o *options) { o.compactThreshold = n } }

// WithCompression selects delta-packed B+-tree leaf pages for the disk
// backend (on by default); false writes fixed-width leaf records, which
// the differential test suites compare against. The memory backend has
// one layout, always packed, and ignores the option.
func WithCompression(on bool) Option { return func(o *options) { o.compress = on } }

// WithQueryTimeout bounds every Query/QueryContext on the handle: an
// evaluation exceeding d fails with context.DeadlineExceeded. A tighter
// deadline already on the QueryContext context wins. 0 (the default)
// means no handle-level deadline.
func WithQueryTimeout(d time.Duration) Option {
	return func(o *options) { o.queryTimeout = d }
}

// WithMemBudget bounds every Query/QueryContext on the handle to n bytes
// of engine memory: a query whose join pieces, fetched lists and result
// rows would cross it fails with govern.ErrBudgetExceeded instead of
// exhausting process memory. 0 (the default) means unlimited.
func WithMemBudget(n int64) Option {
	return func(o *options) { o.memBudget = n }
}

// DefaultResultCacheBytes is the handle-level default result-cache
// budget (see WithResultCache).
const DefaultResultCacheBytes = 32 << 20

// WithPlanCache sets the handle's query-shape plan cache capacity in
// entries; negative disables it, 0 keeps the default
// (sparql.DefaultPlanCacheSize). The plan cache memoizes the cost-based
// planner's join order and access-path choices per canonical query
// shape, invalidated when statistics are refreshed.
func WithPlanCache(entries int) Option {
	return func(o *options) { o.planCacheSize = entries }
}

// WithResultCache sets the handle's result-cache budget in bytes;
// negative disables it, 0 keeps the default (DefaultResultCacheBytes).
// The result cache serves repeated read queries directly when the
// store's snapshot epoch is unchanged since the answer was computed;
// any write invalidates it exactly. Backends without snapshot epochs
// (the baseline triples table) never consult it.
func WithResultCache(bytes int64) Option {
	return func(o *options) { o.resultCacheBytes = bytes }
}

// Open returns a Graph-backed store handle. With no options it opens an
// empty in-memory Hexastore behind a delta overlay; see WithDisk,
// WithBaseline, WithDictionary, WithDiskCache, WithDeltaOverlay, WithWAL,
// WithQueryTimeout and WithMemBudget.
func Open(opts ...Option) (*DB, error) {
	o := options{compress: true}
	for _, fn := range opts {
		fn(&o)
	}
	var (
		base       graph.Graph
		baseCloser io.Closer
	)
	switch {
	case o.dir != "" && o.baseline:
		return nil, errors.New("hexastore: WithDisk and WithBaseline are mutually exclusive")
	case o.dir != "":
		if o.dict != nil {
			return nil, errors.New("hexastore: WithDictionary is not supported for disk stores (the dictionary is persisted with the store)")
		}
		var (
			st  *disk.Store
			err error
		)
		dopts := disk.Options{CacheSize: o.cacheSize, Uncompressed: !o.compress}
		if disk.Exists(o.dir) {
			st, err = disk.Open(o.dir, dopts)
		} else {
			st, err = disk.Create(o.dir, dopts)
		}
		if err != nil {
			return nil, err
		}
		base, baseCloser = graph.Disk(st), st
	case o.baseline:
		base = graph.Baseline(triplestore.New(o.dict))
	default:
		var st *core.Store
		switch {
		case o.walPath != "" && o.dict != nil:
			return nil, errors.New("hexastore: WithDictionary is not supported with WithWAL (the dictionary is restored from the snapshot)")
		case o.walPath != "":
			// Crash recovery, step 1: restore the last checkpoint
			// snapshot, if one was written; WAL replay (step 2, inside
			// delta.Open) re-applies everything since.
			restored, ok, err := delta.RestoreSnapshot(nil, o.walPath+".snapshot")
			if err != nil {
				return nil, err
			}
			if ok {
				st = restored
			} else {
				st = core.New()
			}
		case o.dict != nil:
			st = core.NewShared(o.dict)
		default:
			st = core.New()
		}
		base = graph.Memory(st)
		o.overlay = true // a sealed store takes writes only through an overlay
	}

	if !o.overlay {
		return newDB(base, baseCloser, o), nil
	}
	dopts := delta.Options{
		WALPath:          o.walPath,
		CompactThreshold: o.compactThreshold,
	}
	if o.walPath != "" && o.dir == "" && !o.baseline {
		dopts.SnapshotPath = o.walPath + ".snapshot"
	}
	ov, err := delta.Open(base, dopts)
	if err != nil {
		if baseCloser != nil {
			baseCloser.Close()
		}
		return nil, err
	}
	// The overlay's Close checkpoints, closes the WAL and closes the
	// underlying store, so it replaces the base closer.
	db := newDB(ov, ov, o)
	db.overlay = ov
	return db, nil
}

// newDB assembles the handle shared by every Open path.
func newDB(g graph.Graph, closer io.Closer, o options) *DB {
	return &DB{
		Graph:            g,
		closer:           closer,
		queryTimeout:     o.queryTimeout,
		memBudget:        o.memBudget,
		planCacheSize:    o.planCacheSize,
		resultCacheBytes: o.resultCacheBytes,
	}
}

// Close flushes and releases the backend. In-memory backends are a
// no-op.
func (db *DB) Close() error {
	if db.closer != nil {
		return db.closer.Close()
	}
	return nil
}

// Flush persists buffered state on durable backends; a no-op otherwise.
func (db *DB) Flush() error { return graph.Flush(db.Graph) }

// Checkpoint folds a delta overlay into its main store, persists the
// result (disk flush, or the WAL-side snapshot for the in-memory
// backend) and truncates the WAL. Without an overlay it is Flush.
func (db *DB) Checkpoint() error {
	if db.overlay != nil {
		return db.overlay.Checkpoint()
	}
	return db.Flush()
}

// Compact synchronously merges a delta overlay's pending writes into the
// main indexes; a no-op without an overlay.
func (db *DB) Compact() error {
	if db.overlay != nil {
		return db.overlay.Compact()
	}
	return nil
}

// DeltaStats reports the live-update state of the delta overlay; ok is
// false when the DB was opened without one.
func (db *DB) DeltaStats() (stats delta.Stats, ok bool) {
	if db.overlay == nil {
		return delta.Stats{}, false
	}
	return db.overlay.Stats(), true
}

// planner returns the handle's cost-based planner, building dataset
// statistics on first use (Open stays O(1); the first query pays the
// scan) and refreshing them lazily once the store has drifted ≥10% from
// the summary they were built on. A refresh bumps the planner's stats
// epoch — invalidating memoized plans — but stale statistics between
// refreshes only degrade join ordering, never correctness: the result
// cache keys on the store's snapshot epoch, which every write bumps
// immediately.
func (db *DB) planner() *sparql.Planner {
	db.plMu.Lock()
	defer db.plMu.Unlock()
	if db.pl == nil {
		pl := sparql.NewPlanner(db.Graph)
		if db.planCacheSize != 0 {
			pl.SetPlanCacheSize(db.planCacheSize)
		}
		if db.resultCacheBytes != 0 {
			pl.SetResultCacheBytes(db.resultCacheBytes)
		} else {
			pl.SetResultCacheBytes(DefaultResultCacheBytes)
		}
		db.pl = pl
		return pl
	}
	db.pl.RefreshIfDrifted()
	return db.pl
}

// CacheStats reports the handle's plan- and result-cache counters
// (building the planner if no query has run yet).
func (db *DB) CacheStats() sparql.CacheStats { return db.planner().CacheStats() }

// rlock takes the shared DB lock unless the backend is an overlay
// (whose readers pin immutable snapshots instead of locking).
func (db *DB) rlock() func() {
	if db.overlay != nil {
		return func() {}
	}
	db.mu.RLock()
	return db.mu.RUnlock
}

// wlock takes the exclusive DB lock unless the backend is an overlay
// (which serializes its own writers without blocking readers).
func (db *DB) wlock() func() {
	if db.overlay != nil {
		return func() {}
	}
	db.mu.Lock()
	return db.mu.Unlock
}

// AddTriple dictionary-encodes and inserts a triple.
func (db *DB) AddTriple(t Triple) (bool, error) {
	defer db.wlock()()
	return graph.AddTriple(db.Graph, t)
}

// RemoveTriple deletes a triple.
func (db *DB) RemoveTriple(t Triple) (bool, error) {
	defer db.wlock()()
	return graph.RemoveTriple(db.Graph, t)
}

// HasTriple reports whether a triple is present.
func (db *DB) HasTriple(t Triple) (bool, error) {
	defer db.rlock()()
	return graph.HasTriple(db.Graph, t)
}

// Query parses and evaluates a SPARQL-subset SELECT/ASK query. On an
// overlay backend the evaluation pins one consistent snapshot and runs
// without blocking (or being blocked by) Update.
func (db *DB) Query(src string) (*Result, error) {
	return db.QueryContext(context.Background(), src)
}

// QueryContext is Query observing ctx and the handle-level limits
// (WithQueryTimeout, WithMemBudget): the evaluation stops with
// ctx.Err() shortly after ctx is done — mid-join, at block granularity,
// releasing any pinned snapshot — and fails typed when it would cross
// the memory budget.
func (db *DB) QueryContext(ctx context.Context, src string) (*Result, error) {
	defer db.rlock()()
	if db.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, db.queryTimeout)
		defer cancel()
	}
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, err
	}
	return db.planner().EvalOpts(ctx, q, sparql.EvalOptions{MemBudget: db.memBudget})
}

// QueryTraced is QueryContext with execution tracing: it returns the
// result alongside the query's span tree — planner choice and pattern
// order with cardinality estimates, per-step rows in/out, merge-vs-probe
// decisions and pieces per step. A query with the EXPLAIN
// prefix returns the plan tree and no rows; with EXPLAIN ANALYZE — or
// with no prefix at all — it returns rows plus the executed trace.
func (db *DB) QueryTraced(ctx context.Context, src string) (*Result, *Trace, error) {
	defer db.rlock()()
	if db.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, db.queryTimeout)
		defer cancel()
	}
	q, err := sparql.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	tr := obs.NewTrace("query")
	// A trace must describe the execution that produced these rows, so a
	// traced query never serves from (or fills) the result cache; the
	// plan cache still applies and is reported in the plan span.
	res, err := db.planner().EvalOpts(ctx, q, sparql.EvalOptions{
		MemBudget: db.memBudget, Trace: tr, NoResultCache: true,
	})
	tr.Finish()
	if err != nil {
		return nil, tr, err
	}
	return res, tr, nil
}

// Update parses and applies a SPARQL UPDATE request (INSERT DATA /
// DELETE DATA) and flushes durable backends. On an overlay backend the
// whole request is one atomic batch (single WAL group commit, single
// version swap).
func (db *DB) Update(src string) (*UpdateResult, error) {
	return db.UpdateContext(context.Background(), src)
}

// UpdateContext is Update observing ctx at request granularity: a
// request whose context is already done is not applied at all, but an
// admitted batch always completes — aborting half-applied mutations
// would leave state no client asked for.
func (db *DB) UpdateContext(ctx context.Context, src string) (*UpdateResult, error) {
	defer db.wlock()()
	res, err := sparql.ExecUpdateContext(ctx, db.Graph, src)
	if err != nil {
		return res, err
	}
	return res, db.Flush()
}

// WriteNTriples serializes the store to w in N-Triples syntax.
func (db *DB) WriteNTriples(w io.Writer) error {
	defer db.rlock()()
	return WriteNTriples(graph.Snapshot(db.Graph), w)
}

// WriteTurtle serializes the store to w in Turtle syntax.
func (db *DB) WriteTurtle(w io.Writer, prefixes map[string]string) error {
	defer db.rlock()()
	return WriteTurtle(graph.Snapshot(db.Graph), w, prefixes)
}

// NewDictionary returns an empty term dictionary.
func NewDictionary() *Dictionary { return dictionary.New() }

// NewBuilder returns a bulk loader producing a Store that shares dict
// (pass nil for a fresh dictionary).
func NewBuilder(dict *Dictionary) *Builder { return core.NewBuilder(dict) }

// AsGraph adapts a sealed in-memory Store to the (read-only) Graph
// interface.
func AsGraph(st *Store) Graph { return graph.Memory(st) }

// NewEngine returns a query engine over the in-memory store st.
func NewEngine(st *Store) *Engine { return query.NewEngine(st) }

// IRI returns an IRI term.
func IRI(iri string) Term { return rdf.NewIRI(iri) }

// Literal returns a literal term.
func Literal(value string) Term { return rdf.NewLiteral(value) }

// Blank returns a blank-node term.
func Blank(label string) Term { return rdf.NewBlank(label) }

// T assembles a triple from three terms.
func T(s, p, o Term) Triple { return rdf.T(s, p, o) }

// ParseTriple parses one N-Triples line.
func ParseTriple(line string) (Triple, error) { return rdf.ParseTriple(line) }

// LoadNTriples bulk-loads an N-Triples stream into a new Store on one
// goroutine. Use LoadNTriplesParallel to spread parsing, encoding and
// index construction across cores; the Store is the same either way.
func LoadNTriples(r io.Reader) (*Store, error) {
	return LoadNTriplesParallel(r, 1)
}

// LoadNTriplesParallel bulk-loads an N-Triples stream into a new Store
// using up to workers goroutines end to end: the stream is parsed and
// dictionary-encoded in blocks of lines (see core.EncodeNTriples), then
// indexed by the parallel sort-once build (core.Builder.BuildParallel).
// workers <= 0 means runtime.GOMAXPROCS(0). Dictionary ids are given in
// one canonical order — predicates, then IRIs and blank nodes, then
// literals, each in order of first occurrence — so the Store, ids
// included, is the same for every worker count.
func LoadNTriplesParallel(r io.Reader, workers int) (*Store, error) {
	b := core.NewBuilder(nil)
	if _, err := b.AddNTriples(r, workers); err != nil {
		return nil, err
	}
	return b.BuildParallel(workers), nil
}

// WriteNTriples serializes every triple of g to w in N-Triples syntax.
func WriteNTriples(g Graph, w io.Writer) error {
	nw := rdf.NewWriter(w)
	var werr error
	if err := graph.DecodeMatch(g, None, None, None, func(t Triple) bool {
		werr = nw.Write(t)
		return werr == nil
	}); err != nil {
		return err
	}
	if werr != nil {
		return werr
	}
	return nw.Flush()
}

// Query parses and evaluates a SPARQL-subset SELECT query against the
// in-memory store st. See package sparql for the supported grammar
// (PREFIX, FILTER, OPTIONAL, UNION, ORDER BY, LIMIT, OFFSET). For other
// backends use QueryGraph or a DB handle from Open. It plans without
// statistics: patterns run connected first, then most bound first, then
// in text order, so two patterns that bind the same number of positions
// run in the order written whatever their sizes. A DB handle's Query
// orders joins by dataset statistics.
func Query(st *Store, src string) (*Result, error) { return sparql.Exec(graph.Memory(st), src) }

// QueryGraph parses and evaluates a SPARQL-subset SELECT/ASK query
// against any Graph backend. Like Query, it plans without statistics.
func QueryGraph(g Graph, src string) (*Result, error) { return sparql.Exec(g, src) }

// Update parses and applies a SPARQL UPDATE request (INSERT DATA /
// DELETE DATA) against any Graph backend.
func Update(g Graph, src string) (*UpdateResult, error) { return sparql.ExecUpdate(g, src) }

// LoadTurtle bulk-loads a Turtle stream into a new Store. The supported
// Turtle subset covers @prefix/@base, prefixed names, 'a', predicate and
// object lists, and literal suffixes; see rdf.TurtleReader.
func LoadTurtle(r io.Reader) (*Store, error) {
	return LoadTurtleParallel(r, 1)
}

// LoadTurtleParallel bulk-loads a Turtle stream with up to workers
// goroutines (workers <= 0 means runtime.GOMAXPROCS(0)). Turtle is
// stateful (@prefix, predicate/object lists), so parsing stays on one
// goroutine; the encoding and the index build parallelize, and ids are
// given in the canonical order LoadNTriplesParallel describes, the same
// for every worker count.
func LoadTurtleParallel(r io.Reader, workers int) (*Store, error) {
	b := core.NewBuilder(nil)
	if _, err := b.AddTurtle(r, workers); err != nil {
		return nil, err
	}
	return b.BuildParallel(workers), nil
}

// ParseTurtle parses a complete Turtle document.
func ParseTurtle(src string) ([]Triple, error) { return rdf.ParseTurtle(src) }

// WriteTurtle serializes every triple of g to w in Turtle syntax,
// compacting IRIs against the given prefix map and grouping triples by
// subject (the spo iteration order makes the grouping maximal).
func WriteTurtle(g Graph, w io.Writer, prefixes map[string]string) error {
	var triples []Triple
	if err := graph.DecodeMatch(g, None, None, None, func(t Triple) bool {
		triples = append(triples, t)
		return true
	}); err != nil {
		return err
	}
	return rdf.WriteTurtle(w, prefixes, triples)
}

// Restore reads a snapshot written with (*Store).Snapshot.
func Restore(r io.Reader) (*Store, error) { return core.Restore(r) }
