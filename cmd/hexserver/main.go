// Command hexserver serves a Hexastore over HTTP: a SPARQL-subset query
// endpoint (SPARQL 1.1 JSON results), a SPARQL UPDATE endpoint
// (INSERT DATA / DELETE DATA), bulk N-Triples/Turtle ingestion, and
// store statistics. The same HTTP API serves either the in-memory
// Hexastore (default) or the disk-based Hexastore (-disk). The memory
// store always sits behind the live-update subsystem — an MVCC delta
// overlay in which queries pin consistent snapshots and never block on
// updates — and -wal adds a group-committed write-ahead log for crash
// recovery. -live puts the disk store behind the overlay too.
//
// -ship serves the leader's WAL over TCP, and -follow runs a read-only
// replica: an in-memory overlay that tails the leader's log (from the
// file, or from tcp:// of a -ship leader).
//
// Usage:
//
//	hexserver [-addr :8751] [-disk dir] [-load data.nt] [-turtle data.ttl]
//	          [-live] [-wal path] [-compact-threshold n]
//	          [-ship addr]
//	          [-max-queries n] [-query-timeout d] [-mem-budget 64M]
//	          [-plan-cache n] [-result-cache-bytes 32M]
//	hexserver -follow <walpath|tcp://addr>
//
// Endpoints:
//
//	GET/POST /sparql?query=SELECT...   run a query
//	POST     /sparql update=INSERT...  apply an update (also Content-Type application/sparql-update)
//	POST     /triples                  ingest N-Triples (or text/turtle)
//	GET      /stats                    store statistics
//	GET      /healthz                  liveness probe (process up)
//	GET      /readyz                   readiness probe: 503 while draining for shutdown,
//	                                   while the store is sticky-degraded (poisoned WAL,
//	                                   failed compaction), or while a replica's followers
//	                                   are degraded / beyond -max-replica-lag
//
// Example session:
//
//	hexserver -load university.nt -wal university.wal &
//	curl 'localhost:8751/sparql?query=SELECT+?s+WHERE+{?s+?p+?o}+LIMIT+5'
//	curl -d 'update=INSERT DATA { <s> <p> <o> }' localhost:8751/sparql
//
// With -disk the store persists across restarts; startup files bulk-load
// only into a fresh (empty) disk store. With -wal, updates survive a
// crash: the log replays on the next start, and SIGINT/SIGTERM trigger a
// graceful shutdown — in-flight requests drain, then the store
// checkpoints (delta compacted, snapshot/flush written, WAL truncated)
// before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/disk"
	"hexastore/internal/govern"
	"hexastore/internal/graph"
	"hexastore/internal/rdf"
	"hexastore/internal/replica"
	"hexastore/internal/server"
	"hexastore/internal/sparql"
)

func main() {
	addr := flag.String("addr", ":8751", "listen address")
	diskDir := flag.String("disk", "", "serve a disk-based Hexastore rooted at this directory (created if absent)")
	load := flag.String("load", "", "N-Triples file to load at startup")
	turtle := flag.String("turtle", "", "Turtle file to load at startup")
	cache := flag.Int("cache", 4096, "disk buffer pool capacity in pages")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0),
		"goroutines for the startup bulk load and per-query join parallelism; 1 = sequential")
	live := flag.Bool("live", false,
		"serve -disk through the MVCC delta overlay: queries pin snapshots and never block on updates (the memory store always is)")
	walPath := flag.String("wal", "",
		"write-ahead log path for crash-safe updates (implies -live); replayed on start, truncated at checkpoints")
	compactThreshold := flag.Int("compact-threshold", 0,
		"delta size triggering background compaction (0 = default, negative = manual only)")
	ship := flag.String("ship", "",
		"serve the WAL on this TCP address for -follow replicas (requires -wal)")
	follow := flag.String("follow", "",
		"run as a read-only replica tailing a leader's WAL: its path, or tcp://host:port of a -ship leader")
	drain := flag.Duration("drain", 10*time.Second, "graceful-shutdown drain timeout")
	drainGrace := flag.Duration("drain-grace", 0,
		"delay between failing /readyz and stopping the listener on shutdown, so load balancers observe the flip and stop routing here first")
	maxInflight := flag.Int("max-inflight", 1024,
		"concurrently served non-query requests before load-shedding with 503 + Retry-After (0 = unlimited); /sparql traffic is admitted by the query governor instead (-max-queries)")
	reqTimeout := flag.Duration("request-timeout", 30*time.Second,
		"per-request deadline: the request's context expires after this long, and a query or update still running answers 408 (0 = unlimited)")
	maxQueries := flag.Int("max-queries", 64,
		"concurrently executing /sparql queries; excess waits briefly in a bounded deadline-aware queue, then sheds with 503 + Retry-After (0 = unlimited)")
	queryTimeout := flag.Duration("query-timeout", 0,
		"per-query deadline; an expired query answers 408 (0 = none beyond -request-timeout)")
	memBudget := flag.String("mem-budget", "",
		"per-query memory limit (e.g. 64M, 1G): a query whose join pieces, fetched lists and result rows would cross it fails with 503 instead of OOMing — at the value itself, where earlier releases wrote temp files and failed at 4x it (empty = unlimited)")
	slowQuery := flag.Duration("slow-query", time.Second,
		"log queries slower than this, with their peak memory (0 = disable)")
	planCache := flag.Int("plan-cache", sparql.DefaultPlanCacheSize,
		"query-shape plan cache capacity in entries: repeated query shapes reuse the memoized join order until statistics refresh (0 = disable)")
	resultCache := flag.String("result-cache-bytes", "32M",
		"snapshot-epoch result cache budget (e.g. 32M, 1G): repeated read queries answer from cache until any write bumps the store epoch (empty or 0 = disable)")
	maxReplicaLag := flag.Duration("max-replica-lag", 30*time.Second,
		"replica readiness bound: /readyz fails when a follower has not heard from its leader within this window (0 = no lag check)")
	pprofFlag := flag.Bool("pprof", false,
		"expose net/http/pprof profiling endpoints under /debug/pprof/ (off by default: they reveal internals and cost CPU on demand)")
	flag.Parse()

	// Large joins inside a single query partition across this many
	// workers (requests are additionally served concurrently by net/http).
	sparql.SetMaxWorkers(*workers)
	budget, err := govern.ParseBytes(*memBudget)
	if err != nil {
		log.Fatalf("hexserver: -mem-budget: %v", err)
	}
	resultCacheBytes, err := govern.ParseBytes(*resultCache)
	if err != nil {
		log.Fatalf("hexserver: -result-cache-bytes: %v", err)
	}

	var triples []rdf.Triple
	for _, f := range []struct {
		path   string
		turtle bool
	}{{*load, false}, {*turtle, true}} {
		if f.path == "" {
			continue
		}
		ts, err := readFile(f.path, f.turtle)
		if err != nil {
			log.Fatalf("hexserver: %v", err)
		}
		triples = append(triples, ts...)
	}

	var (
		g        graph.Graph
		closer   func() error
		follower *replica.Follower
	)
	switch {
	case *follow != "":
		if *diskDir != "" || len(triples) > 0 || *walPath != "" || *ship != "" {
			log.Fatalf("hexserver: -follow replicas build their state from the leader's WAL alone (no -disk/-load/-turtle/-wal/-ship)")
		}
		ov, f, err := openReplica(*follow, *compactThreshold)
		if err != nil {
			log.Fatalf("hexserver: %v", err)
		}
		g, closer, follower = ov, ov.Close, f
	default:
		var err error
		g, closer, err = openStore(*diskDir, *cache, *walPath, triples, *workers)
		if err != nil {
			log.Fatalf("hexserver: %v", err)
		}
		if *live || *walPath != "" || *diskDir == "" {
			ov, oerr := delta.Open(g, delta.Options{
				WALPath:          *walPath,
				SnapshotPath:     snapshotPath(*diskDir, *walPath),
				CompactThreshold: *compactThreshold,
			})
			if oerr != nil {
				log.Fatalf("hexserver: open overlay: %v", oerr)
			}
			// Overlay.Close checkpoints, closes the WAL and the main store.
			g, closer = ov, ov.Close
			if st := ov.Stats(); st.WALBytes > 8 || st.DeltaAdds+st.DeltaDels > 0 {
				log.Printf("hexserver: WAL replay recovered %d pending adds, %d tombstones (%d WAL bytes)",
					st.DeltaAdds, st.DeltaDels, st.WALBytes)
			}
		}
	}

	// -ship: serve the leader's WAL to TCP followers. The
	// follower protocol resumes from a byte offset, so this is safe to
	// restart; the listener dies with the server.
	var shipListener net.Listener
	if *ship != "" {
		if *walPath == "" {
			log.Fatalf("hexserver: -ship requires -wal (there is no log to ship)")
		}
		l, err := net.Listen("tcp", *ship)
		if err != nil {
			log.Fatalf("hexserver: ship listen: %v", err)
		}
		shipListener = l
		go func() {
			if err := replica.ServeWAL(l, *walPath); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("hexserver: ship: %v", err)
			}
		}()
		log.Printf("hexserver: shipping the WAL on %s", l.Addr())
	}

	mode := "leader"
	if *follow != "" {
		mode = "replica"
	}
	log.Printf("hexserver: %s, %d triples loaded, listening on %s", mode, g.Len(), *addr)
	srv := server.NewGraph(g)
	srv.SetPlanCacheSize(*planCache)
	srv.SetResultCacheBytes(resultCacheBytes)
	srv.SetReadOnly(*follow != "")
	srv.SetMaxInflight(*maxInflight)
	srv.SetRequestTimeout(*reqTimeout)
	if *pprofFlag {
		srv.EnablePprof()
	}
	// Query governance: /sparql admission moves from the generic
	// inflight semaphore to the governor, which distinguishes why a
	// query ended (canceled, timed out, budget-killed, shed) in both
	// status codes and /stats counters.
	srv.SetGovernor(govern.Config{
		MaxConcurrent: *maxQueries,
		MaxQueue:      *maxQueries,
		QueueTimeout:  5 * time.Second,
		SlowQuery:     *slowQuery,
	})
	srv.SetQueryLimits(*queryTimeout, budget)
	// Readiness follows the backend's sticky failure state: a poisoned
	// WAL or failed compaction pulls the node from rotation and sheds
	// writes while reads keep flowing.
	if ov, ok := g.(*delta.Overlay); ok {
		srv.SetDegradedCheck(ov.Degraded)
	}
	if follower != nil {
		srv.SetFollowers(*maxReplicaLag, follower)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	// Graceful shutdown: trap SIGINT/SIGTERM, drain in-flight requests,
	// stop replication endpoints, then checkpoint/flush the store so
	// nothing relies on the WAL alone.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("hexserver: %v", err)
		}
	case <-ctx.Done():
		// Fail readiness first and give load balancers -drain-grace to
		// observe it: /readyz answers 503 while the listener still
		// accepts, so traffic routes away before connections start
		// being refused, then Shutdown drains what remains in flight.
		srv.SetDraining(true)
		log.Printf("hexserver: shutting down (readyz now failing)")
		if *drainGrace > 0 {
			time.Sleep(*drainGrace)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		err := httpSrv.Shutdown(shutdownCtx)
		cancel()
		if err != nil {
			log.Printf("hexserver: drain: %v", err)
		}
	}
	if shipListener != nil {
		shipListener.Close()
	}
	if follower != nil {
		if err := follower.Close(); err != nil {
			log.Printf("hexserver: follower: %v", err)
		}
	}
	if closer != nil {
		if err := closer(); err != nil {
			log.Fatalf("hexserver: checkpoint on shutdown: %v", err)
		}
	}
	log.Printf("hexserver: store checkpointed, bye")
}

// openReplica builds a -follow replica: an in-memory overlay (no WAL
// of its own) fed by one Follower tailing the leader's log, from its
// path or from tcp://addr of a -ship leader.
func openReplica(follow string, compactThreshold int) (*delta.Overlay, *replica.Follower, error) {
	ov, err := delta.Open(graph.Memory(core.New()), delta.Options{CompactThreshold: compactThreshold})
	if err != nil {
		return nil, nil, err
	}
	var f *replica.Follower
	if addr, tcp := strings.CutPrefix(follow, "tcp://"); tcp {
		f = replica.NewTCPFollower(ov, addr, replica.FollowerOptions{})
	} else {
		f = replica.NewFollower(ov, follow, replica.FollowerOptions{})
	}
	f.Start()
	return ov, f, nil
}

// snapshotPath picks the checkpoint snapshot destination for a
// memory-backed WAL deployment (the disk backend flushes in place).
func snapshotPath(diskDir, walPath string) string {
	if diskDir != "" || walPath == "" {
		return ""
	}
	return walPath + ".snapshot"
}

// readFile parses one startup data file.
func readFile(path string, asTurtle bool) ([]rdf.Triple, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var triples []rdf.Triple
	if asTurtle {
		triples, err = rdf.NewTurtleReader(f).ReadAll()
	} else {
		triples, err = rdf.NewReader(f).ReadAll()
	}
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return triples, nil
}

// openStore builds the base graph: the disk store (opened or created,
// bulk-loading startup triples into a fresh one) or the sealed in-memory
// store (restored from a WAL checkpoint snapshot when one exists, else
// bulk-built from the startup triples), which main wraps in an overlay.
func openStore(diskDir string, cache int, walPath string, triples []rdf.Triple, workers int) (graph.Graph, func() error, error) {
	if diskDir != "" {
		g, err := openDisk(diskDir, cache, triples, workers)
		if err != nil {
			return nil, nil, err
		}
		st := graph.Unwrap(g).(*disk.Store)
		return g, st.Close, nil
	}

	if snap := snapshotPath(diskDir, walPath); snap != "" {
		st, ok, err := delta.RestoreSnapshot(nil, snap)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			if len(triples) > 0 {
				return nil, nil, fmt.Errorf("snapshot %s already holds %d triples; refusing -load/-turtle", snap, st.Len())
			}
			log.Printf("hexserver: restored %d triples from %s", st.Len(), snap)
			return graph.Memory(st), nil, nil
		}
	}

	// Sort-once bulk construction: encoding and the index build spread
	// across -workers cores, and the consuming build avoids a second copy
	// of the triple set.
	b := core.NewBuilder(nil)
	b.AddAll(core.EncodeTriples(b.Dictionary(), triples, workers))
	return graph.Memory(b.BuildParallel(workers)), nil, nil
}

// openDisk opens (or creates) the disk store and bulk-loads the startup
// triples. A fresh store takes the sorted BulkLoad path; an existing
// store refuses startup files rather than silently double-loading.
func openDisk(dir string, cache int, triples []rdf.Triple, workers int) (graph.Graph, error) {
	opts := disk.Options{CacheSize: cache}
	var (
		st  *disk.Store
		err error
	)
	if disk.Exists(dir) {
		st, err = disk.Open(dir, opts)
	} else {
		st, err = disk.Create(dir, opts)
	}
	if err != nil {
		return nil, err
	}
	if len(triples) > 0 {
		if n := st.Len(); n > 0 {
			st.Close()
			return nil, fmt.Errorf("disk store %s already holds %d triples; refusing -load/-turtle", dir, n)
		}
		ids := core.EncodeTriples(st.Dictionary(), triples, workers)
		if err := st.BulkLoadParallel(ids, workers); err != nil {
			st.Close()
			return nil, err
		}
		if err := st.Flush(); err != nil {
			st.Close()
			return nil, err
		}
	}
	return graph.Disk(st), nil
}
