package shard

import (
	"fmt"
	"path/filepath"
	"runtime"

	"hexastore/internal/core"
	"hexastore/internal/delta"
	"hexastore/internal/dictionary"
	"hexastore/internal/disk"
	"hexastore/internal/graph"
	"hexastore/internal/iofault"
)

// Config parameterizes OpenCluster.
type Config struct {
	// Shards is the partition count; <= 0 means 1.
	Shards int
	// Dict is the cluster's shared dictionary; nil creates a fresh one.
	Dict *dictionary.Dictionary
	// Dir, when non-empty, roots disk-backed shards at Dir/shard<i>.
	// Empty keeps shards in memory.
	Dir string
	// CacheSize is the per-shard disk buffer pool size in pages.
	CacheSize int
	// WALPath, when non-empty, enables per-shard durability: shard i
	// logs to ShardWALPath(WALPath, i) and (for memory shards)
	// checkpoints to the same name + ".snapshot".
	WALPath string
	// CompactThreshold is passed to each shard's delta overlay.
	CompactThreshold int
	// Uncompressed writes disk shards' B+-tree leaves as fixed-width
	// records instead of delta-packed ones. Memory shards have one layout.
	Uncompressed bool
	// Workers bounds load parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Load bulk-loads these encoded triples into a fresh cluster using
	// the parallel build pipeline, partitioned by owning shard. It is an
	// error to combine Load with existing durable state (a restored
	// snapshot, a non-empty disk shard, or a non-empty WAL), mirroring
	// the server's refuse-to-double-load rule.
	Load [][3]ID
	// FS routes every shard's file I/O (WALs, snapshots, disk stores)
	// through a fault-injection layer; nil means the real filesystem.
	FS iofault.FS
}

// ShardWALPath names shard i's write-ahead log for a cluster logging
// under prefix: "<prefix>.<i>". Followers use the same naming to find
// the log to tail.
func ShardWALPath(prefix string, i int) string { return fmt.Sprintf("%s.%d", prefix, i) }

// ShardDir names shard i's disk directory under root.
func ShardDir(root string, i int) string { return filepath.Join(root, fmt.Sprintf("shard%d", i)) }

// OpenCluster builds a Cluster from durable state and/or a bulk-load
// set: N delta-overlay-wrapped stores (memory, or disk under Dir) over
// one shared dictionary.
//
// Shards open sequentially, and must: restoring per-shard snapshots,
// replaying per-shard WALs and loading disk sidecars all re-encode
// terms into the shared dictionary, and the prefix property that makes
// those re-encodings land on the original ids only holds when each
// shard's terms are replayed in the order they were first encoded —
// interleaving two shards' restores would break it. Bulk builds of the
// pre-encoded Load set parallelize internally instead.
func OpenCluster(cfg Config) (*Cluster, error) {
	n := cfg.Shards
	if n <= 0 {
		n = 1
	}
	dict := cfg.Dict
	if dict == nil {
		dict = dictionary.New()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Partition the bulk-load set by owning shard.
	parts := make([][][3]ID, n)
	if len(cfg.Load) > 0 {
		for _, t := range cfg.Load {
			i := shardIndex(t[0], n)
			parts[i] = append(parts[i], t)
		}
	}

	shards := make([]graph.Graph, 0, n)
	fail := func(err error) (*Cluster, error) {
		for _, g := range shards {
			if ov, ok := g.(*delta.Overlay); ok {
				ov.Close() //nolint:errcheck // already failing
			}
		}
		return nil, err
	}
	for i := 0; i < n; i++ {
		var (
			base  graph.Graph
			fresh bool
			dopts = delta.Options{
				CompactThreshold: cfg.CompactThreshold,
				FS:               cfg.FS,
			}
		)
		if cfg.WALPath != "" {
			dopts.WALPath = ShardWALPath(cfg.WALPath, i)
		}
		if cfg.Dir == "" {
			st, isFresh, err := openMemoryShard(cfg, dict, parts[i], i, workers)
			if err != nil {
				return fail(err)
			}
			fresh = isFresh
			base = graph.Memory(st)
			if cfg.WALPath != "" {
				dopts.SnapshotPath = ShardWALPath(cfg.WALPath, i) + ".snapshot"
			}
		} else {
			st, isFresh, err := openDiskShard(cfg, dict, parts[i], i, workers)
			if err != nil {
				return fail(err)
			}
			fresh = isFresh
			base = graph.Disk(st)
		}
		if !fresh && len(parts[i]) > 0 {
			return fail(fmt.Errorf("shard: refusing to bulk-load into shard %d, which already has durable state", i))
		}
		ov, err := delta.Open(base, dopts)
		if err != nil {
			return fail(fmt.Errorf("shard %d: %w", i, err))
		}
		shards = append(shards, ov)
	}
	c, err := New(dict, shards)
	if err != nil {
		return fail(err)
	}
	return c, nil
}

// openMemoryShard restores shard i from its checkpoint snapshot when
// one exists, or bulk-builds it from its load partition. fresh reports
// that no snapshot was restored (the WAL may still hold records; the
// caller's delta.Open replays them — a non-empty replay onto a bulk
// load would double-apply, which is why Load plus a non-empty WAL is
// refused by delta semantics: fresh here only vouches for the snapshot).
func openMemoryShard(cfg Config, dict *dictionary.Dictionary, load [][3]ID, i, workers int) (*core.Store, bool, error) {
	if cfg.WALPath != "" {
		snapPath := ShardWALPath(cfg.WALPath, i) + ".snapshot"
		st, ok, err := delta.RestoreSnapshotSharedFS(cfg.FS, snapPath, dict)
		if err != nil {
			return nil, false, fmt.Errorf("shard %d: %w", i, err)
		}
		if ok {
			return st, false, nil
		}
		// A fresh bulk load must not race a leftover WAL: replaying old
		// records over the loaded data would resurrect deleted triples.
		if len(load) > 0 {
			if fi, err := iofault.Or(cfg.FS).Stat(ShardWALPath(cfg.WALPath, i)); err == nil && fi.Size() > int64(len("HEXWAL01")) {
				return nil, false, fmt.Errorf("shard: refusing to bulk-load shard %d over a non-empty WAL", i)
			}
		}
	}
	if len(load) > 0 {
		b := core.NewBuilder(dict)
		b.AddAll(load)
		return b.BuildParallel(workers), true, nil
	}
	return core.NewShared(dict), true, nil
}

// openDiskShard creates or opens shard i's disk store under
// ShardDir(cfg.Dir, i) with the shared dictionary, bulk-loading a fresh
// store from its load partition.
func openDiskShard(cfg Config, dict *dictionary.Dictionary, load [][3]ID, i, workers int) (*disk.Store, bool, error) {
	dir := ShardDir(cfg.Dir, i)
	opts := disk.Options{CacheSize: cfg.CacheSize, Uncompressed: cfg.Uncompressed, Dictionary: dict, FS: cfg.FS}
	if disk.Exists(dir) {
		st, err := disk.Open(dir, opts)
		if err != nil {
			return nil, false, fmt.Errorf("shard %d: %w", i, err)
		}
		return st, st.Len() == 0, nil
	}
	st, err := disk.Create(dir, opts)
	if err != nil {
		return nil, false, fmt.Errorf("shard %d: %w", i, err)
	}
	if len(load) > 0 {
		if err := st.BulkLoadParallel(load, workers); err != nil {
			st.Close()
			return nil, false, fmt.Errorf("shard %d: bulk load: %w", i, err)
		}
		if err := st.Flush(); err != nil {
			st.Close()
			return nil, false, fmt.Errorf("shard %d: flush: %w", i, err)
		}
	}
	return st, true, nil
}
