package wal

import "hexastore/internal/obs"

// Package-level metrics on the default registry: every Log in the
// process feeds the same families (a server runs one WAL). Servers
// expose them by merging obs.Default into their /metrics output.
var (
	walAppendedBytes = obs.Default.Counter(
		"hex_wal_appended_bytes_total",
		"Bytes appended to write-ahead logs (record frames incl. commit markers).")
	walFsyncSeconds = obs.Default.Histogram(
		"hex_wal_fsync_seconds",
		"Write-ahead log fsync latency in seconds.",
		obs.LatencyBuckets)
	walCommitBatch = obs.Default.Histogram(
		"hex_wal_commit_batch_records",
		"Append batches covered by one group-commit fsync.",
		obs.ExpBuckets(1, 2, 8))
)
