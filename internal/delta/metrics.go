package delta

import "hexastore/internal/obs"

// Process-wide compaction metrics on the default registry; every
// overlay in the process feeds the same families.
// The per-overlay Stats() counter stays the source of truth for /stats.
var (
	deltaCompactions = obs.Default.Counter(
		"hex_delta_compactions_total",
		"Delta-overlay compactions completed (delta folded into main).")
	deltaCompactSeconds = obs.Default.Histogram(
		"hex_delta_compact_seconds",
		"Delta-overlay compaction duration in seconds (failures included).",
		obs.LatencyBuckets)
	// What the memory-main compactions cost and saved, in head vectors
	// over the six orderings: re-encoded because the delta named them,
	// and shared untouched with the previous main.
	deltaCompactHeadsRebuilt = obs.Default.Counter(
		"hex_delta_compact_heads_rebuilt_total",
		"Head vectors re-encoded by memory-main compactions (heads the delta named).")
	deltaCompactHeadsShared = obs.Default.Counter(
		"hex_delta_compact_heads_shared_total",
		"Head vectors memory-main compactions shared with the previous main instead of re-encoding.")
)
