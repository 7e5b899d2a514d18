package store

import (
	"time"

	"eyewnder/internal/obs"
)

// storeMetrics holds the store's pre-registered instrument handles.
// Handles are always real (obs.Ensure), so the append and sync paths
// update them unconditionally — no "is metrics on" branch anywhere.
type storeMetrics struct {
	walAppends  *obs.Counter
	walBytes    *obs.Counter
	fsyncs      *obs.Counter
	fsyncLat    *obs.Histogram
	snapshotLat *obs.Histogram
	segsSealed  *obs.Counter
	segsPruned  *obs.Counter
	snapshots   *obs.Counter
}

// newStoreMetrics registers the store instruments in reg (or a
// private registry when reg is nil).
func newStoreMetrics(reg *obs.Registry) *storeMetrics {
	reg = obs.Ensure(reg)
	return &storeMetrics{
		walAppends: reg.Counter("eyewnder_store_wal_appends_total",
			"WAL records appended (reports, opens, adjusts, closes, registrations, config bumps)."),
		walBytes: reg.Counter("eyewnder_store_wal_bytes_total",
			"Bytes of framed WAL records appended (header and checksum included)."),
		fsyncs: reg.Counter("eyewnder_store_fsyncs_total",
			"Group-commit fsyncs led (piggybacked Sync callers do not count)."),
		fsyncLat: reg.Histogram("eyewnder_store_fsync_seconds",
			"Latency of the group-commit leader's fsync.", nil),
		snapshotLat: reg.Histogram("eyewnder_store_snapshot_seconds",
			"End-to-end duration of a snapshot cycle (rotate, capture, publish, prune).", nil),
		segsSealed: reg.Counter("eyewnder_store_segments_sealed_total",
			"WAL segments sealed by rotation."),
		segsPruned: reg.Counter("eyewnder_store_segments_pruned_total",
			"Sealed WAL segments removed by snapshot pruning."),
		snapshots: reg.Counter("eyewnder_store_snapshots_total",
			"Snapshots published."),
	}
}

// observeSince records now-start into h; split out so call sites stay
// one line.
func observeSince(h *obs.Histogram, start time.Time) {
	h.Observe(time.Since(start))
}

// String names the fsync policy — the form /statusz reports.
func (m SyncMode) String() string {
	switch m {
	case SyncOff:
		return "off"
	default:
		return "batch"
	}
}
