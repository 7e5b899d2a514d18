package wire

import (
	"sync"
	"time"

	"eyewnder/internal/obs"
)

// wireMetrics holds the server's pre-registered instrument handles.
// The decode counter is sharded: every streamed report bumps it, and
// many connections decode concurrently, so each connection takes its
// own padded shard at accept time. All updates are plain atomics — the
// streamed-report path stays 0 allocs/op (see backend's alloc
// regression test).
type wireMetrics struct {
	framesDecoded     *obs.ShardedCounter
	ackBatches        *obs.Counter
	handshakes        *obs.Counter
	handshakeRejected *obs.Counter

	// The ack path, observed once per ack on a connection's acker:
	// sync_wait is the durability barrier (SyncReports), ack_flush the
	// ack frame write, ackFrames the sequence slots one ack covers.
	syncWait  *obs.Histogram
	ackFlush  *obs.Histogram
	ackFrames *obs.Histogram
}

// ingestStageBuckets spans the ingest stages: a socket write takes
// microseconds, a durability barrier up to tens of milliseconds.
var ingestStageBuckets = []time.Duration{
	time.Microsecond, 2500 * time.Nanosecond, 5 * time.Microsecond,
	10 * time.Microsecond, 25 * time.Microsecond, 50 * time.Microsecond,
	100 * time.Microsecond, 250 * time.Microsecond, 500 * time.Microsecond,
	time.Millisecond, 2500 * time.Microsecond, 5 * time.Millisecond,
	10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond,
	100 * time.Millisecond, 250 * time.Millisecond, time.Second,
}

// metrics returns the server's instrument handles, falling back to a
// process-wide private set for Server values constructed without the
// Serve entry points (tests drive foldLoop on bare literals).
func (s *Server) metrics() *wireMetrics {
	if s.m != nil {
		return s.m
	}
	fallbackWireMetricsOnce.Do(func() {
		fallbackWireMetrics = newWireMetrics(nil)
	})
	return fallbackWireMetrics
}

var (
	fallbackWireMetricsOnce sync.Once
	fallbackWireMetrics     *wireMetrics
)

// newWireMetrics registers the wire instruments in reg (or a private
// registry when reg is nil).
func newWireMetrics(reg *obs.Registry) *wireMetrics {
	reg = obs.Ensure(reg)
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("eyewnder_ingest_stage_seconds",
			"Streamed-report ingest latency by stage: sync_wait (durability barrier before an ack), ack_flush (ack frame write).",
			ingestStageBuckets, "stage", name)
	}
	return &wireMetrics{
		framesDecoded: reg.ShardedCounter("eyewnder_wire_report_frames_total",
			"Streamed report frames decoded off connections (batched and legacy paths)."),
		ackBatches: reg.Counter("eyewnder_wire_ack_batches_total",
			"Binary batched-ack frames emitted by ack goroutines."),
		handshakes: reg.Counter("eyewnder_wire_handshakes_total",
			"Hello/Welcome config handshakes answered."),
		handshakeRejected: reg.Counter("eyewnder_wire_handshake_rejected_total",
			"Handshakes refused for revision incompatibility."),
		syncWait: stage("sync_wait"),
		ackFlush: stage("ack_flush"),
		ackFrames: reg.CountHistogram("eyewnder_wire_ack_frames",
			"Sequence slots (report frames and flush markers) covered by one batched ack.",
			[]uint64{1, 2, 4, 8, 16, 32, 64, 128, 256, 1024}),
	}
}
