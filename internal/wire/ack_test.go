package wire

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eyewnder/internal/obs"
)

// failSyncSink is a durable sink whose first SyncReports fails.
type failSyncSink struct {
	countingSink
	synced atomic.Int64
}

var errDiskOnFire = errors.New("fsync: disk on fire")

func (s *failSyncSink) SyncReports() error {
	if s.synced.Add(1) == 1 {
		return errDiskOnFire
	}
	return nil
}

// A failed durability barrier must reach the client: the ack covering
// the unsynced frames carries status 1 with the sync error first (ahead
// of the per-frame sink error in the same batch, which is benign by
// comparison), and Flush returns it.
func TestAckSyncFailureReachesClient(t *testing.T) {
	sink := &failSyncSink{countingSink: countingSink{failOn: map[int]error{0: errors.New("duplicate report")}}}
	_, cli := batchedPair(t, sink, StreamOpts{AckBatch: 4})
	rs, err := cli.OpenReportStream(64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		f := testFrame(32)
		f.User = i
		if err := rs.Submit(f); err != nil {
			break // the error ack already arrived: it is checked below
		}
	}
	err = rs.Flush()
	if err == nil {
		t.Fatal("Flush returned nil after a failed durability barrier")
	}
	msg := err.Error()
	iSync, iSink := strings.Index(msg, errDiskOnFire.Error()), strings.Index(msg, "duplicate report")
	if iSync < 0 || iSink < 0 || iSync > iSink {
		t.Fatalf("Flush err = %q, want the sync error first, then the frame's", msg)
	}
	if err := rs.Close(); err == nil {
		t.Fatal("Close forgot the sync failure")
	}
	if sink.synced.Load() < 1 {
		t.Fatal("durable sink never synced")
	}
	if got := sink.count(); got != 7 {
		t.Fatalf("sink folded %d frames, want 7 (all but the failing one)", got)
	}
}

// orderSink is a durable sink over a slow disk. Each barrier records
// how many frames had been consumed when it began and when it ended,
// and stamps its completion on a logical clock the client's ack
// observer shares.
type orderSink struct {
	consumed atomic.Int64
	clock    atomic.Int64

	mu       sync.Mutex
	barriers []barrierRec // completion order; one acker calls SyncReports
}

type barrierRec struct {
	entry, exit int64 // frames consumed at entry and at completion
	doneAt      int64 // clock stamp at completion
}

func (s *orderSink) ConsumeReport(*ReportFrame) error {
	s.consumed.Add(1)
	return nil
}

func (s *orderSink) SyncReports() error {
	entry := s.consumed.Load()
	time.Sleep(200 * time.Microsecond)
	exit := s.consumed.Load()
	s.mu.Lock()
	s.barriers = append(s.barriers, barrierRec{entry: entry, exit: exit, doneAt: s.clock.Add(1)})
	s.mu.Unlock()
	return nil
}

// The ordering invariant acked ⇒ durable rests on: an ack covering slot
// S is written only after a barrier that began after S was consumed.
// Each connection gets its own server and sink so every barrier is
// attributable to the connection whose acker ran it. Checked per
// connection: every ack is covered by the entry count of a barrier that
// completed before the ack was read; acks are monotone; the final ack
// covers every slot sent; and some barrier saw frames consumed while it
// was in flight — the pipelining the acker exists for.
func TestAckBarrierOrdering(t *testing.T) {
	const conns, frames = 2, 1000
	type ackRec struct{ seq, at uint64 }
	var (
		sinks [conns]*orderSink
		acks  [conns][]ackRec
		sent  [conns]uint64
		wg    sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		sinks[c] = &orderSink{}
		_, cli := batchedPair(t, sinks[c], StreamOpts{})
		rs, err := cli.OpenReportStream(64)
		if err != nil {
			t.Fatal(err)
		}
		sink, rec := sinks[c], &acks[c]
		rs.OnAck = func(acked uint64) { *rec = append(*rec, ackRec{acked, uint64(sink.clock.Add(1))}) }
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f := testFrame(32)
			for i := 0; i < frames; i++ {
				f.User = i
				if err := rs.Submit(f); err != nil {
					t.Errorf("conn %d submit %d: %v", c, i, err)
					return
				}
			}
			if err := rs.Close(); err != nil {
				t.Errorf("conn %d close: %v", c, err)
			}
			sent[c] = rs.Sent()
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for c := 0; c < conns; c++ {
		sink := sinks[c]
		sink.mu.Lock()
		barriers := append([]barrierRec(nil), sink.barriers...)
		sink.mu.Unlock()
		pipelined := false
		for _, b := range barriers {
			pipelined = pipelined || b.exit > b.entry
		}
		if !pipelined {
			t.Errorf("conn %d: no barrier saw a frame consumed while it was in flight (%d barriers)", c, len(barriers))
		}
		var prev uint64
		next, covered := 0, int64(0) // barriers done before the ack; max entry among them
		for _, a := range acks[c] {
			if a.seq < prev {
				t.Fatalf("conn %d: ack %d after ack %d", c, a.seq, prev)
			}
			prev = a.seq
			for next < len(barriers) && uint64(barriers[next].doneAt) < a.at {
				covered = max(covered, barriers[next].entry)
				next++
			}
			// The flush marker Close wrote is the one slot past the frames.
			if need := min(a.seq, frames); uint64(covered) < need {
				t.Fatalf("conn %d: ack %d read when the barriers done so far covered only %d frames", c, a.seq, covered)
			}
		}
		if prev != sent[c] || sent[c] != frames+1 {
			t.Fatalf("conn %d: final ack %d, sent %d slots, want %d", c, prev, sent[c], frames+1)
		}
	}
}

// The ack path is observable in process: every ack observes its
// durability barrier (sync_wait), its frame write (ack_flush) and the
// slots it covers, so the slots summed over acks equal the slots acked.
func TestAckStageMetrics(t *testing.T) {
	reg := obs.New()
	srv, cli := batchedPair(t, &orderSink{}, StreamOpts{Metrics: reg})
	rs, err := cli.OpenReportStream(0)
	if err != nil {
		t.Fatal(err)
	}
	f := testFrame(32)
	for i := 0; i < 300; i++ {
		f.User = i
		if err := rs.Submit(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close() // the acker has exited: its last observations are in
	snap := reg.Snapshot()
	for _, key := range []string{
		`eyewnder_ingest_stage_seconds_count{stage="sync_wait"}`,
		`eyewnder_ingest_stage_seconds_count{stage="ack_flush"}`,
		`eyewnder_wire_ack_frames_count`,
	} {
		if snap[key] == 0 {
			t.Errorf("%s = 0 after a stream", key)
		}
	}
	if got, want := snap["eyewnder_wire_ack_frames_sum"], float64(rs.Acked()); got != want {
		t.Fatalf("ack frames sum = %v, want the %v slots acked", got, want)
	}
	if got, want := snap["eyewnder_wire_ack_frames_count"], snap["eyewnder_wire_ack_batches_total"]; got != want {
		t.Fatalf("ack frames count = %v, ack batches = %v", got, want)
	}
}
