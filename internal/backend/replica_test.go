package backend

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"eyewnder/internal/detector"
	"eyewnder/internal/privacy"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// newReplica builds a hot-standby back-end with no local store.
func newReplica(t *testing.T, params privacy.Params, users int) *Backend {
	t.Helper()
	b, err := New(Config{
		Params: params, Users: users,
		UsersEstimator: detector.EstimatorMean,
		Replica:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// feedWALInChunks streams every WAL segment in dir through a
// SegmentParser in chunk-sized pieces (chunk boundaries land mid-record
// on purpose) and applies the events to b. It asserts each segment
// parses to its exact end — the primary's WAL carries no torn tail here.
func feedWALInChunks(t *testing.T, b *Backend, dir string, chunk int) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths) // %016d names: lexicographic = numeric
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sp := store.NewSegmentParser()
		for off := 0; off < len(raw); off += chunk {
			end := off + chunk
			if end > len(raw) {
				end = len(raw)
			}
			sp.Feed(raw[off:end])
			for {
				ev, err := sp.Next()
				if err != nil {
					t.Fatalf("%s: parse at %d: %v", p, sp.Offset(), err)
				}
				if ev == nil {
					break
				}
				if err := b.ApplyEvent(ev); err != nil {
					t.Fatalf("%s: apply at %d: %v", p, sp.Offset(), err)
				}
			}
		}
		if sp.Offset() != int64(len(raw)) {
			t.Fatalf("%s: parsed %d of %d bytes", p, sp.Offset(), len(raw))
		}
	}
}

// closedTable returns a closed round's count table and distinct-ads
// figure exactly as the back-end holds them.
func closedTable(t *testing.T, b *Backend, round uint64) ([]uint64, int) {
	t.Helper()
	r, ok := b.lookupRound(0, round)
	if !ok {
		t.Fatalf("round %d missing", round)
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.closed {
		t.Fatalf("round %d not closed", round)
	}
	return r.counts, r.distinct
}

// A replica fed a primary's raw WAL bytes — through the same streaming
// parser the replication follower uses, with chunk boundaries landing
// mid-record — must mirror the primary exactly: roster, negotiated
// versions, round progress, thresholds, and per-ad counts, across a
// full round, an adjustment round with a missing user, and a
// registration version bump.
func TestReplicaMirrorsPrimaryWAL(t *testing.T) {
	const users = 6
	params := storeTestParams()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	primary := newStoreBackend(t, params, users, st)

	if _, err := primary.Register(2, []byte("pk2")); err != nil {
		t.Fatal(err)
	}

	// Round 1: full roster, straight close.
	for _, r := range buildReports(t, params, users, 1) {
		if err := primary.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := primary.CloseRound(0, 1, 0); err != nil {
		t.Fatal(err)
	}

	// Round 2: last user missing, every reporter uploads a share, then
	// the round closes with adjustments applied. The share values are
	// arbitrary — what matters is that primary and replica fold the
	// same bytes into the same state.
	reports2 := buildReports(t, params, users, 2)
	for _, r := range reports2[:users-1] {
		if err := primary.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	cells := len(reports2[0].Sketch.FlatCells())
	for u := 0; u < users-1; u++ {
		share := make([]uint64, cells)
		for i := range share {
			share[i] = uint64(u*1000 + i)
		}
		if err := primary.SubmitAdjustment(0, u, 2, 0, share); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := primary.CloseRound(0, 2, 0); err != nil {
		t.Fatal(err)
	}
	// Round 3 stays open mid-round: the state a follower must hold warm.
	for _, r := range buildReports(t, params, users, 3)[:3] {
		if err := primary.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.SyncReports(); err != nil {
		t.Fatal(err)
	}

	// A third node recovers the same directory the way a restart does.
	// All three must hold == tables and == thresholds for the closed
	// rounds: nothing between the sketch and a published number depends
	// on iteration order.
	rec, err := store.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	recovered := newStoreBackend(t, params, users, rec)

	for _, chunk := range []int{7, 1 << 16} {
		replica := newReplica(t, params, users)
		feedWALInChunks(t, replica, dir, chunk)

		pKeys, pcv, prv := primary.Roster()
		rKeys, rcv, rrv := replica.Roster()
		if !reflect.DeepEqual(pKeys, rKeys) || pcv != rcv || prv != rrv {
			t.Fatalf("chunk %d: roster/version mismatch: (%v,%d,%d) vs (%v,%d,%d)",
				chunk, pKeys, pcv, prv, rKeys, rcv, rrv)
		}
		for _, round := range []uint64{1, 2} {
			pth, err := primary.Threshold(0, round)
			if err != nil {
				t.Fatal(err)
			}
			rth, err := replica.Threshold(0, round)
			if err != nil {
				t.Fatalf("chunk %d: replica threshold(%d): %v", chunk, round, err)
			}
			if pth != rth {
				t.Fatalf("chunk %d round %d: threshold %v vs %v", chunk, round, pth, rth)
			}
			pc, _ := primary.UserCounts(0, round)
			rc, err := replica.UserCounts(0, round)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pc, rc) {
				t.Fatalf("chunk %d round %d: counts diverge", chunk, round)
			}
			ptab, pdistinct := closedTable(t, primary, round)
			for name, node := range map[string]*Backend{"replica": replica, "recovered": recovered} {
				tab, distinct := closedTable(t, node, round)
				if !slices.Equal(ptab, tab) || pdistinct != distinct {
					t.Fatalf("chunk %d round %d: %s count table differs from the primary's", chunk, round, name)
				}
				if th, err := node.Threshold(0, round); err != nil || th != pth {
					t.Fatalf("chunk %d round %d: %s threshold %v (%v), primary %v", chunk, round, name, th, err, pth)
				}
			}
			if len(pc) != pdistinct {
				t.Fatalf("round %d: round_counts map has %d entries, distinct = %d", round, len(pc), pdistinct)
			}
		}
		pp, err := primary.RoundProgressOf(0, 3)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := replica.RoundProgressOf(0, 3)
		if err != nil {
			t.Fatalf("chunk %d: replica progress(3): %v", chunk, err)
		}
		if pp.Reported != rp.Reported || !reflect.DeepEqual(pp.Missing, rp.Missing) {
			t.Fatalf("chunk %d round 3: progress %+v vs %+v", chunk, pp, rp)
		}
		replica.Close()
	}
}

// Re-feeding an overlapping prefix of the stream (what a follower does
// after fetching a snapshot whose segment it already partially applied,
// or after a restart re-reads its local tail) must be a no-op: every
// duplicate record is skipped by the acceptance rules.
func TestReplicaApplyIsIdempotent(t *testing.T) {
	const users = 4
	params := storeTestParams()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	primary := newStoreBackend(t, params, users, st)
	for _, r := range buildReports(t, params, users, 1) {
		if err := primary.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := primary.CloseRound(0, 1, 0); err != nil {
		t.Fatal(err)
	}

	replica := newReplica(t, params, users)
	feedWALInChunks(t, replica, dir, 64)
	feedWALInChunks(t, replica, dir, 64) // the whole stream, again

	pth, _ := primary.Threshold(0, 1)
	rth, err := replica.Threshold(0, 1)
	if err != nil || pth != rth {
		t.Fatalf("threshold after double feed = %v, %v (want %v)", rth, err, pth)
	}
	pc, _ := primary.UserCounts(0, 1)
	rc, _ := replica.UserCounts(0, 1)
	if !reflect.DeepEqual(pc, rc) {
		t.Fatal("counts diverge after double feed")
	}
}

// Every mutating entry point of a replica must refuse with
// ErrReadOnlyReplica, and lookups must not create rounds.
func TestReplicaRejectsWrites(t *testing.T) {
	const users = 4
	params := storeTestParams()
	replica := newReplica(t, params, users)

	if _, err := replica.Register(0, []byte("pk")); !errors.Is(err, ErrReadOnlyReplica) {
		t.Errorf("Register err = %v", err)
	}
	reports := buildReports(t, params, users, 1)
	if err := replica.ConsumeReport(wire.ReportFrameOf(reports[0])); !errors.Is(err, ErrReadOnlyReplica) {
		t.Errorf("ConsumeReport err = %v", err)
	}
	cells := len(reports[0].Sketch.FlatCells())
	if err := replica.SubmitAdjustment(0, 0, 1, 0, make([]uint64, cells)); !errors.Is(err, ErrReadOnlyReplica) {
		t.Errorf("SubmitAdjustment err = %v", err)
	}
	if _, _, err := replica.CloseRound(0, 1, 0); !errors.Is(err, ErrReadOnlyReplica) {
		t.Errorf("CloseRound err = %v", err)
	}
	if _, _, err := replica.CloseRound(0, 1, time.Millisecond); !errors.Is(err, ErrReadOnlyReplica) {
		t.Errorf("deadline CloseRound err = %v", err)
	}
	// A status poll of a round the primary never opened must answer
	// ErrUnknownRound, not silently create the round.
	if _, err := replica.RoundProgressOf(0, 99); !errors.Is(err, ErrUnknownRound) {
		t.Errorf("RoundProgressOf(99) err = %v", err)
	}
}

// ApplyEvent is a replica-only entry point: a writable back-end's state
// comes from its own store and clients, never from a peer's stream.
func TestApplyEventRequiresReplica(t *testing.T) {
	b := newStoreBackend(t, storeTestParams(), 4, nil)
	if err := b.ApplyEvent(&store.CloseEvent{Round: 1}); err == nil {
		t.Fatal("ApplyEvent accepted on a non-replica back-end")
	}
}
