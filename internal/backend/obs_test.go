package backend

import (
	"encoding/binary"
	"errors"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"eyewnder/internal/detector"
	"eyewnder/internal/group"
	"eyewnder/internal/obs"
	"eyewnder/internal/privacy"
	"eyewnder/internal/wire"
)

// rawFrames builds unblinded streamed frames for distinct users — the
// metrics tests exercise admission and accounting, not cancellation.
func rawFrames(t testing.TB, params privacy.Params, users int, round uint64) []*wire.ReportFrame {
	t.Helper()
	frames := make([]*wire.ReportFrame, users)
	for u := 0; u < users; u++ {
		cms, err := params.NewSketch()
		if err != nil {
			t.Fatal(err)
		}
		var key [8]byte
		binary.LittleEndian.PutUint64(key[:], uint64(u))
		cms.Update(key[:])
		frames[u] = &wire.ReportFrame{
			User: u, Round: round,
			D: cms.Depth(), W: cms.Width(), N: cms.N(), Seed: cms.Seed(),
			Keystream:     byte(params.Keystream),
			ConfigVersion: firstConfigVersion,
			Cells:         cms.FlatCells(),
		}
	}
	return frames
}

// The instrumented streamed-report path must still be allocation-free:
// metrics are pre-registered atomic handles, so accepting a report adds
// nothing to the reserve → log → fold path's zero allocs.
func TestConsumeReportZeroAllocs(t *testing.T) {
	const runs = 512
	users := runs + 64
	params := privacy.Params{Epsilon: 0.05, Delta: 0.05, IDSpace: 2000, Suite: group.P256()}
	b, err := New(Config{
		Params: params, Users: users,
		UsersEstimator: detector.EstimatorMean,
		Metrics:        obs.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	frames := rawFrames(t, params, users, 1)
	// Open the round outside the measured loop: creation appends an
	// open record and allocates the aggregate, once per round ever.
	if err := b.ConsumeReport(frames[users-1]); err != nil {
		t.Fatal(err)
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := b.ConsumeReport(frames[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("instrumented ConsumeReport allocates %v times per report, want 0", allocs)
	}
}

// RoundsProgress (the /statusz enumeration) must agree with
// RoundProgressOf at every point mid-round, and must never create
// rounds.
func TestRoundsProgressConsistency(t *testing.T) {
	const users = 6
	params := testParams()
	b, err := New(Config{Params: params, Users: users, UsersEstimator: detector.EstimatorMean})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if got := b.RoundsProgress(); len(got) != 0 {
		t.Fatalf("fresh backend RoundsProgress = %v, want empty", got)
	}
	b.mu.Lock()
	n := len(b.rounds)
	b.mu.Unlock()
	if n != 0 {
		t.Fatalf("RoundsProgress created %d rounds on an empty backend", n)
	}

	frames := rawFrames(t, params, users, 7)
	for i, f := range frames {
		if err := b.ConsumeReport(f); err != nil {
			t.Fatal(err)
		}
		snaps := b.RoundsProgress()
		if len(snaps) != 1 || snaps[0].Round != 7 {
			t.Fatalf("after %d reports: snapshots = %+v", i+1, snaps)
		}
		p, err := b.RoundProgressOf(0, 7)
		if err != nil {
			t.Fatal(err)
		}
		s := snaps[0]
		if s.Reported != p.Reported || s.Missing != len(p.Missing) ||
			s.Adjusted != p.Adjusted || s.Sealed != p.Sealed || s.Closed != p.Closed {
			t.Fatalf("after %d reports: snapshot %+v != progress %+v", i+1, s, p)
		}
		if s.Reported+s.Missing != users {
			t.Fatalf("torn snapshot: reported %d + missing %d != %d", s.Reported, s.Missing, users)
		}
	}

	// Concurrent status polls against concurrent submissions into a
	// second round must always observe internally consistent snapshots
	// (run under -race this also proves the locking).
	frames2 := rawFrames(t, params, users, 8)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, s := range b.RoundsProgress() {
				if s.Reported+s.Missing != users {
					t.Errorf("torn snapshot: %+v", s)
					return
				}
			}
		}
	}()
	for _, f := range frames2 {
		if err := b.ConsumeReport(f); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	if _, _, err := b.CloseRound(0, 7, 0); err != nil {
		t.Fatal(err)
	}
	snaps := b.RoundsProgress()
	if len(snaps) != 2 || !snaps[0].Closed || snaps[0].Round != 7 || snaps[1].Round != 8 {
		t.Fatalf("after close: snapshots = %+v", snaps)
	}
}

// The accept/reject and round-lifecycle counters must account for
// exactly what the back-end did, with rejections classified by reason.
func TestBackendMetricsAccounting(t *testing.T) {
	const users = 4
	reg := obs.New()
	params := testParams()
	b, err := New(Config{
		Params: params, Users: users,
		UsersEstimator: detector.EstimatorMean,
		Metrics:        reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	frames := rawFrames(t, params, users, 1)
	for _, f := range frames {
		if err := b.ConsumeReport(f); err != nil {
			t.Fatal(err)
		}
	}
	// One duplicate, one from a stale config version.
	if err := b.ConsumeReport(frames[0]); !errors.Is(err, privacy.ErrDuplicate) {
		t.Fatalf("duplicate err = %v", err)
	}
	stale := *frames[1]
	stale.ConfigVersion = 99
	if err := b.ConsumeReport(&stale); !errors.Is(err, privacy.ErrIncompatibleConfig) {
		t.Fatalf("stale err = %v", err)
	}
	if _, _, err := b.CloseRound(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.ConsumeReport(frames[2]); !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("closed err = %v", err)
	}

	snap := reg.Snapshot()
	want := map[string]float64{
		"eyewnder_reports_accepted_total":                         users,
		`eyewnder_reports_rejected_total{reason="duplicate"}`:     1,
		`eyewnder_reports_rejected_total{reason="stale_version"}`: 1,
		`eyewnder_reports_rejected_total{reason="round_closed"}`:  1,
		"eyewnder_rounds_opened_total":                            1,
		"eyewnder_rounds_closed_total":                            1,
		"eyewnder_rounds_sealed_total":                            0,
		"eyewnder_adjust_shares_total":                            0,
	}
	for k, v := range want {
		if snap[k] != v {
			t.Errorf("%s = %v, want %v", k, snap[k], v)
		}
	}
}

// paperRound ingests a full roster's reports at the paper geometry
// (ε = δ = 0.001, |A| = 100k) into round 1 of a fresh in-memory
// back-end, with every cell non-zero — a sketch that has seen a real
// fleet has no empty column, so every ID in the space counts.
func paperRound(t testing.TB, reg *obs.Registry) (*Backend, privacy.Params) {
	t.Helper()
	const users = 4
	params := privacy.DefaultParams()
	b, err := New(Config{Params: params, Users: users, UsersEstimator: detector.EstimatorMean, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	for _, f := range rawFrames(t, params, users, 1) {
		for i := range f.Cells {
			f.Cells[i]++
		}
		if err := b.ConsumeReport(f); err != nil {
			t.Fatal(err)
		}
	}
	return b, params
}

// One finalize at paper geometry with a full roster allocates the clone
// of the aggregate, the count table, the threshold sample and the
// sweep's per-worker bookkeeping — and nothing that grows with the
// number of non-zero IDs, which is what the map it replaces did
// (9.5 MB in 1 085 objects for the same input).
func TestFinalizeAllocCeiling(t *testing.T) {
	// The sweep starts one goroutine per worker; pin the worker count so
	// the object ceiling means the same thing on every machine.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	b, params := paperRound(t, nil)
	r, ok := b.lookupRound(0, 1)
	if !ok {
		t.Fatal("round 1 missing")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	// Warm-up: goroutine descriptors and the stack growth for the
	// counting sort's bucket array are paid once per process.
	if err := b.finalizeLocked(r); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := b.finalizeLocked(r); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if r.distinct != int(params.IDSpace) {
		t.Fatalf("saturated round counts %d distinct ads, want the whole ID space (%d)", r.distinct, params.IDSpace)
	}
	objects := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	ceiling := 8*params.IDSpace + 8*uint64(b.cells) + 8*uint64(r.distinct) + 64<<10
	t.Logf("finalize: %d objects, %d bytes (ceiling 16 / %d)", objects, bytes, ceiling)
	if objects > 16 || bytes > ceiling {
		t.Fatalf("finalize allocated %d objects / %d bytes, want <= 16 objects / %d bytes", objects, bytes, ceiling)
	}
}

// One close must leave one observation in each of the four stage
// histograms, and the stages must account for the close: their sum is
// within 20 % of the wall time of the CloseRound call they were
// measured in.
func TestCloseStageHistograms(t *testing.T) {
	reg := obs.New()
	b, _ := paperRound(t, reg)
	start := time.Now()
	if _, _, err := b.CloseRound(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Seconds()

	snap := reg.Snapshot()
	var sum float64
	for _, stage := range []string{"subtract", "extract", "threshold", "log_sync"} {
		label := `{stage="` + stage + `"}`
		if n := snap["eyewnder_round_close_stage_seconds_count"+label]; n != 1 {
			t.Errorf("stage %s observed %v times after one close, want 1", stage, n)
		}
		sum += snap["eyewnder_round_close_stage_seconds_sum"+label]
	}
	t.Logf("stages sum to %.3f ms of a %.3f ms close", sum*1e3, wall*1e3)
	if sum > wall || sum < 0.8*wall {
		t.Errorf("stages sum to %.3f ms, the close took %.3f ms: want within 20 %%", sum*1e3, wall*1e3)
	}
	if _, ok := snap["eyewnder_restore_refinalize_seconds"]; !ok {
		t.Error("eyewnder_restore_refinalize_seconds not exported")
	}
}
