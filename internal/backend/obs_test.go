package backend

import (
	"encoding/binary"
	"errors"
	"sync"
	"testing"

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
			Keystream: byte(params.Keystream),
			Cells:     cms.FlatCells(),
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
// rounds the way RoundProgressOf's getRound does.
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
