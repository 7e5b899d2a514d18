package backend

import (
	"crypto/rand"
	"errors"
	"reflect"
	"slices"
	"sync"
	"testing"

	"eyewnder/internal/blind"
	"eyewnder/internal/detector"
	"eyewnder/internal/obs"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// published is what a closed round serves: its Users_th and its per-ad
// counts.
type published struct {
	usersTh float64
	counts  map[uint64]uint64
}

const deriveTestUsers = 4

// closeRoundsOnDisk runs a primary on a fresh disk store in dir through
// rounds 1 and 2 of campaign 0 and of two provisioned campaigns, closing
// each, and returns what every closed round published. With snap set,
// the store snapshots between the two round IDs, so a restart loads the
// first three closes from the snapshot base and replays the rest from
// the WAL; without it every close stays in the WAL, where a replica can
// be fed it.
func closeRoundsOnDisk(t *testing.T, dir string, snap bool) map[roundKey]published {
	t.Helper()
	params := storeTestParams()
	camps := testCampaigns(2)
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	b := newStoreBackend(t, params, deriveTestUsers, st)
	roster, err := blind.NewRosterKeystream(params.Suite, deriveTestUsers, rand.Reader, params.Keystream)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range camps {
		if err := b.AddCampaign(c); err != nil {
			t.Fatal(err)
		}
	}
	want := make(map[roundKey]published)
	record := func(c uint32, round uint64) {
		th, _, err := b.CloseRound(c, round, 0)
		if err != nil {
			t.Fatalf("close %d/%d: %v", c, round, err)
		}
		counts, err := b.UserCounts(c, round)
		if err != nil {
			t.Fatal(err)
		}
		want[roundKey{c, round}] = published{th, counts}
	}
	for round := uint64(1); round <= 2; round++ {
		cv := b.CurrentConfig().Version
		for _, r := range stampedFrames(t, params, deriveTestUsers, round, cv) {
			if err := b.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
				t.Fatal(err)
			}
		}
		record(0, round)
		for _, c := range camps {
			frames, _ := buildCampaignFrames(t, roster, c, params, deriveTestUsers, round)
			for _, f := range frames {
				if err := b.ConsumeReport(f); err != nil {
					t.Fatal(err)
				}
			}
			record(c.ID, round)
		}
		if snap && round == 1 {
			if err := st.Snapshot(b.captureRoundStates); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// stageCount reads how many times a close stage has been observed.
func stageCount(reg *obs.Registry, stage string) float64 {
	return reg.Snapshot()[`eyewnder_round_close_stage_seconds_count{stage="`+stage+`"}`]
}

// assertDerivesOnFirstRead checks a back-end rebuilt from the log: every
// logged close was finalized (one subtract each) but none was swept, and
// each round then derives exactly once, on its first read, serving what
// the primary published.
func assertDerivesOnFirstRead(t *testing.T, b *Backend, reg *obs.Registry, want map[roundKey]published) {
	t.Helper()
	if n := stageCount(reg, "subtract"); n != float64(len(want)) {
		t.Fatalf("rebuilt back-end finalized %v closes, want %d", n, len(want))
	}
	if n, m := stageCount(reg, "extract"), stageCount(reg, "threshold"); n != 0 || m != 0 {
		t.Fatalf("rebuilt back-end ran %v sweeps and %v thresholds before any read, want 0", n, m)
	}
	keys := make([]roundKey, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b roundKey) int {
		if a.campaign != b.campaign {
			return int(a.campaign) - int(b.campaign)
		}
		return int(a.round) - int(b.round)
	})
	for i, k := range keys {
		th, err := b.Threshold(k.campaign, k.round)
		if err != nil {
			t.Fatal(err)
		}
		if th != want[k].usersTh {
			t.Fatalf("round %d/%d: Users_th %v, primary published %v", k.campaign, k.round, th, want[k].usersTh)
		}
		if n := stageCount(reg, "extract"); n != float64(i+1) {
			t.Fatalf("after reading %d rounds: %v sweeps, want %d", i+1, n, i+1)
		}
		counts, err := b.UserCounts(k.campaign, k.round)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(counts, want[k].counts) {
			t.Fatalf("round %d/%d: counts differ from the primary's", k.campaign, k.round)
		}
		if th2, _ := b.Threshold(k.campaign, k.round); th2 != th {
			t.Fatalf("round %d/%d: re-read Users_th %v, first read %v", k.campaign, k.round, th2, th)
		}
		if n, m := stageCount(reg, "extract"), stageCount(reg, "threshold"); n != float64(i+1) || m != float64(i+1) {
			t.Fatalf("round %d/%d re-read: %v sweeps and %v thresholds, want %d of each", k.campaign, k.round, n, m, i+1)
		}
	}
}

// A restart re-finalizes every retained closed round — from the snapshot
// base and from the WAL — but sweeps none of them: each round derives its
// count table and Users_th once, on its first read, equal to what the
// primary published before the restart.
func TestRecoverDerivesOnFirstRead(t *testing.T) {
	dir := t.TempDir()
	want := closeRoundsOnDisk(t, dir, true)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.New()
	b, err := New(Config{Params: storeTestParams(), Users: deriveTestUsers,
		UsersEstimator: detector.EstimatorMean, Store: st, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	assertDerivesOnFirstRead(t, b, reg, want)
}

// The same holds on a warm replica: applying a replicated close
// finalizes it, and the first read derives.
func TestReplicaDerivesOnFirstRead(t *testing.T) {
	dir := t.TempDir()
	want := closeRoundsOnDisk(t, dir, false)
	reg := obs.New()
	replica, err := New(Config{Params: storeTestParams(), Users: deriveTestUsers,
		UsersEstimator: detector.EstimatorMean, Replica: true, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	feedWALInChunks(t, replica, dir, 7)
	assertDerivesOnFirstRead(t, replica, reg, want)
}

// Many readers racing to a freshly restored round's first read see one
// sweep and the same answers. Run with -race.
func TestConcurrentFirstReadsDeriveOnce(t *testing.T) {
	dir := t.TempDir()
	want := closeRoundsOnDisk(t, dir, false)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := obs.New()
	b, err := New(Config{Params: storeTestParams(), Users: deriveTestUsers,
		UsersEstimator: detector.EstimatorMean, Store: st, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	const readers = 16
	k := roundKey{1, 2}
	ths := make([]float64, readers)
	counts := make([]map[uint64]uint64, readers)
	var wg sync.WaitGroup
	for g := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			// Half the readers come in through each accessor first.
			if g%2 == 0 {
				if ths[g], err = b.Threshold(k.campaign, k.round); err == nil {
					counts[g], err = b.UserCounts(k.campaign, k.round)
				}
			} else if counts[g], err = b.UserCounts(k.campaign, k.round); err == nil {
				ths[g], err = b.Threshold(k.campaign, k.round)
			}
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for g := range readers {
		if ths[g] != want[k].usersTh || !reflect.DeepEqual(counts[g], want[k].counts) {
			t.Fatalf("reader %d: Users_th %v and %d counts, primary published %v and %d", g, ths[g], len(counts[g]), want[k].usersTh, len(want[k].counts))
		}
	}
	if n := stageCount(reg, "extract"); n != 1 {
		t.Fatalf("%d concurrent first reads ran %v sweeps, want 1", readers, n)
	}
}

var errCloseLogFailed = errors.New("close record lost")

// failFirstClose is a store whose first close record fails to log.
type failFirstClose struct {
	store.Store
	failed bool
}

func (s *failFirstClose) AppendClose(c uint32, id uint64) error {
	if !s.failed {
		s.failed = true
		return errCloseLogFailed
	}
	return s.Store.AppendClose(c, id)
}

// A close that fails to log derives nothing: the round stays open, more
// reports fold in, and the retried close publishes the counts and
// Users_th of its own final sketch — the same as a back-end that saw
// every report and closed once — not numbers derived from the failed
// attempt's.
func TestCloseFailedToLogPublishesRetry(t *testing.T) {
	const users, round = 5, 1
	params := storeTestParams()
	reports, roster := buildReportsWithRoster(t, params, users, round)

	control := newStoreBackend(t, params, users, nil)
	for _, r := range reports {
		if err := control.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	wantTh, _, err := control.CloseRound(0, round, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantCounts, err := control.UserCounts(0, round)
	if err != nil {
		t.Fatal(err)
	}

	disk, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	reg := obs.New()
	b, err := New(Config{Params: params, Users: users, UsersEstimator: detector.EstimatorMean,
		Store: &failFirstClose{Store: disk}, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	// Users 0-3 report and adjust for the missing user 4, so the first
	// close finalizes a four-user sketch before its record fails to log.
	for _, r := range reports[:users-1] {
		if err := submit(b, r); err != nil {
			t.Fatal(err)
		}
	}
	cells := len(reports[0].Sketch.FlatCells())
	for u := range users - 1 {
		share, err := roster.Parties[u].Adjustment(round, cells, []int{users - 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := submitShare(b, 0, u, round, share); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.CloseRound(0, round, 0); !errors.Is(err, errCloseLogFailed) {
		t.Fatalf("first close: err = %v, want the injected log failure", err)
	}
	if _, err := b.Threshold(0, round); !errors.Is(err, ErrRoundNotClosed) {
		t.Fatalf("Threshold after a close that failed to log: err = %v, want ErrRoundNotClosed", err)
	}
	if n := stageCount(reg, "extract"); n != 0 {
		t.Fatalf("a close that failed to log ran %v sweeps, want 0", n)
	}

	// User 4 turns up after all: the roster is full, the shares are no
	// longer subtracted, and the retried close finalizes five users.
	if err := submit(b, reports[users-1]); err != nil {
		t.Fatal(err)
	}
	th, _, err := b.CloseRound(0, round, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := b.UserCounts(0, round)
	if err != nil {
		t.Fatal(err)
	}
	if th != wantTh || !reflect.DeepEqual(counts, wantCounts) {
		t.Fatalf("retried close published Users_th %v over %d ads, control %v over %d", th, len(counts), wantTh, len(wantCounts))
	}
}
