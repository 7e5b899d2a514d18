package backend

import (
	"errors"
	"testing"

	"eyewnder/internal/detector"
	"eyewnder/internal/privacy"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// stampedFrames builds one round's reports and converts them to wire
// frames stamped with the given config version.
func stampedFrames(t *testing.T, params privacy.Params, users int, round uint64, cv uint32) []*privacy.Report {
	t.Helper()
	reports := buildReports(t, params, users, round)
	for _, r := range reports {
		r.ConfigVersion = cv
	}
	return reports
}

// A fresh back-end starts at config/roster version 1 and bumps both on
// every board *change*; rounds pin the version current at their open.
func TestConfigVersionLifecycle(t *testing.T) {
	params := storeTestParams()
	b := newStoreBackend(t, params, 4, nil)
	cfg := b.CurrentConfig()
	if cfg.Version != 1 || cfg.RosterVersion != 1 || cfg.RosterSize != 4 {
		t.Fatalf("fresh config = %+v", cfg)
	}
	for u := 0; u < 4; u++ {
		if _, err := b.Register(u, []byte{byte(u), 1}); err != nil {
			t.Fatal(err)
		}
	}
	cfg = b.CurrentConfig()
	if cfg.Version != 5 || cfg.RosterVersion != 5 {
		t.Fatalf("after 4 registrations: %+v", cfg)
	}

	// Reports stamped with the current version fold; stale ones bounce.
	reports := stampedFrames(t, params, 4, 1, cfg.Version)
	if err := submit(b, reports[0]); err != nil {
		t.Fatal(err)
	}
	stale := stampedFrames(t, params, 4, 1, cfg.Version-1)[1]
	if err := submit(b, stale); !errors.Is(err, privacy.ErrIncompatibleConfig) {
		t.Fatalf("stale submit = %v, want ErrIncompatibleConfig", err)
	}
	if err := b.ConsumeReport(wire.ReportFrameOf(stale)); !errors.Is(err, privacy.ErrIncompatibleConfig) {
		t.Fatalf("stale streamed submit = %v, want ErrIncompatibleConfig", err)
	}

	// A round keeps the version it opened under even after a bump: the
	// old cohort finishes round 1, the new version owns round 2.
	if _, err := b.Register(2, []byte{99, 99}); err != nil { // key change: bump to 6
		t.Fatal(err)
	}
	if v := b.CurrentConfig().Version; v != 6 {
		t.Fatalf("version after key change = %d", v)
	}
	if err := submit(b, reports[1]); err != nil { // still v5, round 1 pinned v5
		t.Fatal(err)
	}
	newRound := stampedFrames(t, params, 4, 2, 5)[0] // stale cohort into a v6 round
	if err := submit(b, newRound); !errors.Is(err, privacy.ErrIncompatibleConfig) {
		t.Fatalf("old-cohort report into new round = %v, want ErrIncompatibleConfig", err)
	}
}

// A mid-deployment roster bump must be recovered byte-identically from
// the WAL: the restarted back-end advertises the same versions, its
// recovered rounds keep their pins, and a stale-version report is
// rejected after the restart exactly as before it.
func TestRosterBumpRecoveredFromWAL(t *testing.T) {
	const users = 4
	params := storeTestParams()
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1 := newStoreBackend(t, params, users, st1)
	for u := 0; u < users; u++ {
		if _, err := b1.Register(u, []byte{byte(u), 7}); err != nil {
			t.Fatal(err)
		}
	}
	v0 := b1.CurrentConfig().Version // 5 after four fresh registrations
	// Round 1 opens pinned at v0.
	if err := b1.ConsumeReport(wire.ReportFrameOf(stampedFrames(t, params, users, 1, v0)[0])); err != nil {
		t.Fatal(err)
	}
	// The mid-deployment bump: user 1 re-enrolls with a new key.
	if _, err := b1.Register(1, []byte{200, 200}); err != nil {
		t.Fatal(err)
	}
	v1 := b1.CurrentConfig().Version
	if v1 != v0+1 {
		t.Fatalf("bump: %d -> %d", v0, v1)
	}
	if err := b1.SyncReports(); err != nil {
		t.Fatal(err)
	}
	// Crash: no graceful close of b1/st1.

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b2 := newStoreBackend(t, params, users, st2)
	cfg := b2.CurrentConfig()
	if cfg.Version != v1 || cfg.RosterVersion != v1 {
		t.Fatalf("recovered config = %+v, want version %d", cfg, v1)
	}
	if keys, _, _ := b2.Roster(); keys[1][0] != 200 {
		t.Fatalf("recovered roster key = %v", keys[1])
	}
	// Round 1 recovered with its v0 pin: the old cohort still fits, the
	// new version does not.
	if err := b2.ConsumeReport(wire.ReportFrameOf(stampedFrames(t, params, users, 1, v0)[1])); err != nil {
		t.Fatal(err)
	}
	if err := b2.ConsumeReport(wire.ReportFrameOf(stampedFrames(t, params, users, 1, v1)[2])); !errors.Is(err, privacy.ErrIncompatibleConfig) {
		t.Fatalf("new-version report into recovered v%d round = %v", v0, err)
	}
	// A fresh round opens at the recovered current version; the stale
	// cohort is rejected there, live and identically to pre-crash.
	if err := b2.ConsumeReport(wire.ReportFrameOf(stampedFrames(t, params, users, 2, v0)[0])); !errors.Is(err, privacy.ErrIncompatibleConfig) {
		t.Fatalf("stale report into post-recovery round = %v, want ErrIncompatibleConfig", err)
	}
	if err := b2.ConsumeReport(wire.ReportFrameOf(stampedFrames(t, params, users, 2, v1)[0])); err != nil {
		t.Fatalf("current-version report into post-recovery round = %v", err)
	}
}

// closeFullRound submits every user's report for the round and closes it.
func closeFullRound(t *testing.T, b *Backend, params privacy.Params, users int, round uint64) {
	t.Helper()
	cv := b.CurrentConfig().Version
	for _, r := range stampedFrames(t, params, users, round, cv) {
		if err := b.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatalf("round %d user %d: %v", round, r.User, err)
		}
	}
	if _, _, err := b.CloseRound(0, round, 0); err != nil {
		t.Fatalf("close %d: %v", round, err)
	}
}

// RetainRounds ages closed rounds out of memory once their Users_th has
// been served for the configured horizon, live and across recovery.
func TestRetainRoundsEviction(t *testing.T) {
	const users = 2
	params := storeTestParams()
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1, err := New(Config{
		Params: params, Users: users, UsersEstimator: detector.EstimatorMean,
		Store: st1, RetainRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b1.Close() })
	for round := uint64(1); round <= 4; round++ {
		closeFullRound(t, b1, params, users, round)
	}
	// Horizon 2 behind round 4: rounds 1 and 2 are gone, 3 and 4 serve.
	for round, want := range map[uint64]error{1: ErrUnknownRound, 2: ErrUnknownRound, 3: nil, 4: nil} {
		if _, err := b1.Threshold(0, round); !errors.Is(err, want) && err != want {
			t.Fatalf("live Threshold(%d) = %v, want %v", round, err, want)
		}
	}
	// A retired round must NOT be silently resurrected by the
	// round-creating paths: a late report or status poll for round 1
	// gets ErrUnknownRound, never a fresh empty round (which would
	// re-admit users who already reported and publish a second
	// Users_th for a served round).
	if _, err := b1.RoundProgressOf(0, 1); !errors.Is(err, ErrUnknownRound) {
		t.Fatalf("RoundStatus on retired round = %v, want ErrUnknownRound", err)
	}
	late := stampedFrames(t, params, users, 1, b1.CurrentConfig().Version)[0]
	if err := b1.ConsumeReport(wire.ReportFrameOf(late)); !errors.Is(err, ErrUnknownRound) {
		t.Fatalf("late report into retired round = %v, want ErrUnknownRound", err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery re-applies the horizon: aged-out rounds stay gone even
	// though the WAL still carries them.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b2, err := New(Config{
		Params: params, Users: users, UsersEstimator: detector.EstimatorMean,
		Store: st2, RetainRounds: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b2.Close() })
	for round, want := range map[uint64]error{1: ErrUnknownRound, 2: ErrUnknownRound, 3: nil, 4: nil} {
		if _, err := b2.Threshold(0, round); !errors.Is(err, want) && err != want {
			t.Fatalf("recovered Threshold(%d) = %v, want %v", round, err, want)
		}
	}

	// The still-retained rounds answer identically to the first process.
	th1, _ := b1.Threshold(0, 3)
	th2, _ := b2.Threshold(0, 3)
	if th1 != th2 {
		t.Fatalf("retained round diverged: %v vs %v", th1, th2)
	}
}

// An unclosed straggler below the horizon is never evicted: it has not
// served a threshold yet.
func TestRetainRoundsKeepsOpenRounds(t *testing.T) {
	const users = 2
	params := storeTestParams()
	b, err := New(Config{
		Params: params, Users: users, UsersEstimator: detector.EstimatorMean, RetainRounds: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	// Round 1 stays open (one report only); rounds 2..4 close.
	cv := b.CurrentConfig().Version
	if err := b.ConsumeReport(wire.ReportFrameOf(stampedFrames(t, params, users, 1, cv)[0])); err != nil {
		t.Fatal(err)
	}
	for round := uint64(2); round <= 4; round++ {
		closeFullRound(t, b, params, users, round)
	}
	if _, err := b.Threshold(0, 2); !errors.Is(err, ErrUnknownRound) {
		t.Fatalf("Threshold(2) = %v, want ErrUnknownRound", err)
	}
	p, err := b.RoundProgressOf(0, 1)
	if err != nil || p.Closed || p.Reported != 1 {
		t.Fatalf("open straggler: %+v err=%v", p, err)
	}
}

// Sanity: ReportFrameOf must carry the config version (the wire preamble does).
func TestFrameOfCarriesConfigVersion(t *testing.T) {
	params := storeTestParams()
	r := stampedFrames(t, params, 2, 1, 7)[0]
	if f := wire.ReportFrameOf(r); f.ConfigVersion != 7 {
		t.Fatalf("ReportFrameOf dropped the config version: got %d", f.ConfigVersion)
	}
}
