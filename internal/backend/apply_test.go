package backend

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"eyewnder/internal/campaign"
	"eyewnder/internal/detector"
	"eyewnder/internal/privacy"
	"eyewnder/internal/store"
	"eyewnder/internal/vec"
	"eyewnder/internal/wire"
)

// servedState is everything a node serves, gathered for == comparison:
// every live round's durable state (cells, N, reported set, adjustment
// shares, closed flag, pinned versions), each closed round's count
// table and Users_th, the bulletin board, the negotiated versions and
// the campaign directory.
type servedState struct {
	Rounds        []*store.RoundState
	Tables        map[roundKey][]uint64
	Distinct      map[roundKey]int
	UsersTh       map[roundKey]float64
	Roster        [][]byte
	ConfigVersion uint32
	RosterVersion uint32
	Campaigns     []campaign.Campaign
}

func servedStateOf(t *testing.T, b *Backend) servedState {
	t.Helper()
	rounds, err := b.captureRoundStates()
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(rounds, func(i, j int) bool {
		if rounds[i].Campaign != rounds[j].Campaign {
			return rounds[i].Campaign < rounds[j].Campaign
		}
		return rounds[i].Round < rounds[j].Round
	})
	s := servedState{
		Rounds:   rounds,
		Tables:   make(map[roundKey][]uint64),
		Distinct: make(map[roundKey]int),
		UsersTh:  make(map[roundKey]float64),
	}
	for _, rs := range rounds {
		k := roundKey{rs.Campaign, rs.Round}
		r, _ := b.lookupRound(k.campaign, k.round)
		r.mu.RLock()
		closed := r.closed
		r.mu.RUnlock()
		if closed {
			s.Tables[k], s.Distinct[k], s.UsersTh[k] = b.results(r)
		}
	}
	s.Roster, s.ConfigVersion, s.RosterVersion = b.Roster()
	s.Campaigns = b.Campaigns()
	return s
}

// assertSameServed fails on the first field where got differs from the
// primary's state.
func assertSameServed(t *testing.T, name string, got, want servedState) {
	t.Helper()
	if len(got.Rounds) != len(want.Rounds) {
		t.Fatalf("%s holds %d rounds, primary %d", name, len(got.Rounds), len(want.Rounds))
	}
	for i, rs := range got.Rounds {
		if !reflect.DeepEqual(rs, want.Rounds[i]) {
			w := want.Rounds[i]
			t.Fatalf("%s round %d/%d differs from the primary's (N %d vs %d, closed %v vs %v, reported %v vs %v, %d vs %d shares)",
				name, rs.Campaign, rs.Round, rs.N, w.N, rs.Closed, w.Closed, rs.Reported, w.Reported, len(rs.Adjusts), len(w.Adjusts))
		}
	}
	if !reflect.DeepEqual(got.Tables, want.Tables) || !reflect.DeepEqual(got.Distinct, want.Distinct) {
		t.Fatalf("%s count tables differ from the primary's", name)
	}
	if !reflect.DeepEqual(got.UsersTh, want.UsersTh) {
		t.Fatalf("%s Users_th %v, primary %v", name, got.UsersTh, want.UsersTh)
	}
	if !reflect.DeepEqual(got.Roster, want.Roster) || got.ConfigVersion != want.ConfigVersion || got.RosterVersion != want.RosterVersion {
		t.Fatalf("%s roster/versions (%d, %d) differ from the primary's (%d, %d)",
			name, got.ConfigVersion, got.RosterVersion, want.ConfigVersion, want.RosterVersion)
	}
	if !reflect.DeepEqual(got.Campaigns, want.Campaigns) {
		t.Fatalf("%s campaigns %v, primary %v", name, got.Campaigns, want.Campaigns)
	}
}

// replayBufBytes is the store's replay reader buffer (512 KiB): records
// larger than it take the reader's copying path.
const replayBufBytes = 1 << 19

// Restart and warm replica rebuild state through one applier, so the
// live primary that wrote a log, a back-end built over the reopened
// directory and a replica fed the raw WAL bytes must hold == state. The
// log carries every record kind and, appended straight to the store
// beside the primary's own records, every record the acceptance rules
// skip: a duplicate, suite/seed/layout mismatches, a stale and a zero
// config version (the missing user's report: no version is a
// wildcard), an out-of-roster user, an unknown round, a report and a share
// after the close, a share of the wrong size, a re-logged open. The
// primary never saw those, so any one the applier took would show as a
// difference. The primary also refuses first frames of a new round
// (refusedFrameCases), which must leave no round and no record. Paper-geometry records straddle the replay buffer, and a
// third campaign's records are larger than it.
func TestReplicaRecoveredEquivalence(t *testing.T) {
	const users = 6
	params := storeTestParams()
	paper := campaign.Campaign{ID: 7, Name: "paper", Epsilon: 0.001, Delta: 0.001, IDSpace: 2048}
	huge := campaign.Campaign{ID: 9, Name: "huge", Epsilon: 0.0001, Delta: 0.02, IDSpace: 2048}
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	primary := newStoreBackend(t, params, users, st)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	consume := func(f *wire.ReportFrame) { t.Helper(); must(primary.ConsumeReport(f)) }
	// logged appends a report the primary never saw.
	logged := func(f wire.ReportFrame, edit func(*wire.ReportFrame)) {
		t.Helper()
		edit(&f)
		must(st.AppendReport(f.Campaign, f.Round, f.User, f.D, f.W, f.N, f.Seed, f.Keystream, f.ConfigVersion, f.Cells))
	}
	share := func(seed, n int) []uint64 {
		out := make([]uint64, n)
		for i := range out {
			out[i] = uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)
		}
		return out
	}

	// Odd key lengths put the later cell blocks at every byte alignment.
	for u := 0; u < users; u++ {
		key := make([]byte, 31+u)
		key[0] = byte(u + 1)
		if _, err := primary.Register(u, key); err != nil {
			t.Fatal(err)
		}
	}
	must(primary.AddCampaign(paper))
	must(primary.AddCampaign(huge))

	// Campaign 0, round 1: users 0–4 report, user 5 stays missing, the
	// reporters upload shares and the round closes through adjustments.
	reports, roster := buildReportsWithRoster(t, params, users, 1)
	cv := primary.CurrentConfig().Version
	restamp(reports, cv)
	for _, r := range reports[:4] {
		consume(wire.ReportFrameOf(r))
	}
	f4 := *wire.ReportFrameOf(reports[4])
	logged(*wire.ReportFrameOf(reports[5]), func(f *wire.ReportFrame) { f.User = 0 })          // duplicate
	logged(f4, func(f *wire.ReportFrame) { f.Keystream ^= 1 })                                 // suite mismatch
	logged(f4, func(f *wire.ReportFrame) { f.Seed++ })                                         // seed mismatch
	logged(f4, func(f *wire.ReportFrame) { f.D++; f.Cells = make([]uint64, f.D*f.W) })         // layout mismatch
	logged(f4, func(f *wire.ReportFrame) { f.ConfigVersion = 999 })                            // stale config version
	logged(*wire.ReportFrameOf(reports[5]), func(f *wire.ReportFrame) { f.ConfigVersion = 0 }) // zero config version: no wildcard
	logged(f4, func(f *wire.ReportFrame) { f.User = 20 })                                      // out of roster
	logged(f4, func(f *wire.ReportFrame) { f.Round = 9 })                                      // unknown round
	r1, _ := primary.lookupRound(0, 1)
	rcfg := r1.agg.Config()
	must(st.AppendOpen(0, 1, users, f4.D, f4.W, f4.Seed, f4.Keystream, rcfg.Version, rcfg.RosterVersion)) // re-logged open
	consume(&f4)
	cells := f4.D * f4.W
	for u := 0; u < 5; u++ {
		must(submitShare(primary, 0, u, 1, share(u, cells)))
	}
	must(submitShare(primary, 0, 2, 1, share(2, cells))) // identical re-upload: logged again, last write wins
	must(st.AppendAdjust(0, 1, 1, share(99, 5)))         // wrong cell count
	must(st.AppendAdjust(0, 1, 20, share(99, cells)))    // out of roster
	if _, _, err := primary.CloseRound(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	logged(*wire.ReportFrameOf(reports[5]), func(*wire.ReportFrame) {}) // report after the close
	must(st.AppendAdjust(0, 1, 0, share(98, cells)))                    // share after the close

	// Campaign 7 at paper geometry (152 KB records, several straddling
	// the replay buffer): every user reports and the round closes.
	frames7, _ := buildCampaignFrames(t, roster, paper, params, users, 1)
	for _, f := range frames7 {
		f.ConfigVersion = cv
		consume(f)
	}
	if _, _, err := primary.CloseRound(paper.ID, 1, 0); err != nil {
		t.Fatal(err)
	}
	// Campaign 9: two 870 KB records, each larger than the replay buffer;
	// the round stays open.
	frames9, _ := buildCampaignFrames(t, roster, huge, params, users, 1)
	if 8*len(frames9[0].Cells) <= replayBufBytes {
		t.Fatalf("campaign 9 records are %d bytes, not larger than the replay buffer", 8*len(frames9[0].Cells))
	}
	frames9[0].ConfigVersion, frames9[1].ConfigVersion = cv, cv
	consume(frames9[0])
	consume(frames9[1])

	// A key change bumps the versions; campaign 0 round 2 opens under the
	// new config, and a report stamped with the old one is stale.
	if _, err := primary.Register(3, []byte("a new key for user 3")); err != nil {
		t.Fatal(err)
	}
	cv = primary.CurrentConfig().Version
	for _, r := range stampedFrames(t, params, users, 2, cv)[:3] {
		consume(wire.ReportFrameOf(r))
	}
	stale := stampedFrames(t, params, users, 2, cv-1)[4]
	logged(*wire.ReportFrameOf(stale), func(*wire.ReportFrame) {})
	// Refused first frames of new rounds, in campaigns 0 and 7: none may
	// open a round, on the primary or in the log.
	for _, base := range []*wire.ReportFrame{wire.ReportFrameOf(stale), frames7[0]} {
		for _, tc := range refusedFrameCases {
			f := *base
			f.Round, f.ConfigVersion = 50, cv
			tc.edit(&f)
			if err := primary.ConsumeReport(&f); err == nil {
				t.Fatalf("%s: refused frame admitted", tc.name)
			}
		}
	}
	must(primary.SyncReports())
	must(st.Close())
	want := servedStateOf(t, primary)
	for k := range loggedOpens(t, dir) {
		if k.round == 50 {
			t.Fatalf("a refused frame logged an open of round %d/%d", k.campaign, k.round)
		}
	}

	// The scripted cases left their marks on the primary's own state.
	if p, err := primary.RoundProgressOf(0, 1); err != nil || !p.Closed || !reflect.DeepEqual(p.Missing, []int{5}) || p.Adjusted != 5 {
		t.Fatalf("round 0/1 = %+v, %v; want closed with user 5 missing and 5 shares", p, err)
	}
	if _, err := primary.RoundProgressOf(0, 9); !errors.Is(err, ErrUnknownRound) {
		t.Fatalf("round 0/9 = %v, want ErrUnknownRound", err)
	}

	for _, chunk := range []int{1021, 1 << 20} {
		replica := newReplica(t, params, users)
		feedWALInChunks(t, replica, dir, chunk)
		assertSameServed(t, "replica", servedStateOf(t, replica), want)
		replica.Close()
	}
	st2, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	assertSameServed(t, "restarted node", servedStateOf(t, newStoreBackend(t, params, users, st2)), want)
}

// A warm replica ages closed rounds out exactly as the primary does at
// close and a restart does at start: with RetainRounds 1 and three
// closed rounds, rounds 1 and 2 answer ErrUnknownRound on all three
// nodes, and each holds only round 3 — a long-running follower's memory
// stays bounded.
func TestReplicaRetiresLikePrimary(t *testing.T) {
	const users = 2
	params := storeTestParams()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Params: params, Users: users, UsersEstimator: detector.EstimatorMean, RetainRounds: 1}
	node := func(st store.Store, replica bool) *Backend {
		t.Helper()
		c := cfg
		c.Store, c.Replica = st, replica
		b, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	}
	primary := node(st, false)
	for round := uint64(1); round <= 3; round++ {
		closeFullRound(t, primary, params, users, round)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	replica := node(nil, true)
	feedWALInChunks(t, replica, dir, 1<<16)
	rec, err := store.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	recovered := node(rec, false)

	for name, b := range map[string]*Backend{"primary": primary, "recovered": recovered, "replica": replica} {
		for round, want := range map[uint64]error{1: ErrUnknownRound, 2: ErrUnknownRound, 3: nil} {
			if _, err := b.Threshold(0, round); !errors.Is(err, want) && err != want {
				t.Errorf("%s Threshold(%d) = %v, want %v", name, round, err, want)
			}
		}
		if n := len(b.RoundsProgress()); n != 1 {
			t.Errorf("%s holds %d rounds, want 1", name, n)
		}
	}
}

// Applying a logged report to an open replica round folds the record's
// raw block straight into the aggregate: no per-report cell vector.
func TestApplyReportEventZeroAllocs(t *testing.T) {
	const runs = 512
	users := runs + 64
	params := privacy.Params{Epsilon: 0.05, Delta: 0.05, IDSpace: 2000, Suite: storeTestParams().Suite}
	replica := newReplica(t, params, users)
	frames := rawFrames(t, params, users, 1)
	f := frames[0]
	if err := replica.ApplyEvent(&store.OpenEvent{
		Round: 1, RosterSize: users, D: f.D, W: f.W, Seed: f.Seed, Keystream: f.Keystream,
	}); err != nil {
		t.Fatal(err)
	}
	events := make([]store.Event, users)
	for u, f := range frames {
		raw := make([]byte, 8*len(f.Cells))
		vec.PutLE(raw, f.Cells)
		events[u] = &store.ReportEvent{
			Round: 1, User: u, D: f.D, W: f.W, N: f.N, Seed: f.Seed, Keystream: f.Keystream, Cells: raw,
		}
	}
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		if err := replica.ApplyEvent(events[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs != 0 {
		t.Fatalf("applying a report event allocates %v times per report, want 0", allocs)
	}
	if p, err := replica.RoundProgressOf(0, 1); err != nil || p.Reported != runs+1 {
		t.Fatalf("replica folded %d reports (%v), want %d", p.Reported, err, runs+1)
	}
}
