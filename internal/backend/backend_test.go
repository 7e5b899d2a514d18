package backend

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"eyewnder/internal/blind"
	"eyewnder/internal/detector"
	"eyewnder/internal/group"
	"eyewnder/internal/oprf"
	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
	"eyewnder/internal/wire"
)

var (
	fixOnce sync.Once
	fixSrv  *oprf.Server
	fixRos  *blind.Roster
)

func fixtures(t testing.TB) (*oprf.Server, *blind.Roster) {
	fixOnce.Do(func() {
		key, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
		fixSrv, err = oprf.NewServerFromKey(key)
		if err != nil {
			panic(err)
		}
		fixRos, err = blind.NewRoster(group.P256(), 4, rand.Reader)
		if err != nil {
			panic(err)
		}
	})
	return fixSrv, fixRos
}

// firstConfigVersion is the config version a fresh back-end pins its
// rounds to until a registration bumps it; fixtures built before the
// back-end exists stamp it, as a client that negotiated then would.
const firstConfigVersion = 1

func testParams() privacy.Params {
	return privacy.Params{Epsilon: 0.01, Delta: 0.01, IDSpace: 2000, Suite: group.P256()}
}

// submit hands a report to the back-end the way every client does: as a
// frame through ConsumeReport, then the durability barrier an ack runs.
func submit(b *Backend, rep *privacy.Report) error {
	if err := b.ConsumeReport(wire.ReportFrameOf(rep)); err != nil {
		return err
	}
	return b.SyncReports()
}

// shareFrame builds a second-round adjustment share the way every client
// does: a streamed AdjustFrame in the campaign's geometry, stamped with
// the campaign's keystream suite.
func shareFrame(b *Backend, c uint32, user int, round uint64, cv uint32, cells []uint64) *wire.ReportFrame {
	params := b.cfg.Params
	b.mu.Lock()
	if cs, ok := b.campaigns[c]; ok {
		params = cs.params
	}
	b.mu.Unlock()
	d, w, _ := sketch.Dimensions(params.Epsilon, params.Delta)
	f := wire.AdjustFrame(user, round, d, w, byte(params.Keystream), cv, cells)
	f.Campaign = c
	return f
}

// restamp sets every report's config version to cv, as clients that
// re-joined after a registration bumped the version would.
func restamp(reports []*privacy.Report, cv uint32) {
	for _, r := range reports {
		r.ConfigVersion = cv
	}
}

// submitShare uploads an adjustment share as submit does a report:
// through ConsumeReport, then the durability barrier an ack runs. The
// share carries the back-end's current config version, as a client
// that just negotiated stamps it.
func submitShare(b *Backend, c uint32, user int, round uint64, cells []uint64) error {
	if err := b.ConsumeReport(shareFrame(b, c, user, round, b.CurrentConfig().Version, cells)); err != nil {
		return err
	}
	return b.SyncReports()
}

func newBackend(t *testing.T) (*Backend, []*privacy.Client) {
	t.Helper()
	srv, ros := fixtures(t)
	params := testParams()
	b, err := New(Config{Params: params, Users: len(ros.Parties), UsersEstimator: detector.EstimatorMean})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*privacy.Client, len(ros.Parties))
	for i, p := range ros.Parties {
		clients[i] = privacy.NewClient(b.CurrentConfig(), p, srv.PublicKey(), srv)
	}
	return b, clients
}

func TestRegisterAndRoster(t *testing.T) {
	b, _ := newBackend(t)
	n, err := b.Register(0, []byte{1, 2, 3})
	if err != nil || n != 4 {
		t.Fatalf("Register = %d, %v", n, err)
	}
	if _, err := b.Register(-1, nil); err != ErrBadUser {
		t.Fatalf("bad user err = %v", err)
	}
	if _, err := b.Register(4, nil); err != ErrBadUser {
		t.Fatalf("bad user err = %v", err)
	}
	roster, cv, rv := b.Roster()
	if len(roster) != 4 || roster[0] == nil || roster[1] != nil {
		t.Fatalf("roster = %v", roster)
	}
	if cv < 2 || rv < 2 {
		t.Fatalf("registration did not bump versions: config v%d roster v%d", cv, rv)
	}
	// Roster copies are isolated.
	roster[0][0] = 99
	if again, _, _ := b.Roster(); again[0][0] == 99 {
		t.Fatal("roster aliases internal state")
	}
	// An identical re-registration is an idempotent retry: no bump.
	if _, err := b.Register(0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, cv2, rv2 := b.Roster(); cv2 != cv || rv2 != rv {
		t.Fatalf("idempotent re-register bumped versions: %d->%d / %d->%d", cv, cv2, rv, rv2)
	}
	// A changed key is a roster change: both versions bump.
	if _, err := b.Register(0, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if _, cv3, rv3 := b.Roster(); cv3 != cv+1 || rv3 != rv+1 {
		t.Fatalf("key change did not bump versions: config v%d roster v%d", cv3, rv3)
	}
}

// distinctAdURLs returns two ad URLs whose ad IDs differ under the
// fixture's OPRF key. That key is drawn once per process, so two fixed
// URLs would share one ID with probability 1/|A| per process, and a
// round expecting two counters would publish one.
func distinctAdURLs(t *testing.T) (string, string) {
	t.Helper()
	srv, _ := fixtures(t)
	ids := privacy.NewClient(privacy.RoundConfig{Params: testParams()}, nil, srv.PublicKey(), srv) // ad URL → ad ID only
	const common = "https://ads.example/common"
	commonID, err := ids.ObserveAd(common)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		rare := fmt.Sprintf("https://ads.example/rare-%d", i)
		id, err := ids.ObserveAd(rare)
		if err != nil {
			t.Fatal(err)
		}
		if id != commonID {
			return common, rare
		}
	}
}

func TestFullRoundLifecycle(t *testing.T) {
	b, clients := newBackend(t)
	const round = 1
	common, rare := distinctAdURLs(t)
	for i, c := range clients {
		if _, err := c.ObserveAd(common); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if _, err := c.ObserveAd(rare); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := c.Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := submit(b, rep); err != nil {
			t.Fatal(err)
		}
	}
	p, err := b.RoundProgressOf(0, round)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reported != 4 || len(p.Missing) != 0 || p.Closed {
		t.Fatalf("status = %+v", p)
	}
	th, ads, err := b.CloseRound(0, round, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ads < 2 {
		t.Fatalf("distinct ads = %d, want >= 2", ads)
	}
	if th <= 1 || th >= 4 {
		t.Fatalf("Users_th = %v, want between 1 and 4 (counts are {4,1})", th)
	}
	// Closing twice is idempotent.
	th2, _, err := b.CloseRound(0, round, 0)
	if err != nil || th2 != th {
		t.Fatalf("re-close = %v, %v", th2, err)
	}
	gotTh, err := b.Threshold(0, round)
	if err != nil || gotTh != th {
		t.Fatalf("Threshold = %v, %v", gotTh, err)
	}
	counts, err := b.UserCounts(0, round)
	if err != nil || len(counts) < 2 {
		t.Fatalf("UserCounts = %v, %v", counts, err)
	}
	// Submitting after close fails.
	rep, err := clients[0].Report(round)
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(b, rep); err != ErrRoundClosed {
		t.Fatalf("post-close submit err = %v", err)
	}
}

func TestRoundWithMissingUsersNeedsAdjustments(t *testing.T) {
	b, clients := newBackend(t)
	const round = 7
	// Users 0..2 report; user 3 is missing.
	for _, c := range clients[:3] {
		if _, err := c.ObserveAd("https://ads.example/x"); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := submit(b, rep); err != nil {
			t.Fatal(err)
		}
	}
	// Without adjustments the close fails cleanly.
	if _, _, err := b.CloseRound(0, round, 0); err == nil {
		t.Fatal("close with missing reports and no adjustments succeeded")
	}
	p, err := b.RoundProgressOf(0, round)
	if err != nil {
		t.Fatal(err)
	}
	missing := p.Missing
	if len(missing) != 1 || missing[0] != 3 {
		t.Fatalf("missing = %v", missing)
	}
	cms, _ := testParams().NewSketch()
	for i, c := range clients[:3] {
		adj, err := c.Adjust(round, cms.Cells(), missing)
		if err != nil {
			t.Fatal(err)
		}
		if err := submitShare(b, 0, i, round, adj); err != nil {
			t.Fatal(err)
		}
	}
	th, ads, err := b.CloseRound(0, round, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ads < 1 {
		t.Fatalf("distinct ads = %d", ads)
	}
	if th < 2.5 || th > 3.5 {
		t.Fatalf("Users_th = %v, want ~3 (one ad seen by 3 reporters)", th)
	}
}

func TestThresholdBeforeClose(t *testing.T) {
	b, clients := newBackend(t)
	if _, err := b.Threshold(0, 9); err != ErrUnknownRound {
		t.Fatalf("unknown round err = %v", err)
	}
	rep, err := clients[0].Report(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(b, rep); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Threshold(0, 9); err != ErrRoundNotClosed {
		t.Fatalf("open round err = %v", err)
	}
	if _, err := b.AuditAd(0, 9, 1); err != ErrRoundNotClosed {
		t.Fatalf("audit open round err = %v", err)
	}
	if _, err := b.AuditAd(0, 10, 1); err != ErrUnknownRound {
		t.Fatalf("audit unknown round err = %v", err)
	}
	if _, err := b.UserCounts(0, 10); err != ErrUnknownRound {
		t.Fatalf("counts unknown round err = %v", err)
	}
}

func TestSubmitAdjustmentValidation(t *testing.T) {
	b, _ := newBackend(t)
	if err := submitShare(b, 0, 99, 1, nil); err != ErrBadUser {
		t.Fatalf("err = %v", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Users: 0}); err == nil {
		t.Fatal("zero users accepted")
	}
}

// The Users_th sample is the table's non-zero entries in ascending
// order, across the counting-sort boundary — zeros are IDs nobody saw
// and are not part of the sample, as they never were part of the map.
func TestAscendingSample(t *testing.T) {
	cases := []struct {
		name  string
		table []uint64
		want  []float64
	}{
		{"mixed, large values", []uint64{0, 3, 1 << 40, 0, 4095, 4096, 3, 1 << 63, 1, 0},
			[]float64{1, 3, 3, 4095, 4096, 1 << 40, 1 << 63}},
		{"all zero", make([]uint64, 64), []float64{}},
		{"empty", nil, []float64{}},
		{"only large", []uint64{1 << 20, 4096, 1 << 20}, []float64{4096, 1 << 20, 1 << 20}},
	}
	for _, tc := range cases {
		distinct := 0
		for _, v := range tc.table {
			if v > 0 {
				distinct++
			}
		}
		got := ascendingSample(tc.table, distinct)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: ascendingSample = %v, want %v", tc.name, got, tc.want)
		}
		if cap(got) != distinct {
			t.Errorf("%s: sample capacity %d, want exactly distinct = %d", tc.name, cap(got), distinct)
		}
	}
}
