package backend

import (
	"reflect"
	"strings"
	"testing"

	"eyewnder/internal/privacy"
	"eyewnder/internal/wire"
)

// TestAdjustmentRoundOverWireOps drives a complete k-of-n adjustment
// round over one connection the way a remote operator would — reports
// as streamed frames, then the JSON control ops round_status,
// submit_adjustment, close_round (with the adjustment-wait shutter),
// round_counts — and checks the finalized per-ad counts byte-match an
// all-n control round in which the silent user reports an empty
// sketch: the adjustment path must reconstruct exactly the aggregate
// the full roster would have produced.
func TestAdjustmentRoundOverWireOps(t *testing.T) {
	b, clients := newBackend(t)
	srv, err := b.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctl, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	cms, _ := testParams().NewSketch()
	report := func(user int, round uint64) {
		t.Helper()
		if user < 3 { // user 3's control-round report is an empty sketch
			if _, err := clients[user].ObserveAd("https://ads.example/wire-adjust"); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := clients[user].Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.SubmitReportFrame(wire.ReportFrameOf(rep)); err != nil {
			t.Fatal(err)
		}
	}
	status := func(round uint64) wire.RoundStatusResp {
		t.Helper()
		var st wire.RoundStatusResp
		if err := ctl.Do(wire.TypeRoundStatus, wire.CloseRoundReq{Round: round}, &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	const kRound uint64 = 21

	// A client old enough to send its report as JSON gets an ordinary
	// error naming the message it no longer finds — not a dropped socket
	// or a hang — and everything below runs on this same connection.
	err = ctl.Do("backend.submit_report", map[string]interface{}{"user": 0, "round": kRound, "sketch": []byte{1}}, nil)
	if err == nil || !strings.Contains(err.Error(), `unknown message "backend.submit_report"`) {
		t.Fatalf("JSON report err = %v, want a remote unknown-message error", err)
	}

	// k-of-n round: users 0..2 report, user 3 stays dark.
	for u := 0; u < 3; u++ {
		report(u, kRound)
	}
	st := status(kRound)
	if st.Reported != 3 || len(st.Missing) != 1 || st.Missing[0] != 3 || st.Closed {
		t.Fatalf("k-of-n status = %+v", st)
	}
	// A plain close is refused while the missing user's blinding terms
	// are uncancelled, and the refusal leaves the round open.
	if err := ctl.Do(wire.TypeCloseRound, wire.CloseRoundReq{Round: kRound}, nil); err == nil {
		t.Fatal("close with uncancelled blinding succeeded")
	}
	if st = status(kRound); st.Closed {
		t.Fatalf("failed close left the round closed: %+v", st)
	}

	// Each reporter computes its share against the polled missing set
	// and uploads it over the wire; the status op tracks the count.
	for u := 0; u < 3; u++ {
		adj, err := clients[u].Adjust(kRound, cms.Cells(), st.Missing)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.Do(wire.TypeSubmitAdjust, wire.SubmitAdjustReq{
			User: u, Round: kRound, Cells: adj,
		}, nil); err != nil {
			t.Fatal(err)
		}
		if got := status(kRound).Adjusted; got != u+1 {
			t.Fatalf("after %d shares status.Adjusted = %d", u+1, got)
		}
	}
	var kClose wire.CloseRoundResp
	if err := ctl.Do(wire.TypeCloseRound, wire.CloseRoundReq{Round: kRound, AdjustWaitMS: 5000}, &kClose); err != nil {
		t.Fatal(err)
	}
	if kClose.DistinctAds < 1 || kClose.UsersTh <= 0 {
		t.Fatalf("k-of-n close = %+v", kClose)
	}
	if st = status(kRound); !st.Closed {
		t.Fatalf("k-of-n round not closed: %+v", st)
	}

	// Control round: the full roster reports (user 3 with an empty
	// sketch — it observed nothing), so no shares are owed.
	const nRound uint64 = 22
	for u := 0; u < 4; u++ {
		report(u, nRound)
	}
	if st = status(nRound); len(st.Missing) != 0 {
		t.Fatalf("control status = %+v", st)
	}
	var nClose wire.CloseRoundResp
	if err := ctl.Do(wire.TypeCloseRound, wire.CloseRoundReq{Round: nRound}, &nClose); err != nil {
		t.Fatal(err)
	}

	// The adjusted k-of-n aggregate and the all-n aggregate hold the
	// same data (user 3 contributed nothing either way), so the
	// finalized counts must be byte-identical.
	counts := func(round uint64) map[uint64]uint64 {
		t.Helper()
		var resp wire.RoundCountsResp
		if err := ctl.Do(wire.TypeRoundCounts, wire.RoundCountsReq{Round: round}, &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Counts
	}
	kCounts, nCounts := counts(kRound), counts(nRound)
	if len(kCounts) == 0 || !reflect.DeepEqual(kCounts, nCounts) {
		t.Fatalf("adjusted counts diverge from full-roster counts: %v != %v", kCounts, nCounts)
	}
	if kClose.DistinctAds != nClose.DistinctAds {
		t.Fatalf("distinct ads diverge: %d != %d", kClose.DistinctAds, nClose.DistinctAds)
	}
}

// TestPreviousReleaseJSONAdjustment pins the JSON submit_adjustment op
// as the previous release's client sends it: no suite byte and no
// config version, which any round accepts; a stale config_version is
// still refused on this path. This release's client streams its share
// as a frame instead; the test is deleted together with the op in the
// next release.
func TestPreviousReleaseJSONAdjustment(t *testing.T) {
	b, clients := newBackend(t)
	srv, err := b.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctl, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	const round = 31
	for u := 0; u < 3; u++ {
		rep, err := clients[u].Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := ctl.SubmitReportFrame(wire.ReportFrameOf(rep)); err != nil {
			t.Fatal(err)
		}
	}
	cms, _ := testParams().NewSketch()
	share := func(u int) []uint64 {
		t.Helper()
		adj, err := clients[u].Adjust(round, cms.Cells(), []int{3})
		if err != nil {
			t.Fatal(err)
		}
		return adj
	}
	if err := ctl.Do(wire.TypeSubmitAdjust, wire.SubmitAdjustReq{User: 0, Round: round, Cells: share(0)}, nil); err != nil {
		t.Fatalf("unversioned JSON share: %v", err)
	}
	stale := b.CurrentConfig().Version + 1
	err = ctl.Do(wire.TypeSubmitAdjust, wire.SubmitAdjustReq{User: 1, Round: round, Cells: share(1), ConfigVersion: stale}, nil)
	if err == nil || !strings.Contains(err.Error(), privacy.ErrIncompatibleConfig.Error()) {
		t.Fatalf("JSON share under v%d err = %v, want %v", stale, err, privacy.ErrIncompatibleConfig)
	}
	var st wire.RoundStatusResp
	if err := ctl.Do(wire.TypeRoundStatus, wire.CloseRoundReq{Round: round}, &st); err != nil {
		t.Fatal(err)
	}
	if st.Adjusted != 1 {
		t.Fatalf("after one accepted and one stale JSON share status = %+v", st)
	}
}
