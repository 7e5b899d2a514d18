package backend

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"eyewnder/internal/wire"
)

// TestKillAndRecoverAdjustments is the adjustment round's crash test:
// the server is SIGKILLed after the reports and *half* of the
// reporters' adjustment shares have been appended (and synced) but
// before the round closes. After a restart on the same data dir the
// replayed shares must still be there — an identical re-upload stays
// idempotent, a conflicting one is still refused — and once the
// stragglers' shares land the close must produce counts byte-identical
// to an uninterrupted in-process run over the same reports and shares.
func TestKillAndRecoverAdjustments(t *testing.T) {
	params := storeTestParams()
	const round uint64 = 1
	const reporters = 6 // users 6 and 7 go dark
	reports, roster := buildReportsWithRoster(t, params, e2eUsers, round)
	missing := []int{6, 7}
	cms, err := params.NewSketch()
	if err != nil {
		t.Fatal(err)
	}
	shares := make([][]uint64, reporters)
	for u := 0; u < reporters; u++ {
		if shares[u], err = roster.Parties[u].Adjustment(round, cms.Cells(), missing); err != nil {
			t.Fatal(err)
		}
	}

	// Uninterrupted control, in-process.
	control := newStoreBackend(t, params, e2eUsers, nil)
	for _, r := range reports[:reporters] {
		if err := control.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	for u := 0; u < reporters; u++ {
		if err := control.SubmitAdjustment(0, u, round, 0, shares[u]); err != nil {
			t.Fatal(err)
		}
	}
	controlTh, controlAds, err := control.CloseRound(0, round, 0)
	if err != nil {
		t.Fatal(err)
	}
	controlCounts, err := control.UserCounts(0, round)
	if err != nil {
		t.Fatal(err)
	}

	dataDir := filepath.Join(t.TempDir(), "rounds")
	cmd1, addr1 := startRecoveryServer(t, dataDir)

	// Phase 1: all six reports (stream close = acked = fsynced), then
	// half the shares over the synced JSON path.
	cli1, err := wire.Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := cli1.OpenReportStream(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports[:reporters] {
		if err := rs.Submit(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < reporters/2; u++ {
		if err := cli1.Do(wire.TypeSubmitAdjust, wire.SubmitAdjustReq{
			User: u, Round: round, Cells: shares[u],
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var status wire.RoundStatusResp
	if err := cli1.Do(wire.TypeRoundStatus, wire.CloseRoundReq{Round: round}, &status); err != nil {
		t.Fatal(err)
	}
	if status.Reported != reporters || status.Adjusted != reporters/2 {
		t.Fatalf("pre-kill status = %+v", status)
	}
	cli1.Close()

	// The crash: SIGKILL with the round mid-adjustment.
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()

	// Phase 2: restart on the same data dir — the WAL replay must
	// restore the reported bitmap AND the stored shares.
	_, addr2 := startRecoveryServer(t, dataDir)
	cli2, err := wire.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if err := cli2.Do(wire.TypeRoundStatus, wire.CloseRoundReq{Round: round}, &status); err != nil {
		t.Fatal(err)
	}
	if status.Reported != reporters || !reflect.DeepEqual(status.Missing, missing) ||
		status.Adjusted != reporters/2 || status.Closed {
		t.Fatalf("recovered status = %+v", status)
	}
	// The recovered shares still carry their semantics: an identical
	// re-upload is an idempotent retry…
	if err := cli2.Do(wire.TypeSubmitAdjust, wire.SubmitAdjustReq{
		User: 0, Round: round, Cells: shares[0],
	}, nil); err != nil {
		t.Fatalf("idempotent re-upload after recovery err = %v", err)
	}
	// …and a differing one is still a conflict (the conflict check runs
	// against the replayed copy, not an empty map).
	mutated := append([]uint64(nil), shares[0]...)
	mutated[0]++
	err = cli2.Do(wire.TypeSubmitAdjust, wire.SubmitAdjustReq{
		User: 0, Round: round, Cells: mutated,
	}, nil)
	if err == nil || !strings.Contains(err.Error(), ErrAdjustConflict.Error()) {
		t.Fatalf("conflicting re-upload after recovery err = %v", err)
	}
	// A close is still premature: three shares are outstanding.
	var closed wire.CloseRoundResp
	if err := cli2.Do(wire.TypeCloseRound, wire.CloseRoundReq{Round: round}, &closed); err == nil {
		t.Fatal("close with outstanding shares succeeded")
	}

	// The stragglers' shares land and the deadline close finalizes.
	for u := reporters / 2; u < reporters; u++ {
		if err := cli2.Do(wire.TypeSubmitAdjust, wire.SubmitAdjustReq{
			User: u, Round: round, Cells: shares[u],
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := cli2.Do(wire.TypeCloseRound, wire.CloseRoundReq{Round: round, AdjustWaitMS: 5000}, &closed); err != nil {
		t.Fatal(err)
	}

	// Byte-identical to the uninterrupted run.
	if closed.DistinctAds != controlAds {
		t.Fatalf("distinct ads: recovered %d, control %d", closed.DistinctAds, controlAds)
	}
	if closed.UsersTh != controlTh {
		t.Fatalf("Users_th: recovered %v, control %v", closed.UsersTh, controlTh)
	}
	var counts wire.RoundCountsResp
	if err := cli2.Do(wire.TypeRoundCounts, wire.RoundCountsReq{Round: round}, &counts); err != nil {
		t.Fatal(err)
	}
	if len(counts.Counts) == 0 || !reflect.DeepEqual(counts.Counts, controlCounts) {
		t.Fatalf("recovered counts differ from control: %v != %v", counts.Counts, controlCounts)
	}
}
