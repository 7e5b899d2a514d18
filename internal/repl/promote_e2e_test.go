package repl_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"eyewnder/internal/backend"
	"eyewnder/internal/repl"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// The promotion end-to-end test runs a real replicated primary in a
// child process (this test binary re-executed with the env marker
// below), attaches a follower, SIGKILLs the primary mid-round — no
// flush, no goodbye — promotes the follower on its mirror, finishes
// the round against the promoted back-end over the wire, and requires
// the result to be byte-identical to an uninterrupted control run.

const (
	e2eDirEnv  = "EYEWNDER_REPL_SERVER_DIR"
	e2eAddrEnv = "EYEWNDER_REPL_ADDR_FILE"
	// e2eDiffEnv names a file the test writes the promoted-vs-control
	// round comparison to (the CI replication job uploads it as an
	// artifact). Unset: no file is written.
	e2eDiffEnv = "EYEWNDER_ROUND_DIFF_OUT"
)

// e2eUsers is the fixed roster size both the helper process and the
// test use; they must agree or the follower would — correctly — refuse
// the stream.
const e2eUsers = 8

// TestMain doubles as the replicated-primary binary: when the env
// marker is set, the process serves a durable back-end plus the
// replication protocol until it is killed.
func TestMain(m *testing.M) {
	if dir := os.Getenv(e2eDirEnv); dir != "" {
		runReplPrimary(dir, os.Getenv(e2eAddrEnv))
		return
	}
	os.Exit(m.Run())
}

// runReplPrimary is the child-process body: open the store, serve the
// client protocol and the replication protocol, publish both
// addresses, and block until killed.
func runReplPrimary(dir, addrFile string) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "repl primary: %v\n", err)
		os.Exit(1)
	}
	st, err := store.Open(dir, store.Options{RetainSegments: 2})
	if err != nil {
		fail(err)
	}
	cfg := backendCfg(testParams(), e2eUsers)
	cfg.Store = st
	b, err := backend.New(cfg)
	if err != nil {
		fail(err)
	}
	srv, err := b.Serve("127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	rp, err := repl.ServePrimary("127.0.0.1:0", st)
	if err != nil {
		fail(err)
	}
	// Publish both addresses atomically so the parent never reads a
	// half-written file.
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(srv.Addr()+"\n"+rp.Addr()+"\n"), 0o644); err != nil {
		fail(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		fail(err)
	}
	select {} // SIGKILL is the only way out
}

// startReplPrimary spawns the helper process on dir and returns the
// running command plus its client and replication addresses.
func startReplPrimary(t *testing.T, dir string) (cmd *exec.Cmd, addr, replAddr string) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd = exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), e2eDirEnv+"="+dir, e2eAddrEnv+"="+addrFile)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting repl primary: %v", err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if raw, err := os.ReadFile(addrFile); err == nil {
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			if len(lines) == 2 {
				return cmd, lines[0], lines[1]
			}
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("repl primary never published its addresses")
	return nil, "", ""
}

// promoteDiff is the artifact the CI replication job uploads: the
// promoted follower's results next to the uninterrupted control's.
type promoteDiff struct {
	Identical        bool     `json:"identical"`
	DistinctAdsLive  int      `json:"distinct_ads_control"`
	DistinctAdsProm  int      `json:"distinct_ads_promoted"`
	UsersThLive      float64  `json:"users_th_control"`
	UsersThProm      float64  `json:"users_th_promoted"`
	CountMismatches  []string `json:"count_mismatches,omitempty"`
	ReportedPreKill  int      `json:"reported_before_kill"`
	ReportedPromoted int      `json:"reported_after_promotion"`
}

// TestPromoteAfterPrimaryKill is the replication acceptance test:
// SIGKILL the primary after half the roster has reported with a
// follower attached, promote the follower, finish the round against
// the promoted back-end, and require counts byte-identical to an
// uninterrupted run.
func TestPromoteAfterPrimaryKill(t *testing.T) {
	params := testParams()
	reports := buildReports(t, params, e2eUsers, 1)

	// Uninterrupted control, in-process.
	control, err := backend.New(backendCfg(params, e2eUsers))
	if err != nil {
		t.Fatal(err)
	}
	defer control.Close()
	for _, r := range reports {
		if err := control.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	controlTh, controlAds, err := control.CloseRound(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	controlCounts, err := control.UserCounts(0, 1)
	if err != nil {
		t.Fatal(err)
	}

	dataDir := filepath.Join(t.TempDir(), "primary")
	cmd, addr, replAddr := startReplPrimary(t, dataDir)

	// The hot standby attaches before any traffic.
	mirror := filepath.Join(t.TempDir(), "mirror")
	f, err := repl.StartFollower(repl.Options{
		Dir: mirror, Addr: replAddr,
		Poll: 2 * time.Millisecond, Logf: t.Logf,
	}, backendCfg(params, e2eUsers))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	// Phase 1: register a key and stream five of eight reports over a
	// batched connection; every acked frame is fsynced on the primary,
	// so the kill below cannot lose them — and the follower can fetch
	// them.
	cli, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Do(wire.TypeRegister,
		wire.RegisterReq{User: 3, PublicKey: []byte("pk3")}, nil); err != nil {
		t.Fatal(err)
	}
	rs, err := cli.OpenReportStream(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports[:5] {
		if err := rs.Submit(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Close(); err != nil { // flushes: all five acked = durable
		t.Fatal(err)
	}
	var status wire.RoundStatusResp
	if err := cli.Do(wire.TypeRoundStatus, wire.CloseRoundReq{Round: 1}, &status); err != nil {
		t.Fatal(err)
	}
	if status.Reported != 5 {
		t.Fatalf("pre-kill reported = %d, want 5", status.Reported)
	}
	reportedPreKill := status.Reported
	cli.Close()

	// The follower's warm replica catches up on every acked record.
	waitFor(t, "follower to mirror the acked reports", func() bool {
		rp, err := f.Replica().RoundProgressOf(0, 1)
		return err == nil && rp.Reported == 5
	})

	// The crash: SIGKILL, mid-round, follower attached.
	if err := cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	// Promotion: the mirror goes through the ordinary recovery path and
	// comes back writable.
	b2, disk, err := f.Promote()
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		b2.Close()
		disk.Close()
	}()
	srv2, err := b2.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	cli2, err := wire.Dial(srv2.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()

	// The reported-bitmap survived the handoff…
	if err := cli2.Do(wire.TypeRoundStatus, wire.CloseRoundReq{Round: 1}, &status); err != nil {
		t.Fatal(err)
	}
	if status.Reported != 5 || !reflect.DeepEqual(status.Missing, []int{5, 6, 7}) {
		t.Fatalf("promoted status = %+v", status)
	}
	// …the bulletin board too…
	var roster wire.RosterResp
	if err := cli2.Do(wire.TypeRoster, struct{}{}, &roster); err != nil {
		t.Fatal(err)
	}
	if string(roster.PublicKeys[3]) != "pk3" {
		t.Fatal("registration lost across the promotion")
	}
	// …and a duplicate of a pre-kill report still bounces.
	if err := cli2.SubmitReportFrame(wire.ReportFrameOf(reports[0])); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate across promotion = %v", err)
	}

	// Finish the round against the promoted back-end, over the wire.
	rs2, err := cli2.OpenReportStream(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports[5:] {
		if err := rs2.Submit(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs2.Close(); err != nil {
		t.Fatal(err)
	}
	var closed wire.CloseRoundResp
	if err := cli2.Do(wire.TypeCloseRound, wire.CloseRoundReq{Round: 1}, &closed); err != nil {
		t.Fatal(err)
	}

	// Compare against the uninterrupted control: distinct-ad count,
	// every per-ad user count (integers — byte-identical or bust), and
	// Users_th (float; close-time sample order is map-dependent, so
	// equal within rounding).
	diff := promoteDiff{
		DistinctAdsLive:  controlAds,
		DistinctAdsProm:  closed.DistinctAds,
		UsersThLive:      controlTh,
		UsersThProm:      closed.UsersTh,
		ReportedPreKill:  reportedPreKill,
		ReportedPromoted: status.Reported,
	}
	for id, want := range controlCounts {
		var audit wire.AuditAdResp
		if err := cli2.Do(wire.TypeAuditAd, wire.AuditAdReq{Round: 1, AdID: id}, &audit); err != nil {
			t.Fatal(err)
		}
		if audit.Users != want {
			diff.CountMismatches = append(diff.CountMismatches,
				fmt.Sprintf("ad %d: control %d, promoted %d", id, want, audit.Users))
		}
	}
	diff.Identical = closed.DistinctAds == controlAds && len(diff.CountMismatches) == 0 &&
		closed.UsersTh == controlTh
	if out := os.Getenv(e2eDiffEnv); out != "" {
		raw, _ := json.MarshalIndent(diff, "", "  ")
		if err := os.WriteFile(out, append(raw, '\n'), 0o644); err != nil {
			t.Errorf("writing round diff artifact: %v", err)
		}
	}
	if !diff.Identical {
		t.Fatalf("promoted round differs from uninterrupted control: %+v", diff)
	}
}
