package backend

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

	"eyewnder/internal/detector"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// The kill-and-recover end-to-end test runs a real back-end server in a
// child process (this test binary re-executed with the env marker
// below), SIGKILLs it mid-round — no flush, no goodbye, exactly the
// crash the WAL exists for — restarts it on the same data dir, finishes
// the round over the wire, and requires the result to be identical to
// an uninterrupted in-process run.

const (
	e2eDirEnv  = "EYEWNDER_RECOVERY_SERVER_DIR"
	e2eAddrEnv = "EYEWNDER_RECOVERY_ADDR_FILE"
	// e2eDiffEnv names a file the test writes the recovered-vs-live
	// round comparison to (the CI recovery job uploads it as an
	// artifact). Unset: no file is written.
	e2eDiffEnv = "EYEWNDER_ROUND_DIFF_OUT"
)

// e2eUsers is the fixed roster size both the helper process and the
// test use (with storeTestParams as the shared geometry); they must
// agree or recovery would — correctly — refuse the data dir.
const e2eUsers = 8

// TestMain doubles as the crash-test server binary: when the env marker
// is set, the process runs a durable back-end until it is killed.
func TestMain(m *testing.M) {
	if dir := os.Getenv(e2eDirEnv); dir != "" {
		runRecoveryServer(dir, os.Getenv(e2eAddrEnv))
		return
	}
	os.Exit(m.Run())
}

// runRecoveryServer is the child-process body: open the store, recover,
// serve, publish the address, and block until killed.
func runRecoveryServer(dir, addrFile string) {
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "recovery server: %v\n", err)
		os.Exit(1)
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		fail(err)
	}
	b, err := New(Config{
		Params:         storeTestParams(),
		Users:          e2eUsers,
		UsersEstimator: detector.EstimatorMean,
		Store:          st,
	})
	if err != nil {
		fail(err)
	}
	srv, err := b.Serve("127.0.0.1:0")
	if err != nil {
		fail(err)
	}
	// Publish the listen address atomically so the parent never reads a
	// half-written file.
	tmp := addrFile + ".tmp"
	if err := os.WriteFile(tmp, []byte(srv.Addr()), 0o644); err != nil {
		fail(err)
	}
	if err := os.Rename(tmp, addrFile); err != nil {
		fail(err)
	}
	select {} // SIGKILL is the only way out
}

// startRecoveryServer spawns the helper process on dir and returns the
// running command plus the address it listens on.
func startRecoveryServer(t *testing.T, dir string) (*exec.Cmd, string) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), e2eDirEnv+"="+dir, e2eAddrEnv+"="+addrFile)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting recovery server: %v", err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if addr, err := os.ReadFile(addrFile); err == nil {
			return cmd, string(addr)
		}
		if cmd.ProcessState != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("recovery server never published its address")
	return nil, ""
}

// roundDiff is the artifact the CI recovery job uploads: the recovered
// run's results next to the uninterrupted control's.
type roundDiff struct {
	Identical         bool     `json:"identical"`
	DistinctAdsLive   int      `json:"distinct_ads_live"`
	DistinctAdsRecov  int      `json:"distinct_ads_recovered"`
	UsersThLive       float64  `json:"users_th_live"`
	UsersThRecov      float64  `json:"users_th_recovered"`
	CountMismatches   []string `json:"count_mismatches,omitempty"`
	ReportedPreKill   int      `json:"reported_before_kill"`
	ReportedRecovered int      `json:"reported_after_restart"`
}

// TestKillAndRecoverMidRound is the crash-recovery acceptance test:
// SIGKILL the server after half the roster has reported, restart it on
// the same -data-dir, submit the rest, and require CloseRound to yield
// counts byte-identical to an uninterrupted run.
func TestKillAndRecoverMidRound(t *testing.T) {
	params := storeTestParams()
	reports := buildReports(t, params, e2eUsers, 1)

	// Uninterrupted control, in-process.
	control := newStoreBackend(t, params, e2eUsers, nil)
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

	dataDir := filepath.Join(t.TempDir(), "rounds")
	cmd1, addr1 := startRecoveryServer(t, dataDir)

	// Phase 1: register a key (roster durability) and stream half the
	// roster's reports over a batched connection; every Flush-ed frame
	// is fsynced before its ack, so the kill below cannot lose them.
	cli1, err := wire.Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli1.Do(wire.TypeRegister,
		wire.RegisterReq{User: 3, PublicKey: []byte("pk3")}, nil); err != nil {
		t.Fatal(err)
	}
	var board wire.RosterResp
	if err := cli1.Do(wire.TypeRoster, struct{}{}, &board); err != nil {
		t.Fatal(err)
	}
	restamp(reports, board.ConfigVersion)
	rs, err := cli1.OpenReportStream(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports[:4] {
		if err := rs.Submit(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Close(); err != nil { // flushes: all four acked = durable
		t.Fatal(err)
	}
	var status wire.RoundStatusResp
	if err := cli1.Do(wire.TypeRoundStatus, wire.CloseRoundReq{Round: 1}, &status); err != nil {
		t.Fatal(err)
	}
	if status.Reported != 4 {
		t.Fatalf("pre-kill reported = %d, want 4", status.Reported)
	}
	reportedPreKill := status.Reported
	cli1.Close()

	// The crash: SIGKILL, mid-round. No flush, no shutdown hook.
	if err := cmd1.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmd1.Wait()

	// Phase 2: restart on the same data dir.
	_, addr2 := startRecoveryServer(t, dataDir)
	cli2, err := wire.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()

	// The reported-bitmap survived the kill…
	if err := cli2.Do(wire.TypeRoundStatus, wire.CloseRoundReq{Round: 1}, &status); err != nil {
		t.Fatal(err)
	}
	if status.Reported != 4 || !reflect.DeepEqual(status.Missing, []int{4, 5, 6, 7}) {
		t.Fatalf("recovered status = %+v", status)
	}
	// …the bulletin board too…
	var roster wire.RosterResp
	if err := cli2.Do(wire.TypeRoster, struct{}{}, &roster); err != nil {
		t.Fatal(err)
	}
	if string(roster.PublicKeys[3]) != "pk3" {
		t.Fatal("registration lost across the kill")
	}
	// …and a duplicate of a pre-kill report still bounces.
	if err := cli2.SubmitReportFrame(wire.ReportFrameOf(reports[0])); err == nil ||
		!strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate across kill = %v", err)
	}

	// Finish the round and close it over the wire.
	rs2, err := cli2.OpenReportStream(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports[4:] {
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
	// Users_th (float; the close-time sample order is map-dependent, so
	// equal within rounding).
	diff := roundDiff{
		DistinctAdsLive:   controlAds,
		DistinctAdsRecov:  closed.DistinctAds,
		UsersThLive:       controlTh,
		UsersThRecov:      closed.UsersTh,
		ReportedPreKill:   reportedPreKill,
		ReportedRecovered: status.Reported,
	}
	for id, want := range controlCounts {
		var audit wire.AuditAdResp
		if err := cli2.Do(wire.TypeAuditAd, wire.AuditAdReq{Round: 1, AdID: id}, &audit); err != nil {
			t.Fatal(err)
		}
		if audit.Users != want {
			diff.CountMismatches = append(diff.CountMismatches,
				fmt.Sprintf("ad %d: live %d, recovered %d", id, want, audit.Users))
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
		t.Fatalf("recovered round differs from uninterrupted run: %+v", diff)
	}
}
