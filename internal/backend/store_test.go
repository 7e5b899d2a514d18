package backend

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"

	"eyewnder/internal/blind"
	"eyewnder/internal/detector"
	"eyewnder/internal/group"
	"eyewnder/internal/privacy"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// storeTestParams is a small geometry so store tests stay fast.
func storeTestParams() privacy.Params {
	return privacy.Params{Epsilon: 0.02, Delta: 0.02, IDSpace: 2048, Suite: group.P256()}
}

// buildReports blinds one report per roster member for the given round.
func buildReports(t *testing.T, params privacy.Params, users int, round uint64) []*privacy.Report {
	t.Helper()
	reports, _ := buildReportsWithRoster(t, params, users, round)
	return reports
}

// buildReportsWithRoster is buildReports keeping the roster, so a test
// can later derive the same parties' adjustment shares.
func buildReportsWithRoster(t *testing.T, params privacy.Params, users int, round uint64) ([]*privacy.Report, *blind.Roster) {
	t.Helper()
	roster, err := blind.NewRosterKeystream(params.Suite, users, rand.Reader, params.Keystream)
	if err != nil {
		t.Fatal(err)
	}
	reports := make([]*privacy.Report, users)
	for u := 0; u < users; u++ {
		cms, err := params.NewSketch()
		if err != nil {
			t.Fatal(err)
		}
		var key [8]byte
		for a := 0; a < 6; a++ {
			binary.LittleEndian.PutUint64(key[:], uint64((u*3+a)%int(params.IDSpace)))
			cms.Update(key[:])
		}
		cells := cms.FlatCells()
		if err := blind.ApplyBlinding(cells, roster.Parties[u].Blinding(round, len(cells))); err != nil {
			t.Fatal(err)
		}
		reports[u] = &privacy.Report{User: u, Round: round, Sketch: cms, Keystream: params.Keystream, ConfigVersion: firstConfigVersion}
	}
	return reports, roster
}

func newStoreBackend(t *testing.T, params privacy.Params, users int, st store.Store) *Backend {
	t.Helper()
	b, err := New(Config{Params: params, Users: users, UsersEstimator: detector.EstimatorMean, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// A backend with a disk store must recover mid-round state across a
// simulated crash (the first backend is abandoned without any graceful
// flush beyond what its acks already synced), finish the round after
// restart, and produce counts identical to an uninterrupted run.
func TestBackendRecoversMidRound(t *testing.T) {
	const users = 8
	params := storeTestParams()
	reports := buildReports(t, params, users, 1)

	// Control: uninterrupted in-memory run over the same reports.
	control := newStoreBackend(t, params, users, nil)
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

	// Crashing run: fold half the roster, then abandon the backend and
	// its store without closing either (the process-kill analogue — only
	// what acks made durable survives, which is everything consumed,
	// because ConsumeReport's ack barrier is SyncReports).
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1 := newStoreBackend(t, params, users, st1)
	if _, err := b1.Register(3, []byte("pk3")); err != nil {
		t.Fatal(err)
	}
	restamp(reports, b1.CurrentConfig().Version)
	for _, r := range reports[:4] {
		if err := b1.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b1.SyncReports(); err != nil { // the ack barrier the wire layer would run
		t.Fatal(err)
	}
	// No st1.Close(), no b1.Close() flushing: the crash.

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b2 := newStoreBackend(t, params, users, st2)

	// The reported-bitmap must have survived…
	p, err := b2.RoundProgressOf(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reported != 4 || p.Closed {
		t.Fatalf("recovered status: %+v", p)
	}
	if !reflect.DeepEqual(p.Missing, []int{4, 5, 6, 7}) {
		t.Fatalf("recovered missing = %v", p.Missing)
	}
	// …the roster too…
	if keys, _, _ := b2.Roster(); string(keys[3]) != "pk3" {
		t.Fatalf("roster entry lost: %q", keys[3])
	}
	// …and the duplicate invariant must hold across the restart.
	if err := b2.ConsumeReport(wire.ReportFrameOf(reports[0])); !errors.Is(err, privacy.ErrDuplicate) {
		t.Fatalf("duplicate across restart = %v, want ErrDuplicate", err)
	}

	// Finish the round on the recovered backend.
	for _, r := range reports[4:] {
		if err := b2.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	th, ads, err := b2.CloseRound(0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ads != controlAds {
		t.Fatalf("distinct ads: recovered %d, control %d", ads, controlAds)
	}
	counts, err := b2.UserCounts(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(counts, controlCounts) {
		t.Fatal("recovered counts differ from uninterrupted run")
	}
	if th != controlTh {
		t.Fatalf("Users_th: recovered %v, control %v", th, controlTh)
	}
}

// A closed round must recover as closed — with its threshold and counts
// re-derived — and a mismatched-suite report must still bounce off the
// recovered round.
func TestBackendRecoversClosedRoundAndSuite(t *testing.T) {
	const users = 4
	params := storeTestParams()
	params.Keystream = blind.KeystreamAESCTR
	reports := buildReports(t, params, users, 9)

	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1 := newStoreBackend(t, params, users, st1)
	for _, r := range reports {
		if err := submit(b1, r); err != nil {
			t.Fatal(err)
		}
	}
	th1, ads1, err := b1.CloseRound(0, 9, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts1, err := b1.UserCounts(0, 9)
	if err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b2 := newStoreBackend(t, params, users, st2)
	th2, ads2, err := b2.CloseRound(0, 9, 0) // already closed: returns the recovered results
	if err != nil {
		t.Fatal(err)
	}
	counts2, err := b2.UserCounts(0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if ads1 != ads2 || !reflect.DeepEqual(counts1, counts2) {
		t.Fatal("closed round did not recover byte-identical counts")
	}
	if th1 != th2 {
		t.Fatalf("Users_th across recovery: %v vs %v", th1, th2)
	}
	tab1, distinct1 := closedTable(t, b1, 9)
	tab2, distinct2 := closedTable(t, b2, 9)
	if !slices.Equal(tab1, tab2) || distinct1 != distinct2 || distinct1 != ads1 {
		t.Fatalf("count table across recovery differs (distinct %d vs %d, close said %d)", distinct1, distinct2, ads1)
	}

	// A report blinded under the wrong suite must still be rejected by
	// the *recovered* state of an open round.
	hmacParams := storeTestParams() // suite 0x00
	wrong := buildReports(t, hmacParams, users, 10)[0]
	if err := submit(b2, wrong); !errors.Is(err, privacy.ErrKeystreamMismatch) {
		t.Fatalf("wrong-suite report after recovery = %v", err)
	}
}

// A backend restarted against a data dir written under a different
// geometry or suite must refuse to start, not corrupt rounds.
func TestBackendRefusesMismatchedDataDir(t *testing.T) {
	params := storeTestParams()
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1 := newStoreBackend(t, params, 4, st1)
	if err := submit(b1, buildReports(t, params, 4, 1)[0]); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// Different geometry.
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	bad := params
	bad.Epsilon, bad.Delta = 0.1, 0.1
	if _, err := New(Config{Params: bad, Users: 4, UsersEstimator: detector.EstimatorMean, Store: st2}); err == nil {
		t.Fatal("geometry mismatch accepted")
	}

	// Different roster size.
	st3, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if _, err := New(Config{Params: params, Users: 9, UsersEstimator: detector.EstimatorMean, Store: st3}); err == nil {
		t.Fatal("roster mismatch accepted")
	}

	// Different blinding suite.
	st4, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st4.Close()
	aes := params
	aes.Keystream = blind.KeystreamAESCTR
	if _, err := New(Config{Params: aes, Users: 4, UsersEstimator: detector.EstimatorMean, Store: st4}); err == nil {
		t.Fatal("suite mismatch accepted")
	}
}

// Sustained ingestion must cross the snapshot cadence and keep state
// correct through WAL compaction: after many reports trigger a
// snapshot, a recovery still sees every report exactly once.
func TestBackendSnapshotCompaction(t *testing.T) {
	const users = 16
	params := storeTestParams()
	reports := buildReports(t, params, users, 1)

	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	b1 := newStoreBackend(t, params, users, st1)
	for _, r := range reports {
		if err := b1.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b1.Close(); err != nil { // waits for the snapshot goroutine
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b2 := newStoreBackend(t, params, users, st2)
	p, err := b2.RoundProgressOf(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reported != users {
		t.Fatalf("recovered %d reports, want %d", p.Reported, users)
	}
	if _, _, err := b2.CloseRound(0, 1, 0); err != nil {
		t.Fatal(err)
	}

	// The compacted state must equal the uninterrupted control.
	control := newStoreBackend(t, params, users, nil)
	for _, r := range reports {
		if err := control.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := control.CloseRound(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	got, _ := b2.UserCounts(0, 1)
	want, _ := control.UserCounts(0, 1)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("counts diverged across snapshot compaction")
	}
}
