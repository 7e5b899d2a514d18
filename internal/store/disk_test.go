package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"eyewnder/internal/obs"
)

// testGeometry is a small, fast cell layout for store tests.
const (
	testD = 3
	testW = 16
)

func testCells(seed uint64) []uint64 {
	cells := make([]uint64, testD*testW)
	for i := range cells {
		cells[i] = seed*1_000_003 + uint64(i)*2_654_435_761
	}
	return cells
}

// openTestStore opens dir and consumes its replay, so the store is
// ready for appends and snapshots.
func openTestStore(t *testing.T, dir string, opts Options) *Disk {
	t.Helper()
	d, _ := openReplayed(t, dir, opts)
	return d
}

// logRound writes a round open plus reports from the given users.
func logRound(t *testing.T, d *Disk, round uint64, roster int, users ...int) {
	t.Helper()
	if err := d.AppendOpen(0, round, roster, testD, testW, 0, 1, 0, 0); err != nil {
		t.Fatalf("AppendOpen: %v", err)
	}
	for _, u := range users {
		if err := d.AppendReport(0, round, u, testD, testW, 5, 0, 1, 0, testCells(uint64(u))); err != nil {
			t.Fatalf("AppendReport(%d): %v", u, err)
		}
	}
	if err := d.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// wantRoundCells is the cell-wise sum of the given users' test vectors.
func wantRoundCells(users ...int) []uint64 {
	out := make([]uint64, testD*testW)
	for _, u := range users {
		for i, v := range testCells(uint64(u)) {
			out[i] += v
		}
	}
	return out
}

// A WAL-only store (no snapshot yet) must recover the full round state:
// cells, weight, reported bitmap, suite byte.
func TestRecoverFromWALOnly(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	logRound(t, d, 7, 8, 0, 2, 5)
	if err := d.AppendAdjust(0, 7, 2, testCells(99)); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendRegister(3, []byte("pubkey-3")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, rec := openReplayed(t, dir, Options{})
	defer d2.Close()
	rounds := rec.sortedRounds()
	if len(rounds) != 1 {
		t.Fatalf("recovered %d rounds, want 1", len(rounds))
	}
	rs := rounds[0]
	if rs.Round != 7 || rs.RosterSize != 8 || rs.D != testD || rs.W != testW {
		t.Fatalf("round header = %+v", rs)
	}
	if rs.Keystream != 1 {
		t.Fatalf("suite byte = %d, want 1", rs.Keystream)
	}
	if rs.N != 15 {
		t.Fatalf("N = %d, want 15", rs.N)
	}
	wantRep := []bool{true, false, true, false, false, true, false, false}
	if !reflect.DeepEqual(rs.Reported, wantRep) {
		t.Fatalf("reported bitmap = %v", rs.Reported)
	}
	if !reflect.DeepEqual(rs.Cells, wantRoundCells(0, 2, 5)) {
		t.Fatal("recovered cells differ from the live fold")
	}
	if !reflect.DeepEqual(rs.Adjusts[2], testCells(99)) {
		t.Fatalf("adjust share not recovered: %v", rs.Adjusts)
	}
	roster := rec.roster
	if string(roster[3]) != "pubkey-3" {
		t.Fatalf("roster = %v", roster)
	}
}

// Replay must let its owner mirror the aggregator's acceptance rules:
// the store filters nothing, so duplicates, out-of-roster users, layout
// and suite mismatches and post-close records all reach the applier, in
// log order, and the rules skip them there — the fold here is the
// reference; the back-end's applier is held to the live primary by its
// own equivalence test.
func TestReplayMirrorsAggregatorInvariants(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	logRound(t, d, 1, 4, 0)
	// Duplicate of user 0: the live path would never log it, but the
	// applier must reject it anyway for snapshot overlap.
	if err := d.AppendReport(0, 1, 0, testD, testW, 5, 0, 1, 0, testCells(42)); err != nil {
		t.Fatal(err)
	}
	// Out-of-roster user.
	if err := d.AppendReport(0, 1, 9, testD, testW, 5, 0, 1, 0, testCells(9)); err != nil {
		t.Fatal(err)
	}
	// Wrong suite byte.
	if err := d.AppendReport(0, 1, 1, testD, testW, 5, 0, 0, 0, testCells(1)); err != nil {
		t.Fatal(err)
	}
	// Wrong geometry (fresh round so the record itself is valid).
	if err := d.AppendOpen(0, 2, 4, testD, testW, 0, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendReport(0, 2, 0, testD+1, testW, 5, 0, 1, 0, make([]uint64, (testD+1)*testW)); err != nil {
		t.Fatal(err)
	}
	// Close round 2, then try to sneak in a report and an adjustment.
	if err := d.AppendClose(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendReport(0, 2, 1, testD, testW, 5, 0, 1, 0, testCells(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendAdjust(0, 2, 1, testCells(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	var users []int
	adjusts := 0
	if err := r.Replay(func(*Base) error { return nil }, func(ev Event) error {
		switch e := ev.(type) {
		case *ReportEvent:
			users = append(users, e.User)
		case *AdjustEvent:
			adjusts++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(users, []int{0, 0, 9, 1, 0, 1}) || adjusts != 1 {
		t.Fatalf("replay handed over reports from users %v and %d shares, want every logged record", users, adjusts)
	}

	d2, rec := openReplayed(t, dir, Options{})
	defer d2.Close()
	rounds := rec.sortedRounds()
	if len(rounds) != 2 {
		t.Fatalf("recovered %d rounds, want 2", len(rounds))
	}
	r1, r2 := rounds[0], rounds[1]
	if !reflect.DeepEqual(r1.Cells, wantRoundCells(0)) || r1.N != 5 {
		t.Fatal("round 1 absorbed a rejected report")
	}
	if r1.Reported[1] {
		t.Fatal("wrong-suite report marked user 1 reported")
	}
	if !r2.Closed {
		t.Fatal("round 2 not closed")
	}
	if r2.N != 0 || len(r2.Adjusts) != 0 {
		t.Fatal("closed round absorbed post-close records")
	}
}

// Recovery must stop cleanly at a truncated tail: every record before
// the cut survives, the torn one disappears, and the store stays
// appendable (new appends go to a fresh segment).
func TestRecoveryTruncatedTail(t *testing.T) {
	for _, cut := range []int{1, 4, 5, 30, 100} {
		dir := t.TempDir()
		d := openTestStore(t, dir, Options{})
		logRound(t, d, 1, 4, 0, 1)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		seg := filepath.Join(dir, walName(1))
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if cut >= len(raw) {
			t.Fatalf("cut %d beyond segment (%d bytes)", cut, len(raw))
		}
		// Chop `cut` bytes off the tail: the last record is torn.
		if err := os.WriteFile(seg, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}

		d2, rec := openReplayed(t, dir, Options{})
		rounds := rec.sortedRounds()
		if len(rounds) != 1 {
			t.Fatalf("cut %d: recovered %d rounds, want 1", cut, len(rounds))
		}
		rs := rounds[0]
		// The tail record was user 1's report; user 0's must survive.
		if !rs.Reported[0] || rs.Reported[1] {
			t.Fatalf("cut %d: reported bitmap = %v", cut, rs.Reported)
		}
		if !reflect.DeepEqual(rs.Cells, wantRoundCells(0)) {
			t.Fatalf("cut %d: cells do not match the pre-tear state", cut)
		}
		// The store must keep working: append the lost report again and
		// recover once more.
		if err := d2.AppendReport(0, 1, 1, testD, testW, 5, 0, 1, 0, testCells(1)); err != nil {
			t.Fatal(err)
		}
		if err := d2.Close(); err != nil {
			t.Fatal(err)
		}
		d3, rec3 := openReplayed(t, dir, Options{})
		if rs := rec3.sortedRounds()[0]; !reflect.DeepEqual(rs.Cells, wantRoundCells(0, 1)) {
			t.Fatalf("cut %d: resubmitted report lost", cut)
		}
		d3.Close()
	}
}

// A torn write *inside* the tail record (bit flip, not truncation) must
// fail the CRC and stop replay at the last valid record.
func TestRecoveryTornWrite(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	logRound(t, d, 1, 4, 0, 1, 2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, walName(1))
	raw, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the last record's cell block (well past its header).
	raw[len(raw)-20] ^= 0xFF
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, rec := openReplayed(t, dir, Options{})
	defer d2.Close()
	rs := rec.sortedRounds()[0]
	if rs.Reported[2] {
		t.Fatal("torn record was applied")
	}
	if !reflect.DeepEqual(rs.Cells, wantRoundCells(0, 1)) {
		t.Fatal("recovery did not stop at the last valid record")
	}
}

// A CRC-valid record with an unknown kind (version skew, encoder bug)
// must refuse recovery loudly: stopping silently there would discard
// acknowledged-durable records behind it.
func TestRecoveryRefusesUnparseableValidRecord(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	logRound(t, d, 1, 4, 0)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, walName(1))
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A perfectly framed record of a kind this binary does not know.
	var enc RecordEncoder
	if err := enc.record(f, 0x7F, []byte("future record"), nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	rec := newRefState()
	if err := d2.Replay(rec.load, rec.apply); err == nil {
		t.Fatal("replay accepted a segment with an unparseable checksummed record")
	}
	if err := d2.Snapshot(func() ([]*RoundState, error) { return nil, nil }); !errors.Is(err, ErrNotReplayed) {
		t.Fatalf("Snapshot after a failed replay = %v, want ErrNotReplayed", err)
	}
}

// A snapshot whose whole-file CRC validates but whose interior section
// lengths are inconsistent must return an error (falling back to an
// older generation), never panic.
func TestLoadSnapshotInconsistentInterior(t *testing.T) {
	// magic ‖ version ‖ rosterCount=0 ‖ roundCount=1 ‖ a round header
	// claiming 8 roster users — then nothing (no bitmap, no cells).
	body := []byte(snapMagic)
	body = append(body, 1, 0, 0, 0) // version
	body = append(body, make([]byte, 8)...)
	count := make([]byte, 8)
	count[0] = 1
	body = append(body, count...) // roundCount = 1
	hdr := make([]byte, 8*6)      // round, roster, d, w, seed, n
	hdr[8] = 8                    // roster = 8
	hdr[16] = 2                   // d = 2
	hdr[24] = 4                   // w = 4
	body = append(body, hdr...)
	body = append(body, 0, 0) // keystream, closed — and then: truncated
	crc := crc32.Checksum(body, castagnoli)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	body = append(body, tail[:]...)

	dir := t.TempDir()
	path := filepath.Join(dir, snapName(3))
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadSnapshot(path); err == nil {
		t.Fatal("inconsistent snapshot accepted")
	}
	// And the store as a whole must fall back (empty recovery), not die.
	d, rec := openReplayed(t, dir, Options{})
	defer d.Close()
	if len(rec.rounds) != 0 {
		t.Fatal("corrupt snapshot produced rounds")
	}
}

// The snapshot cycle: after Snapshot, old segments are pruned, and
// recovery from snapshot + fresh segment equals recovery from the full
// log. Records appended after the snapshot replay on top of it.
func TestSnapshotCycleAndPrune(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	logRound(t, d, 1, 4, 0, 1)
	if err := d.AppendRegister(0, []byte("k0")); err != nil {
		t.Fatal(err)
	}

	// Capture the state the back-end would: one round, users 0 and 1 in.
	state := &RoundState{
		Round: 1, RosterSize: 4, D: testD, W: testW, N: 10, Keystream: 1,
		Cells:    wantRoundCells(0, 1),
		Reported: []bool{true, true, false, false},
		Adjusts:  map[int][]uint64{},
	}
	if err := d.Snapshot(func() ([]*RoundState, error) {
		return []*RoundState{state}, nil
	}); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, walName(1))); !os.IsNotExist(err) {
		t.Fatal("old WAL segment not pruned after snapshot")
	}
	// Post-snapshot traffic, including a replay-overlap record (user 1
	// again — already in the snapshot, must be rejected on replay).
	if err := d.AppendReport(0, 1, 1, testD, testW, 5, 0, 1, 0, testCells(77)); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendReport(0, 1, 2, testD, testW, 5, 0, 1, 0, testCells(2)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, rec := openReplayed(t, dir, Options{})
	defer d2.Close()
	rs := rec.sortedRounds()[0]
	if !reflect.DeepEqual(rs.Reported, []bool{true, true, true, false}) {
		t.Fatalf("reported after snapshot+replay = %v", rs.Reported)
	}
	if !reflect.DeepEqual(rs.Cells, wantRoundCells(0, 1, 2)) {
		t.Fatal("snapshot + overlapping replay double-applied a report")
	}
	if rs.N != 15 {
		t.Fatalf("N = %d, want 15", rs.N)
	}
	if string(rec.roster[0]) != "k0" {
		t.Fatal("roster lost across snapshot")
	}
}

// A corrupt (half-written) snapshot must be ignored: recovery falls
// back to the previous snapshot and the WAL segments after it.
func TestRecoverySkipsCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	logRound(t, d, 1, 4, 0, 1)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Fake a crash mid-snapshot: a snap file at a plausible generation
	// whose content is garbage.
	if err := os.WriteFile(filepath.Join(dir, snapName(2)), []byte("EYWSNAP1 not really"), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, rec := openReplayed(t, dir, Options{})
	defer d2.Close()
	rounds := rec.sortedRounds()
	if len(rounds) != 1 || !reflect.DeepEqual(rounds[0].Cells, wantRoundCells(0, 1)) {
		t.Fatal("corrupt snapshot shadowed the WAL recovery")
	}
}

// ShouldSnapshot turns on at the configured cadence and resets after a
// snapshot.
func TestShouldSnapshotCadence(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{SnapshotEvery: 3})
	defer d.Close()
	if err := d.AppendOpen(0, 1, 4, testD, testW, 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 3; u++ {
		if d.ShouldSnapshot() {
			t.Fatalf("ShouldSnapshot true after %d reports", u)
		}
		if err := d.AppendReport(0, 1, u, testD, testW, 1, 0, 0, 0, testCells(uint64(u))); err != nil {
			t.Fatal(err)
		}
	}
	if !d.ShouldSnapshot() {
		t.Fatal("ShouldSnapshot false at cadence")
	}
	if err := d.Snapshot(func() ([]*RoundState, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	if d.ShouldSnapshot() {
		t.Fatal("ShouldSnapshot did not reset")
	}
}

// Concurrent appends + group-committed Syncs must all land durably and
// replay to the same state as a serial run.
func TestConcurrentAppendsGroupCommit(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	const users = 32
	if err := d.AppendOpen(0, 1, users, testD, testW, 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			if err := d.AppendReport(0, 1, u, testD, testW, 1, 0, 0, 0, testCells(uint64(u))); err != nil {
				errs <- err
				return
			}
			errs <- d.Sync() // every reporter demands durability: group commit coalesces
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, rec := openReplayed(t, dir, Options{})
	defer d2.Close()
	rs := rec.sortedRounds()[0]
	all := make([]int, users)
	for i := range all {
		all[i] = i
		if !rs.Reported[i] {
			t.Fatalf("user %d lost", i)
		}
	}
	if !reflect.DeepEqual(rs.Cells, wantRoundCells(all...)) {
		t.Fatal("concurrent appends diverged from serial fold")
	}
}

// An fsync failure must reach every caller of the group commit: no
// Sync that the failed leader would have covered may return nil, and
// the failure is sticky for every later append and barrier — acked ⇒
// durable depends on nobody being "covered" by an fsync that failed.
func TestSyncFailureReachesEveryWaiter(t *testing.T) {
	d := openTestStore(t, t.TempDir(), Options{})
	logRound(t, d, 1, 16, 0, 1) // a durable prefix
	for u := 2; u < 6; u++ {
		if err := d.AppendReport(0, 1, u, testD, testW, 1, 0, 1, 0, testCells(uint64(u))); err != nil {
			t.Fatal(err)
		}
	}
	// The next leader's f.Sync fails: swap in a closed file. Appends go
	// through d.bw, which still wraps the real segment, so the leader's
	// buffered flush lands and only the fsync fails.
	dead, err := os.CreateTemp(t.TempDir(), "closed")
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	d.mu.Lock()
	live := d.f
	d.f = dead
	d.mu.Unlock()

	const waiters = 8
	start := make(chan struct{})
	errs := make(chan error, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			errs <- d.Sync()
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err == nil {
			t.Fatal("a Sync caller returned nil after the leader's fsync failed")
		}
	}
	if err := d.AppendReport(0, 1, 7, testD, testW, 1, 0, 1, 0, testCells(7)); err == nil {
		t.Fatal("AppendReport after a failed fsync returned nil")
	}
	if err := d.Sync(); err == nil {
		t.Fatal("Sync after a failed fsync returned nil")
	}
	d.mu.Lock()
	d.f = live
	d.mu.Unlock()
	if err := d.Close(); err == nil {
		t.Fatal("Close after a failed fsync returned nil")
	}
}

// Operations on a closed store fail with ErrStoreClosed.
func TestClosedStoreFails(t *testing.T) {
	d := openTestStore(t, t.TempDir(), Options{})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendClose(0, 1); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("append after close = %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

// The report append path must be allocation-free: the encoder's scratch
// replaces the stack arrays that used to escape through the io.Writer
// interface (the ~3 allocs/report the ROADMAP flagged).
func TestRecordEncoderReportZeroAllocs(t *testing.T) {
	var enc RecordEncoder
	cells := testCells(1)
	allocs := testing.AllocsPerRun(200, func() {
		if err := enc.Report(io.Discard, 0, 1, 1, testD, testW, 5, 0, 1, 3, cells); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encoder report append allocates %.1f objects/op, want 0", allocs)
	}
}

// The record codec round-trips every kind through an in-memory buffer.
func TestRecordRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	var enc RecordEncoder
	cells := testCells(5)
	if err := enc.register(&buf, 3, []byte("key")); err != nil {
		t.Fatal(err)
	}
	if err := enc.open(&buf, 0, 9, 16, testD, testW, 77, 1, 6, 2); err != nil {
		t.Fatal(err)
	}
	if err := enc.Report(&buf, 0, 9, 3, testD, testW, 11, 77, 1, 6, cells); err != nil {
		t.Fatal(err)
	}
	if err := enc.adjust(&buf, 0, 9, 3, cells); err != nil {
		t.Fatal(err)
	}
	if err := enc.config(&buf, 7, 3); err != nil {
		t.Fatal(err)
	}
	if err := enc.close(&buf, 0, 9); err != nil {
		t.Fatal(err)
	}

	r := bytes.NewReader(buf.Bytes())
	var scratch []byte
	kind, body, scratch, err := ReadWALRecord(r, scratch)
	if err != nil || kind != recRegister {
		t.Fatalf("register: %d %v", kind, err)
	}
	reg, err := decodeRegisterBody(body)
	if err != nil || reg.User != 3 || string(reg.Key) != "key" {
		t.Fatalf("register body: %+v %v", reg, err)
	}
	kind, body, scratch, err = ReadWALRecord(r, scratch)
	if err != nil || kind != recOpen {
		t.Fatalf("open: %d %v", kind, err)
	}
	op, err := decodeOpenBody(body)
	if err != nil || op.Round != 9 || op.Roster != 16 || op.D != testD || op.W != testW || op.Seed != 77 || op.Keystream != 1 ||
		op.ConfigVersion != 6 || op.RosterVersion != 2 {
		t.Fatalf("open body: %+v %v", op, err)
	}
	kind, body, scratch, err = ReadWALRecord(r, scratch)
	if err != nil || kind != recReport {
		t.Fatalf("report: %d %v", kind, err)
	}
	rep, err := decodeReportBody(body)
	if err != nil || rep.Round != 9 || rep.User != 3 || rep.N != 11 || rep.Keystream != 1 || rep.ConfigVersion != 6 {
		t.Fatalf("report body: %+v %v", rep, err)
	}
	if len(rep.Cells) != 8*len(cells) {
		t.Fatalf("report cells = %d bytes", len(rep.Cells))
	}
	kind, body, scratch, err = ReadWALRecord(r, scratch)
	if err != nil || kind != recAdjust {
		t.Fatalf("adjust: %d %v", kind, err)
	}
	adj, err := decodeAdjustBody(body)
	if err != nil || adj.Round != 9 || adj.User != 3 || len(adj.Cells) != 8*len(cells) {
		t.Fatalf("adjust body: %+v %v", adj, err)
	}
	kind, body, scratch, err = ReadWALRecord(r, scratch)
	if err != nil || kind != recConfig {
		t.Fatalf("config: %d %v", kind, err)
	}
	if cv, rv, err := decodeConfigBody(body); err != nil || cv != 7 || rv != 3 {
		t.Fatalf("config body: %d %d %v", cv, rv, err)
	}
	kind, _, scratch, err = ReadWALRecord(r, scratch)
	if err != nil || kind != recClose {
		t.Fatalf("close: %d %v", kind, err)
	}
	if _, _, _, err = ReadWALRecord(r, scratch); err != io.EOF {
		t.Fatalf("tail = %v, want EOF", err)
	}
}

// BenchmarkRecover replays a WAL-only directory of report records, the
// restart and follower-start cost: paper geometry (192 × 19 033-cell
// reports, 29 MB), the same behind 100 empty segments (what 100
// restarts without a snapshot leave: each Open starts a segment), and a
// small-sketch shape (5 120 × 1 360 cells).
func BenchmarkRecover(b *testing.B) {
	for _, bc := range []struct {
		name          string
		reports, d, w int
		restarts      int
	}{
		{"paper", 192, 7, 2719, 0},
		{"paper_restarted", 192, 7, 2719, 100},
		{"small", 5120, 4, 340, 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			d, err := Open(dir, Options{SnapshotEvery: -1, Sync: SyncOff})
			if err != nil {
				b.Fatal(err)
			}
			if err := d.AppendOpen(0, 1, bc.reports, bc.d, bc.w, 0, 1, 0, 0); err != nil {
				b.Fatal(err)
			}
			cells := make([]uint64, bc.d*bc.w)
			for u := 0; u < bc.reports; u++ {
				cells[u%len(cells)]++
				if err := d.AppendReport(0, 1, u, bc.d, bc.w, 1, 0, 1, 0, cells); err != nil {
					b.Fatal(err)
				}
			}
			if err := d.Close(); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < bc.restarts; i++ {
				d, err := Open(dir, Options{SnapshotEvery: -1, Sync: SyncOff})
				if err != nil {
					b.Fatal(err)
				}
				d.Close()
			}
			b.SetBytes(dirBytes(b, dir))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec, err := Recover(dir)
				if err != nil {
					b.Fatal(err)
				}
				replayRef(b, rec)
			}
		})
	}
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(tb testing.TB, dir string) int64 {
	tb.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		tb.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			tb.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// Replay exports how much WAL it streamed and how long that took, so
// replay MB/s reads straight off /metrics: after recovering a directory
// of records both gauges are non-zero and the byte gauge equals the
// replayed segments' bytes.
func TestOpenReplayGauges(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	logRound(t, d, 1, 4, 0, 1)
	if _, err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	logRound(t, d, 2, 4, 2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segBytes := dirBytes(t, dir) // WAL segments only: no snapshot was taken

	reg := obs.New()
	d2 := openTestStore(t, dir, Options{Metrics: reg})
	defer d2.Close()
	snap := reg.Snapshot()
	if got := snap["eyewnder_store_replay_bytes"]; got != float64(segBytes) {
		t.Fatalf("replay bytes gauge = %v, want the %d segment bytes", got, segBytes)
	}
	if got := snap["eyewnder_store_replay_seconds"]; got <= 0 {
		t.Fatalf("replay seconds gauge = %v, want > 0", got)
	}
}

// A Disk refuses to snapshot before its log has been read back, and the
// bookkeeping Replay does for later snapshots — roster, campaign
// directory, version counters — survives a snapshot taken right after a
// restart that pruned every segment holding it.
func TestSnapshotAfterReplayKeepsLog(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	def := testCampaignDef(t, 4)
	if err := d.AppendRegister(1, []byte("k1")); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendConfig(5, 2); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendCampaign(def); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	capture := func() ([]*RoundState, error) { return nil, nil }
	if err := d2.Snapshot(capture); !errors.Is(err, ErrNotReplayed) {
		t.Fatalf("Snapshot before Replay = %v, want ErrNotReplayed", err)
	}
	replayRef(t, d2)
	if err := d2.Snapshot(capture); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, walName(1))); !os.IsNotExist(err) {
		t.Fatal("the segment holding the records was not pruned")
	}

	d3, rec := openReplayed(t, dir, Options{})
	defer d3.Close()
	if string(rec.roster[1]) != "k1" || !reflect.DeepEqual(rec.campaigns[4], def) ||
		rec.configVersion != 5 || rec.rosterVersion != 2 {
		t.Fatalf("snapshot after replay lost the log: roster %v campaigns %v versions %d/%d",
			rec.roster, rec.campaigns, rec.configVersion, rec.rosterVersion)
	}
}
