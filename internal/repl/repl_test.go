package repl_test

import (
	"crypto/rand"
	"encoding/binary"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"eyewnder/internal/backend"
	"eyewnder/internal/blind"
	"eyewnder/internal/detector"
	"eyewnder/internal/group"
	"eyewnder/internal/privacy"
	"eyewnder/internal/repl"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// testParams is a small geometry so replication tests stay fast.
func testParams() privacy.Params {
	return privacy.Params{Epsilon: 0.02, Delta: 0.02, IDSpace: 2048, Suite: group.P256()}
}

// backendCfg is the deployment configuration both primary and follower
// run with.
func backendCfg(params privacy.Params, users int) backend.Config {
	return backend.Config{Params: params, Users: users, UsersEstimator: detector.EstimatorMean}
}

// buildReports blinds one report per roster member for the given round.
func buildReports(t *testing.T, params privacy.Params, users int, round uint64) []*privacy.Report {
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
		reports[u] = &privacy.Report{User: u, Round: round, Sketch: cms, Keystream: params.Keystream}
	}
	return reports
}

// newPrimary opens a durable primary back-end on dir and serves its
// store over the replication protocol.
func newPrimary(t *testing.T, dir string, users int, opts store.Options) (*backend.Backend, *store.Disk, *repl.Primary) {
	t.Helper()
	st, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := backendCfg(testParams(), users)
	cfg.Store = st
	b, err := backend.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := repl.ServePrimary("127.0.0.1:0", st)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Close()
		b.Close()
		st.Close()
	})
	return b, st, p
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// assertMirror compares the replica's observable state to the
// primary's for the given closed rounds.
func assertMirror(t *testing.T, primary, replica *backend.Backend, rounds ...uint64) {
	t.Helper()
	pKeys, pcv, prv := primary.Roster()
	rKeys, rcv, rrv := replica.Roster()
	if !reflect.DeepEqual(pKeys, rKeys) || pcv != rcv || prv != rrv {
		t.Fatalf("roster/version mismatch: (%d,%d) vs (%d,%d)", pcv, prv, rcv, rrv)
	}
	for _, round := range rounds {
		pth, err := primary.Threshold(0, round)
		if err != nil {
			t.Fatal(err)
		}
		rth, err := replica.Threshold(0, round)
		if err != nil {
			t.Fatalf("replica threshold(%d): %v", round, err)
		}
		if pth != rth {
			t.Fatalf("round %d: threshold %v vs %v", round, pth, rth)
		}
		pc, err := primary.UserCounts(0, round)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := replica.UserCounts(0, round)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pc, rc) {
			t.Fatalf("round %d: per-ad counts diverge", round)
		}
	}
}

// A follower attached to a live primary must mirror everything the
// primary logs — registrations, full rounds, an adjustment round, a
// forced rotation landing mid-follow, and an open mid-round tail — and
// report itself caught up.
func TestFollowerMirrorsLivePrimary(t *testing.T) {
	const users = 6
	params := testParams()
	b, st, p := newPrimary(t, t.TempDir(), users, store.Options{SnapshotEvery: -1, RetainSegments: 2})

	f, err := repl.StartFollower(repl.Options{
		Dir: filepath.Join(t.TempDir(), "mirror"), Addr: p.Addr(),
		Poll: 2 * time.Millisecond,
		Logf: t.Logf,
	}, backendCfg(params, users))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	if _, err := b.Register(2, []byte("pk2")); err != nil {
		t.Fatal(err)
	}

	// Round 1: full roster, straight close.
	for _, r := range buildReports(t, params, users, 1) {
		if err := b.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.CloseRound(0, 1, 0); err != nil {
		t.Fatal(err)
	}

	// Force a rotation mid-follow: the follower must finish the sealed
	// segment and move to the new active one.
	if _, err := st.Seal(); err != nil {
		t.Fatal(err)
	}

	// Round 2: one user missing, adjustment shares, close.
	reports2 := buildReports(t, params, users, 2)
	for _, r := range reports2[:users-1] {
		if err := b.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	cells := len(reports2[0].Sketch.FlatCells())
	for u := 0; u < users-1; u++ {
		share := make([]uint64, cells)
		for i := range share {
			share[i] = uint64(u*1000 + i)
		}
		if err := b.SubmitAdjustment(0, u, 2, 0, share); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.CloseRound(0, 2, 0); err != nil {
		t.Fatal(err)
	}

	// Round 3 stays open mid-round: the warm state promotion needs.
	for _, r := range buildReports(t, params, users, 3)[:3] {
		if err := b.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SyncReports(); err != nil {
		t.Fatal(err)
	}

	waitFor(t, "follower to catch up", func() bool {
		rp, err := f.Replica().RoundProgressOf(0, 3)
		return err == nil && rp.Reported == 3 && f.Status().CaughtUp
	})
	st.Sync() // no-op barrier; keeps the flushed horizon settled before comparing

	assertMirror(t, b, f.Replica(), 1, 2)
	pp, err := b.RoundProgressOf(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := f.Replica().RoundProgressOf(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pp.Reported != rp.Reported || !reflect.DeepEqual(pp.Missing, rp.Missing) {
		t.Fatalf("round 3 progress %+v vs %+v", pp, rp)
	}
	s := f.Status()
	if !s.Connected || s.Err != nil {
		t.Fatalf("status = %+v", s)
	}
	if s.TailGen < 2 {
		t.Fatalf("follower never crossed the forced rotation: tail gen %d", s.TailGen)
	}
}

// A follower restarted after the primary pruned its tail segment
// (snapshot compaction with no retention) must resync from the newer
// snapshot: fetch it, rebuild the replica through recovery, prune its
// own stale segments, and converge.
func TestFollowerRestartAfterPrune(t *testing.T) {
	const users = 6
	params := testParams()
	dir := t.TempDir()
	// Snapshot every 4 report appends, retain nothing: round 2's
	// reports are guaranteed to trigger a compaction that prunes the
	// segment the stopped follower was tailing.
	b, _, p := newPrimary(t, dir, users, store.Options{SnapshotEvery: 4})
	mirror := filepath.Join(t.TempDir(), "mirror")

	for _, r := range buildReports(t, params, users, 1) {
		if err := b.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.CloseRound(0, 1, 0); err != nil {
		t.Fatal(err)
	}

	f1, err := repl.StartFollower(repl.Options{Dir: mirror, Addr: p.Addr(), Poll: 2 * time.Millisecond}, backendCfg(params, users))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first follower to mirror round 1", func() bool {
		th, err := f1.Replica().Threshold(0, 1)
		return err == nil && th >= 0 && f1.Status().CaughtUp
	})
	f1.Stop()
	f1Tail := store.FileInfo{Kind: store.FileWAL, Gen: f1.Status().TailGen}.Name()

	for _, r := range buildReports(t, params, users, 2) {
		if err := b.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.CloseRound(0, 2, 0); err != nil {
		t.Fatal(err)
	}
	// The snapshot goroutine compacts asynchronously; wait until the
	// segment the stopped follower was tailing is pruned away, so the
	// restart below is forced onto the snapshot-resync path.
	waitFor(t, "primary to prune the stopped follower's tail segment", func() bool {
		_, err := os.Stat(filepath.Join(dir, f1Tail))
		return os.IsNotExist(err)
	})

	f2, err := repl.StartFollower(repl.Options{Dir: mirror, Addr: p.Addr(), Poll: 2 * time.Millisecond, Logf: t.Logf}, backendCfg(params, users))
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Stop()
	waitFor(t, "second follower to converge", func() bool {
		th, err := f2.Replica().Threshold(0, 2)
		return err == nil && th >= 0 && f2.Status().CaughtUp
	})
	assertMirror(t, b, f2.Replica(), 1, 2)
	// The local mirror must have followed the primary's pruning: its
	// copy of the pruned segment is covered by the fetched snapshot.
	if _, err := os.Stat(filepath.Join(mirror, "wal-0000000000000001.log")); !os.IsNotExist(err) {
		t.Fatal("stale pre-snapshot segment survived in the mirror")
	}
}

// fakeSource serves scripted file bytes with a controllable visible
// size, so tests can freeze a torn (mid-record) tail exactly where
// they want it.
type fakeSource struct {
	mu    sync.Mutex
	data  map[store.FileKind]map[uint64][]byte
	limit map[store.FileKind]map[uint64]int64
}

func newFakeSource() *fakeSource {
	return &fakeSource{
		data:  map[store.FileKind]map[uint64][]byte{store.FileWAL: {}, store.FileSnapshot: {}},
		limit: map[store.FileKind]map[uint64]int64{store.FileWAL: {}, store.FileSnapshot: {}},
	}
}

func (s *fakeSource) set(kind store.FileKind, gen uint64, data []byte, limit int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data[kind][gen] = data
	s.limit[kind][gen] = limit
}

func (s *fakeSource) Manifest() ([]store.FileInfo, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var files []store.FileInfo
	for kind, gens := range s.data {
		for gen := range gens {
			files = append(files, store.FileInfo{Kind: kind, Gen: gen, Size: s.limit[kind][gen], Sealed: kind == store.FileSnapshot})
		}
	}
	return files, nil
}

func (s *fakeSource) ReadFileAt(kind store.FileKind, gen uint64, off int64, p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.data[kind][gen]
	if !ok {
		return 0, os.ErrNotExist
	}
	visible := data[:s.limit[kind][gen]]
	if off >= int64(len(visible)) {
		return 0, io.EOF
	}
	n := copy(p, visible[off:])
	if int64(off)+int64(n) == int64(len(visible)) {
		return n, io.EOF
	}
	return n, nil
}

// recordBoundaries parses a WAL segment's bytes and returns the byte
// offset after each complete record (the magic's end first).
func recordBoundaries(t *testing.T, raw []byte) []int64 {
	t.Helper()
	sp := store.NewSegmentParser()
	sp.Feed(raw)
	offs := []int64{8}
	for {
		ev, err := sp.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev == nil {
			return offs
		}
		offs = append(offs, sp.Offset())
	}
}

// A shipped tail cut mid-record must stop the follower cleanly at the
// last complete record; when the rest of the bytes appear, the
// follower re-requests from where it stopped and converges. This is
// the shipping-level half of the torn-tail discipline (recovery is the
// other half).
func TestFollowerConvergesTornTail(t *testing.T) {
	const users = 4
	params := testParams()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	cfg := backendCfg(params, users)
	cfg.Store = st
	b, err := backend.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, r := range buildReports(t, params, users, 1) {
		if err := b.ConsumeReport(wire.ReportFrameOf(r)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.CloseRound(0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.SyncReports(); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(filepath.Join(dir, "wal-0000000000000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	offs := recordBoundaries(t, raw)
	// Cut 3 bytes into the third report record: open + 2 full reports
	// are visible, the third is torn.
	cut := offs[3] + 3
	src := newFakeSource()
	src.set(store.FileWAL, 1, raw, cut)
	p, err := repl.ServePrimary("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	f, err := repl.StartFollower(repl.Options{
		Dir: filepath.Join(t.TempDir(), "mirror"), Addr: p.Addr(),
		Poll: 2 * time.Millisecond, Logf: t.Logf,
	}, backendCfg(params, users))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Stop()

	// The follower fetches everything visible, applies the two whole
	// reports, and stops cleanly inside the torn record.
	waitFor(t, "follower to reach the torn tail", func() bool {
		s := f.Status()
		return s.CaughtUp && s.TailOff == cut
	})
	rp, err := f.Replica().RoundProgressOf(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Reported != 2 {
		t.Fatalf("reported at torn tail = %d, want 2", rp.Reported)
	}

	// The rest of the bytes appear (the primary's next flush): the
	// follower re-requests from the cut and converges.
	src.set(store.FileWAL, 1, raw, int64(len(raw)))
	waitFor(t, "follower to converge past the torn tail", func() bool {
		th, err := f.Replica().Threshold(0, 1)
		return err == nil && th >= 0
	})
	assertMirror(t, b, f.Replica(), 1)
}

// A connection that does not speak the protocol must be dropped at the
// hello, before any frame is honored.
func TestPrimaryDropsBadHello(t *testing.T) {
	src := newFakeSource()
	p, err := repl.ServePrimary("127.0.0.1:0", src)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	nc, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if _, err := nc.Write([]byte("HTTP/1.1 GET /\r\n")); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64)
	total := 0
	for {
		n, rerr := nc.Read(buf) // the primary's own hello arrives first
		total += n
		if rerr != nil {
			if ne, ok := rerr.(net.Error); ok && ne.Timeout() {
				t.Fatal("primary left a non-protocol connection open")
			}
			return // dropped at the hello: correct
		}
		if total > len(wire.ReplMagic)+4 {
			t.Fatal("primary kept talking to a non-protocol peer")
		}
	}
}
