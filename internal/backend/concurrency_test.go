package backend

import (
	"encoding/binary"
	"errors"
	"strings"
	"sync"
	"testing"

	"eyewnder/internal/blind"
	"eyewnder/internal/detector"
	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
	"eyewnder/internal/wire"
)

// Per-round locking must keep concurrent submissions and status polls
// coherent: every report lands exactly once and the closed aggregate
// recovers the exact multiset union. Run with -race.
func TestConcurrentSubmitAndClose(t *testing.T) {
	b, clients := newBackend(t)
	const round = 5

	ads := [][]string{
		{"https://a.example/1", "https://a.example/2"},
		{"https://a.example/1"},
		{"https://b.example/9", "https://a.example/2"},
		{"https://a.example/1", "https://b.example/9"},
	}
	// Observation and report construction are per-client (client state is
	// not shared); only the backend interaction runs concurrently.
	adIDs := make(map[string]uint64)
	var wg sync.WaitGroup
	errs := make(chan error, 2*len(clients))
	for u, c := range clients {
		for _, ad := range ads[u] {
			id, err := c.ObserveAd(ad)
			if err != nil {
				t.Fatal(err)
			}
			adIDs[ad] = id
		}
		rep, err := c.Report(round)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := submit(b, rep); err != nil {
				errs <- err
			}
		}()
		go func() {
			defer wg.Done()
			// A status poll is observation only: racing ahead of the
			// first report it sees ErrUnknownRound (the round does not
			// exist yet), never a freshly created empty round.
			if _, err := b.RoundProgressOf(0, round); err != nil && !errors.Is(err, ErrUnknownRound) {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if _, _, err := b.CloseRound(0, round, 0); err != nil {
		t.Fatal(err)
	}
	users, err := b.AuditAd(0, round, adIDs["https://a.example/1"])
	if err != nil {
		t.Fatal(err)
	}
	if users < 3 {
		t.Fatalf("AuditAd(a.example/1) = %d, want >= 3 (CMS never underestimates)", users)
	}
}

// A wrong-length adjustment share must be rejected at upload time — if it
// were stored, every later CloseRound would fail on it and the round could
// never close.
func TestSubmitAdjustmentRejectsBadLength(t *testing.T) {
	b, _ := newBackend(t)
	if err := b.SubmitAdjustment(0, 0, 1, 0, make([]uint64, 7)); err == nil {
		t.Fatal("wrong-length adjustment share accepted")
	}
}

// A CloseRound that fails must leave the round aggregate untouched, so
// that a later successful close does not subtract adjustment shares
// twice; and an adjustment upload racing ahead of its own report must
// be refused without creating the round.
func TestCloseRoundRetrySafe(t *testing.T) {
	b, clients := newBackend(t)
	const round = 9
	sketchCells := b.cells

	// A share before any report touches the round: refused (the round
	// does not even exist yet — shares repair rounds, never open them).
	adj, err := clients[0].Adjust(round, sketchCells, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SubmitAdjustment(0, 0, round, 0, adj); !errors.Is(err, ErrUnknownRound) {
		t.Fatalf("pre-report adjustment share: err = %v, want ErrUnknownRound", err)
	}

	// Users 0, 2, 3 report (user 1 is missing). A close attempt with no
	// shares yet must fail without consuming anything.
	for _, u := range []int{0, 2, 3} {
		if _, err := clients[u].ObserveAd("https://ad.example/x"); err != nil {
			t.Fatal(err)
		}
		rep, err := clients[u].Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := submit(b, rep); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.CloseRound(0, round, 0); err == nil {
		t.Fatal("close with a missing user and no adjustment shares succeeded")
	}

	// All three reporters adjust for user 1; the retried close succeeds.
	for _, u := range []int{0, 2, 3} {
		adj, err := clients[u].Adjust(round, sketchCells, []int{1})
		if err != nil {
			t.Fatal(err)
		}
		if err := b.SubmitAdjustment(0, u, round, 0, adj); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.CloseRound(0, round, 0); err != nil {
		t.Fatal(err)
	}
	counts, err := b.UserCounts(0, round)
	if err != nil {
		t.Fatal(err)
	}
	// Had the failed close consumed the first share, cancellation would
	// break and the counts would be uniform noise (≈ IDSpace entries with
	// astronomic values). Exact recovery means few, small counts.
	if len(counts) > 200 {
		t.Fatalf("close after failed attempt recovered %d nonzero IDs — adjustment shares double-applied?", len(counts))
	}
	for id, v := range counts {
		if v > 3 {
			t.Fatalf("id %d count = %d, want <= 3 reporters", id, v)
		}
	}
}

// Same-round contention: with the striped merge, many reporters folding
// into ONE round concurrently must still produce the exact multiset
// union. Reports here are unblinded plain sketches (the back-end cannot
// tell, and with a full roster no adjustment pass is needed), so the
// closed round's counts are exactly checkable. Run with -race: this is
// the regression test for the striped merge replacing the single round
// lock.
func TestSameRoundConcurrentStripedMerge(t *testing.T) {
	const (
		users      = 32
		round      = 3
		adsPerUser = 40
		stripes    = 8
	)
	// Paper-density geometry (19k cells), with an explicit stripe count:
	// the default test params' 1360-cell sketch would clamp to few
	// stripes and leave the multi-stripe rotation logic untested.
	params := privacy.Params{Epsilon: 0.001, Delta: 0.001, IDSpace: 2000, Suite: testParams().Suite}
	b, err := New(Config{
		Params: params, Users: users,
		UsersEstimator: detector.EstimatorMean,
		MergeStripes:   stripes,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.MergeStripes(); got != stripes {
		t.Fatalf("MergeStripes = %d, want %d (multi-stripe path not exercised)", got, stripes)
	}

	// Every user reports a deterministic, partially overlapping ad set.
	want := make(map[uint64]uint64) // ad ID -> reporter count
	reports := make([]*privacy.Report, users)
	for u := 0; u < users; u++ {
		cms, err := params.NewSketch()
		if err != nil {
			t.Fatal(err)
		}
		var key [8]byte
		for a := 0; a < adsPerUser; a++ {
			id := uint64((u*17 + a*13) % int(params.IDSpace))
			binary.LittleEndian.PutUint64(key[:], id)
			cms.Update(key[:])
			want[id]++
		}
		reports[u] = &privacy.Report{User: u, Round: round, Sketch: cms}
	}

	var wg sync.WaitGroup
	errs := make(chan error, users)
	for _, rep := range reports {
		wg.Add(1)
		go func(rep *privacy.Report) {
			defer wg.Done()
			if err := submit(b, rep); err != nil {
				errs <- err
			}
		}(rep)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if _, _, err := b.CloseRound(0, round, 0); err != nil {
		t.Fatal(err)
	}
	counts, err := b.UserCounts(0, round)
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range want {
		if counts[id] < n {
			t.Fatalf("ad %d count = %d, want >= %d (CMS never underestimates)", id, counts[id], n)
		}
	}
}

// Reports submitted as binary frames over TCP land in the round
// aggregate, and duplicate/closed-round errors surface to the
// streaming client.
func TestStreamedReportsEndToEnd(t *testing.T) {
	const (
		users = 8
		round = 11
	)
	params := testParams()
	b, err := New(Config{Params: params, Users: users, UsersEstimator: detector.EstimatorMean})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := b.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	want := make(map[uint64]uint64)
	var wg sync.WaitGroup
	errs := make(chan error, users)
	var mu sync.Mutex
	for u := 0; u < users; u++ {
		cms, err := params.NewSketch()
		if err != nil {
			t.Fatal(err)
		}
		var key [8]byte
		for a := 0; a < 20; a++ {
			id := uint64((u*29 + a*7) % int(params.IDSpace))
			binary.LittleEndian.PutUint64(key[:], id)
			cms.Update(key[:])
			mu.Lock()
			want[id]++
			mu.Unlock()
		}
		wg.Add(1)
		go func(u int, cms *sketch.CMS) {
			defer wg.Done()
			cli, err := wire.Dial(srv.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer cli.Close()
			err = cli.SubmitReportFrame(&wire.ReportFrame{
				User: u, Round: round,
				D: cms.Depth(), W: cms.Width(),
				N: cms.N(), Seed: cms.Seed(),
				Cells: cms.FlatCells(),
			})
			if err != nil {
				errs <- err
			}
		}(u, cms)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// A duplicate streamed report must be rejected remotely.
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	dup, _ := params.NewSketch()
	if err := cli.SubmitReportFrame(&wire.ReportFrame{
		User: 0, Round: round,
		D: dup.Depth(), W: dup.Width(), N: dup.N(), Seed: dup.Seed(),
		Cells: dup.FlatCells(),
	}); err == nil {
		t.Fatal("duplicate streamed report accepted")
	}

	if _, _, err := b.CloseRound(0, round, 0); err != nil {
		t.Fatal(err)
	}
	counts, err := b.UserCounts(0, round)
	if err != nil {
		t.Fatal(err)
	}
	for id, n := range want {
		if counts[id] < n {
			t.Fatalf("ad %d count = %d, want >= %d", id, counts[id], n)
		}
	}

	// And a report into the now-closed round fails.
	late, _ := params.NewSketch()
	if err := cli.SubmitReportFrame(&wire.ReportFrame{
		User: 7, Round: round,
		D: late.Depth(), W: late.Width(), N: late.N(), Seed: late.Seed(),
		Cells: late.FlatCells(),
	}); err == nil {
		t.Fatal("streamed report into closed round accepted")
	}
}

// Batched-ack streamed ingestion must land every report exactly once in
// the round aggregate, and the frame's keystream suite byte must be
// enforced end to end: a report blinded under the wrong suite is refused
// with an error that reaches the submitting client.
func TestBatchedStreamedIngestion(t *testing.T) {
	const (
		users = 8
		round = 21
	)
	params := testParams()
	params.Keystream = blind.KeystreamAESCTR
	b, err := New(Config{
		Params: params, Users: users,
		UsersEstimator: detector.EstimatorMean,
		AckBatch:       3,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := b.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	stream, err := cli.OpenReportStream(0)
	if err != nil {
		t.Fatal(err)
	}
	frame := func(u int, ks blind.Keystream) *wire.ReportFrame {
		cms, err := params.NewSketch()
		if err != nil {
			t.Fatal(err)
		}
		var key [8]byte
		binary.LittleEndian.PutUint64(key[:], uint64(u))
		cms.Update(key[:])
		return &wire.ReportFrame{
			User: u, Round: round,
			D: cms.Depth(), W: cms.Width(), N: cms.N(), Seed: cms.Seed(),
			Keystream: byte(ks),
			Cells:     cms.FlatCells(),
		}
	}
	for u := 0; u < users; u++ {
		if err := stream.Submit(frame(u, blind.KeystreamAESCTR)); err != nil {
			t.Fatalf("submit %d: %v", u, err)
		}
	}
	if err := stream.Close(); err != nil {
		t.Fatal(err)
	}
	p, err := b.RoundProgressOf(0, round)
	if err != nil || p.Reported != users {
		t.Fatalf("reported = %d, %v; want %d", p.Reported, err, users)
	}

	// A frame blinded under the wrong suite must be refused remotely.
	stream, err = cli.OpenReportStream(0)
	if err != nil {
		t.Fatal(err)
	}
	// (user index users-1 already reported; use a mismatch on a fresh round)
	bad := frame(0, blind.KeystreamHMACSHA256)
	bad.Round = round + 1
	if err := stream.Submit(bad); err != nil {
		t.Fatal(err)
	}
	if err := stream.Close(); err == nil || !strings.Contains(err.Error(), "keystream") {
		t.Fatalf("wrong-suite close err = %v", err)
	}
	if p, _ := b.RoundProgressOf(0, round+1); p.Reported != 0 {
		t.Fatalf("mismatched-suite report was folded (reported=%d)", p.Reported)
	}
}
