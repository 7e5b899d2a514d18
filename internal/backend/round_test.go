package backend

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// loggedOpens counts the open records per round in the store directory
// dir — snapshot rounds included — through the same replay a restart
// runs.
func loggedOpens(t *testing.T, dir string) map[roundKey]int {
	t.Helper()
	rec, err := store.Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	opens := make(map[roundKey]int)
	err = rec.Replay(func(base *store.Base) error {
		for _, rs := range base.Rounds {
			opens[roundKey{rs.Campaign, rs.Round}]++
		}
		return nil
	}, func(ev store.Event) error {
		if e, ok := ev.(*store.OpenEvent); ok {
			opens[roundKey{e.Campaign, e.Round}]++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return opens
}

// refusedFrameCases are first frames of a round that the admission rule
// refuses, each as an edit of a valid frame and the error it must get
// (nil: any error).
var refusedFrameCases = []struct {
	name string
	want error
	edit func(*wire.ReportFrame)
}{
	{"bad user", nil, func(f *wire.ReportFrame) { f.User = 999999 }},
	{"bad config version", privacy.ErrIncompatibleConfig, func(f *wire.ReportFrame) { f.ConfigVersion = 77 }},
	{"bad suite", privacy.ErrKeystreamMismatch, func(f *wire.ReportFrame) { f.Keystream ^= 1 }},
	{"bad geometry", sketch.ErrDimensionMismatch, func(f *wire.ReportFrame) { f.D, f.W, f.Cells = 1, 1, make([]uint64, 1) }},
	{"unknown campaign", ErrUnknownCampaign, func(f *wire.ReportFrame) { f.Campaign = 5 }},
}

// A refused frame has no effect: sent as the first frame of 100 new
// rounds, it is refused with the error it earns, and it leaves no round
// in memory, no opened count and no open record in the WAL. One admitted
// frame afterwards opens exactly one round, so the three observations
// do see an open when there is one.
func TestRefusedFrameOpensNoRound(t *testing.T) {
	const users = 4
	params := storeTestParams()
	for _, tc := range refusedFrameCases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			b := newStoreBackend(t, params, users, st)
			valid := rawFrames(t, params, users, 0)[0]
			for id := uint64(1000); id < 1100; id++ {
				f := *valid
				f.Round = id
				tc.edit(&f)
				err := b.ConsumeReport(&f)
				if err == nil || (tc.want != nil && !errors.Is(err, tc.want)) {
					t.Fatalf("round %d: ConsumeReport = %v, want %v", id, err, tc.want)
				}
			}
			expect := func(rounds int, opened uint64) {
				t.Helper()
				if err := st.Sync(); err != nil {
					t.Fatal(err)
				}
				b.mu.Lock()
				n := len(b.rounds)
				b.mu.Unlock()
				logged := 0
				for _, c := range loggedOpens(t, dir) {
					logged += c
				}
				if n != rounds || b.m.roundsOpened.Value() != opened || logged != rounds {
					t.Fatalf("%d rounds in memory, %d opened, %d open records; want %d, %d, %d",
						n, b.m.roundsOpened.Value(), logged, rounds, opened, rounds)
				}
			}
			expect(0, 0)
			if err := b.ConsumeReport(valid); err != nil {
				t.Fatal(err)
			}
			expect(1, 1)
		})
	}
}

// Thirty-two first frames of one new round race in at once, half of
// them refused: the round opens exactly once — one round, one open
// record, one opened count — and every admitted report is folded, so
// the aggregate is exactly the admitted frames' sum.
func TestConcurrentFirstReportsOpenOnce(t *testing.T) {
	const users, senders = 16, 32
	params := storeTestParams()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	b := newStoreBackend(t, params, users, st)
	const rounds = 8
	for id := uint64(1); id <= rounds; id++ {
		frames := rawFrames(t, params, users, id)
		want := make([]uint64, len(frames[0].Cells))
		for _, f := range frames {
			for i, c := range f.Cells {
				want[i] += c
			}
		}
		start := make(chan struct{})
		errs := make([]error, senders)
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			f := *frames[s%users]
			if s >= users {
				refusedFrameCases[s%len(refusedFrameCases)].edit(&f)
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				errs[s] = b.ConsumeReport(&f)
			}()
		}
		close(start)
		wg.Wait()
		for s, err := range errs {
			if (err == nil) != (s < users) {
				t.Fatalf("round %d sender %d: ConsumeReport = %v, admitted %v", id, s, err, s < users)
			}
		}
		p, err := b.RoundProgressOf(0, id)
		if err != nil || p.Reported != users {
			t.Fatalf("round %d: progress %+v, %v; want all %d reported", id, p, err, users)
		}
		r, _ := b.lookupRound(0, id)
		r.mu.RLock()
		_, _, _, _, _, cells, _ := r.agg.SnapshotState()
		r.mu.RUnlock()
		if !reflect.DeepEqual(cells, want) {
			t.Fatalf("round %d: aggregate is not the sum of the admitted frames", id)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	opens := loggedOpens(t, dir)
	b.mu.Lock()
	n := len(b.rounds)
	b.mu.Unlock()
	if n != rounds || b.m.roundsOpened.Value() != rounds || len(opens) != rounds {
		t.Fatalf("%d rounds, %d opened, %d rounds logged; want %d each", n, b.m.roundsOpened.Value(), len(opens), rounds)
	}
	for k, c := range opens {
		if c != 1 {
			t.Fatalf("round %d/%d has %d open records, want 1", k.campaign, k.round, c)
		}
	}
}
