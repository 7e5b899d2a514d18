package privacy

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"sync"
	"testing"

	"eyewnder/internal/blind"
	"eyewnder/internal/group"
	"eyewnder/internal/oprf"
	"eyewnder/internal/sketch"
)

// Shared fixtures: RSA keygen and roster setup dominate test time.
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
		fixRos, err = blind.NewRoster(group.P256(), 6, rand.Reader)
		if err != nil {
			panic(err)
		}
	})
	return fixSrv, fixRos
}

// smallParams keeps the sketch and ID space small so tests run fast while
// exercising the whole protocol.
func smallParams() Params {
	return Params{Epsilon: 0.01, Delta: 0.01, IDSpace: 5000, Suite: group.P256()}
}

// roundConfig pins params at the first config version a server
// advertises for a fresh roster, as a negotiated deployment runs.
func roundConfig(params Params, rosterSize int) RoundConfig {
	return RoundConfig{Version: 1, RosterVersion: 1, RosterSize: rosterSize, Params: params}
}

func newClients(t testing.TB, params Params) []*Client {
	srv, ros := fixtures(t)
	clients := make([]*Client, len(ros.Parties))
	for i, p := range ros.Parties {
		clients[i] = NewClient(roundConfig(params, len(ros.Parties)), p, srv.PublicKey(), srv)
	}
	return clients
}

func TestEndToEndFullParticipation(t *testing.T) {
	params := smallParams()
	clients := newClients(t, params)
	const round = 1

	// Ground truth: which users see which ads.
	ads := map[string][]int{
		"https://ads.example.com/targeted-1": {0},          // targeted: 1 user
		"https://ads.example.com/brand-1":    {0, 1, 2, 3}, // broad static
		"https://ads.example.com/brand-2":    {1, 2, 4, 5},
		"https://ads.example.com/targeted-2": {3},
	}
	ids := map[string]uint64{}
	agg, err := NewAggregator(roundConfig(params, len(clients)), round)
	if err != nil {
		t.Fatal(err)
	}
	for url, users := range ads {
		for _, u := range users {
			id, err := clients[u].ObserveAd(url)
			if err != nil {
				t.Fatal(err)
			}
			ids[url] = id
			// Repeat impressions must not inflate the user count.
			if _, err := clients[u].ObserveAd(url); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range clients {
		r, err := c.Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	final, err := agg.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	for url, users := range ads {
		got := QueryUsers(final, ids[url])
		want := uint64(len(users))
		// CMS may overestimate slightly but never underestimates.
		if got < want || got > want+2 {
			t.Errorf("#Users(%s) = %d, want ~%d", url, got, want)
		}
	}
}

func TestAdIDConsistencyAcrossClients(t *testing.T) {
	clients := newClients(t, smallParams())
	id0, err := clients[0].ObserveAd("https://ads.example.com/x")
	if err != nil {
		t.Fatal(err)
	}
	id1, err := clients[1].ObserveAd("https://ads.example.com/x")
	if err != nil {
		t.Fatal(err)
	}
	if id0 != id1 {
		t.Fatal("same URL mapped to different ad IDs for different users")
	}
}

func TestOPRFCachedPerUniqueAd(t *testing.T) {
	clients := newClients(t, smallParams())
	c := clients[0]
	start := c.OPRFExchanges
	for i := 0; i < 5; i++ {
		if _, err := c.ObserveAd("https://ads.example.com/same"); err != nil {
			t.Fatal(err)
		}
	}
	if c.OPRFExchanges != start+1 {
		t.Fatalf("OPRF exchanges = %d, want %d (mapping is once per unique ad)",
			c.OPRFExchanges, start+1)
	}
}

func TestReportClearsRound(t *testing.T) {
	clients := newClients(t, smallParams())
	c := clients[0]
	if _, err := c.ObserveAd("https://a.example/1"); err != nil {
		t.Fatal(err)
	}
	if len(c.seen) != 1 {
		t.Fatalf("%d ads seen", len(c.seen))
	}
	if _, err := c.Report(1); err != nil {
		t.Fatal(err)
	}
	if len(c.seen) != 0 {
		t.Fatal("Report did not reset the round's observations")
	}
}

func TestIndividualReportIsBlinded(t *testing.T) {
	// A single blinded report must not reveal the underlying counts: its
	// cells should look nothing like a plain sketch of the same ads.
	params := smallParams()
	clients := newClients(t, params)
	c := clients[0]
	if _, err := c.ObserveAd("https://ads.example.com/secret"); err != nil {
		t.Fatal(err)
	}
	r, err := c.Report(1)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	for _, v := range r.Sketch.FlatCells() {
		if v == 0 {
			zeros++
		}
	}
	// A plain single-ad sketch is almost all zeros; a blinded one is
	// (pseudo)uniform, so zero cells should be essentially absent.
	if frac := float64(zeros) / float64(r.Sketch.Cells()); frac > 0.01 {
		t.Fatalf("blinded report has %.1f%% zero cells; looks unblinded", 100*frac)
	}
}

func TestMissingClientsRecovery(t *testing.T) {
	params := smallParams()
	clients := newClients(t, params)
	const round = 4
	agg, err := NewAggregator(roundConfig(params, len(clients)), round)
	if err != nil {
		t.Fatal(err)
	}
	// Users 2 and 5 never report.
	absent := map[int]bool{2: true, 5: true}
	for i, c := range clients {
		url := fmt.Sprintf("https://ads.example.com/u%d", i)
		if _, err := c.ObserveAd(url); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ObserveAd("https://ads.example.com/common"); err != nil {
			t.Fatal(err)
		}
		if absent[i] {
			continue
		}
		r, err := c.Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	// Finalizing before adjustment must fail — the aggregate is noise.
	if _, err := agg.Finalize(); err != ErrNotFinalizable {
		t.Fatalf("premature Finalize err = %v", err)
	}
	missing := agg.Missing()
	if len(missing) != 2 || missing[0] != 2 || missing[1] != 5 {
		t.Fatalf("Missing = %v", missing)
	}
	cells, _ := params.NewSketch()
	var adjs [][]uint64
	for i, c := range clients {
		if absent[i] {
			continue
		}
		adj, err := c.Adjust(round, cells.Cells(), missing)
		if err != nil {
			t.Fatal(err)
		}
		adjs = append(adjs, adj)
	}
	if err := agg.ApplyAdjustments(adjs...); err != nil {
		t.Fatal(err)
	}
	final, err := agg.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	// The common ad was seen by the 4 reporters (absent users' sightings
	// are lost, which is correct).
	commonID := clients[0].idCache["https://ads.example.com/common"]
	got := QueryUsers(final, commonID)
	if got < 4 || got > 6 {
		t.Fatalf("#Users(common) = %d, want ~4", got)
	}
}

func TestAggregatorValidation(t *testing.T) {
	params := smallParams()
	clients := newClients(t, params)
	agg, err := NewAggregator(roundConfig(params, len(clients)), 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agg.Finalize(); err != ErrNoReports {
		t.Fatalf("empty Finalize err = %v", err)
	}
	r, err := clients[0].Report(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(r); err != nil {
		t.Fatal(err)
	}
	dup, err := clients[0].Report(9)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(dup); err != ErrDuplicate {
		t.Fatalf("duplicate err = %v", err)
	}
	wrongRound, err := clients[1].Report(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(wrongRound); err != ErrRoundMismatch {
		t.Fatalf("round mismatch err = %v", err)
	}
	bad := &Report{User: 99, Round: 9, Sketch: r.Sketch}
	if err := agg.Add(bad); err == nil {
		t.Fatal("out-of-roster user accepted")
	}
	if len(agg.reported) != 1 {
		t.Fatalf("%d reported", len(agg.reported))
	}
}

// A report blinded under a different keystream suite than the round's
// must be rejected: its pairwise terms would not cancel, and the
// corruption would otherwise be silent (the cells look uniformly random
// either way).
func TestAggregatorRejectsKeystreamMismatch(t *testing.T) {
	params := smallParams()
	clients := newClients(t, params)
	agg, err := NewAggregator(roundConfig(params, len(clients)), 3)
	if err != nil {
		t.Fatal(err)
	}
	r, err := clients[0].Report(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.Keystream != params.Keystream {
		t.Fatalf("client stamped suite %v, params say %v", r.Keystream, params.Keystream)
	}
	mismatched := *r
	mismatched.Keystream = blind.KeystreamAESCTR
	if err := agg.Add(&mismatched); err != ErrKeystreamMismatch {
		t.Fatalf("mismatched suite err = %v", err)
	}
	// The streamed path enforces the same invariant.
	cms := r.Sketch
	err = agg.AddCells(r.User, cms.Depth(), cms.Width(), cms.N(), cms.Seed(),
		blind.KeystreamAESCTR, r.ConfigVersion, cms.FlatCells())
	if err != ErrKeystreamMismatch {
		t.Fatalf("mismatched streamed suite err = %v", err)
	}
	// The matching suite is accepted.
	if err := agg.Add(r); err != nil {
		t.Fatal(err)
	}
}

// An AES-CTR deployment must work end to end: params carry the suite,
// clients blind under it, the aggregator accepts it, and the aggregate
// unblinds to the same counts.
func TestEndToEndAESCTRSuite(t *testing.T) {
	params := smallParams()
	params.Keystream = blind.KeystreamAESCTR
	srv, _ := fixtures(t)
	roster, err := blind.NewRosterKeystream(group.P256(), 4, rand.Reader, blind.KeystreamAESCTR)
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, len(roster.Parties))
	for i, p := range roster.Parties {
		clients[i] = NewClient(roundConfig(params, len(roster.Parties)), p, srv.PublicKey(), srv)
	}
	const round = 2
	agg, err := NewAggregator(roundConfig(params, len(clients)), round)
	if err != nil {
		t.Fatal(err)
	}
	adURL := "https://ads.example.com/aes-suite"
	var wantID uint64
	for _, c := range clients {
		id, err := c.ObserveAd(adURL)
		if err != nil {
			t.Fatal(err)
		}
		wantID = id
		r, err := c.Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if r.Keystream != blind.KeystreamAESCTR {
			t.Fatalf("report suite = %v", r.Keystream)
		}
		if err := agg.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	final, err := agg.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if got := QueryUsers(final, wantID); got < uint64(len(clients)) {
		t.Fatalf("unblinded #Users = %d, want >= %d", got, len(clients))
	}
}

func TestUserCountsEnumeration(t *testing.T) {
	params := smallParams()
	clients := newClients(t, params)
	const round = 12
	agg, _ := NewAggregator(roundConfig(params, len(clients)), round)
	urls := []string{"https://a.example/1", "https://a.example/2"}
	for _, c := range clients[:3] {
		for _, u := range urls {
			if _, err := c.ObserveAd(u); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range clients[3:] {
		// These clients saw nothing; they still report (empty sketches).
		_ = c
	}
	for _, c := range clients {
		r, err := c.Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := agg.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	final, err := agg.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	counts := UserCounts(final, params)
	// Both ads should appear with count ~3; sketch collisions may add a
	// few phantom IDs with small counts but the bulk must be the 2 ads.
	found := 0
	for _, u := range urls {
		id := clients[0].idCache[u]
		if c, ok := counts[id]; ok && c >= 3 {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("enumeration found %d/2 ads; counts=%v", found, counts)
	}
}

// countSketch builds a paper-geometry sketch holding the given ad IDs
// (each seen by id%5+1 users): a handful leaves it near-empty, tens of
// thousands leave no empty column and every ID in the space non-zero.
func countSketch(t testing.TB, params Params, ids int) *sketch.CMS {
	t.Helper()
	cms, err := params.NewSketch()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ids; i++ {
		id := uint64(i) * 2654435761 % params.IDSpace
		cms.UpdateWeighted(idBytes(id), id%5+1)
	}
	return cms
}

// CountTable is the old enumeration: table[id] is QueryUsers for every
// ID in the space, distinct counts the non-zero entries, and UserCounts
// is exactly those entries as a map — on a saturated sketch and on a
// near-empty one, whatever the worker split.
func TestCountTableMatchesQueryUsers(t *testing.T) {
	params := DefaultParams()
	params.IDSpace = 30011 // not a multiple of the shard size
	for _, tc := range []struct {
		name string
		ids  int
	}{{"saturated", 60000}, {"near-empty", 12}, {"empty", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			cms := countSketch(t, params, tc.ids)
			table, distinct := CountTable(cms, params)
			if uint64(len(table)) != params.IDSpace {
				t.Fatalf("table has %d entries, ID space is %d", len(table), params.IDSpace)
			}
			nonzero := 0
			for id, v := range table {
				if want := QueryUsers(cms, uint64(id)); v != want {
					t.Fatalf("table[%d] = %d, QueryUsers = %d", id, v, want)
				}
				if v > 0 {
					nonzero++
				}
			}
			if distinct != nonzero {
				t.Fatalf("distinct = %d, table holds %d non-zero entries", distinct, nonzero)
			}
			if tc.name == "saturated" && distinct != len(table) {
				t.Fatalf("saturated sketch left %d of %d IDs at zero", len(table)-distinct, len(table))
			}
			counts := UserCounts(cms, params)
			if len(counts) != distinct {
				t.Fatalf("UserCounts holds %d entries, distinct = %d", len(counts), distinct)
			}
			for id, v := range counts {
				if v == 0 || table[id] != v {
					t.Fatalf("UserCounts[%d] = %d, table says %d", id, v, table[id])
				}
			}
		})
	}
}

func TestCheckIDSpace(t *testing.T) {
	for _, ok := range []uint64{1, 100000, MaxIDSpace} {
		if err := CheckIDSpace(ok); err != nil {
			t.Errorf("CheckIDSpace(%d) = %v", ok, err)
		}
	}
	for _, bad := range []uint64{0, MaxIDSpace + 1, 1 << 40, ^uint64(0)} {
		if err := CheckIDSpace(bad); !errors.Is(err, ErrBadIDSpace) {
			t.Errorf("CheckIDSpace(%d) = %v, want ErrBadIDSpace", bad, err)
		}
	}
}

// CountTable allocates its table and the worker split's bookkeeping.
// The ceiling is the count measured when it was set, at the paper's
// geometry and |A| (AllocsPerRun pins GOMAXPROCS to 1, so this is the
// serial split). It only forbids growth.
func TestCountTableAllocCeiling(t *testing.T) {
	params := DefaultParams()
	cms := countSketch(t, params, 200000)
	const ceiling = 4
	if allocs := testing.AllocsPerRun(20, func() { CountTable(cms, params) }); allocs > ceiling {
		t.Fatalf("CountTable allocates %v times, ceiling %d", allocs, ceiling)
	}
}

// BenchmarkCountTable is the close path's extraction at the paper's
// scale: saturated paper-geometry sketch, |A| = 100k.
func BenchmarkCountTable(b *testing.B) {
	params := DefaultParams()
	cms := countSketch(b, params, 200000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CountTable(cms, params)
	}
}

func TestOverheadAccounting(t *testing.T) {
	params := DefaultParams()
	cms, err := params.NewSketch()
	if err != nil {
		t.Fatal(err)
	}
	// Section 7.1: with ε = δ = 0.001 and 4-byte cells the sketch is in
	// the ~200 KB regime and dwarfs the ~3.5 KB cleartext report of the
	// average user (35 ads × 100-char URLs).
	sketchKB := float64(cms.SizeBytes(4)) / 1024
	if sketchKB < 50 || sketchKB > 300 {
		t.Fatalf("sketch = %.0f KB, outside paper regime", sketchKB)
	}
	clear := CleartextReportBytes(35, 100)
	if clear != 3500 {
		t.Fatalf("cleartext = %d B", clear)
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.Epsilon != 0.001 || p.Delta != 0.001 || p.IDSpace != 100000 {
		t.Fatalf("DefaultParams = %+v", p)
	}
	if p.Suite.Name() != "P256" {
		t.Fatalf("suite = %s", p.Suite.Name())
	}
}

func TestAdIDStableAndInRange(t *testing.T) {
	p := smallParams()
	out := make([]byte, 32)
	for i := range out {
		out[i] = byte(i * 7)
	}
	id := p.AdID(out)
	if id >= p.IDSpace {
		t.Fatalf("AdID %d outside space %d", id, p.IDSpace)
	}
	if id != p.AdID(out) {
		t.Fatal("AdID not deterministic")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("short OPRF output did not panic")
		}
	}()
	p.AdID([]byte{1, 2})
}
