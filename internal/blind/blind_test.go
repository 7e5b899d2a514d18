package blind

import (
	"bytes"
	"crypto/rand"
	"errors"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"eyewnder/internal/group"
	"eyewnder/internal/vec"
)

func makeRoster(t testing.TB, n int) *Roster {
	t.Helper()
	r, err := NewRoster(group.P256(), n, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBlindingsSumToZero(t *testing.T) {
	for _, n := range []int{2, 3, 5, 10} {
		r := makeRoster(t, n)
		const cells = 37
		const round = 7
		sum := make([]uint64, cells)
		for _, p := range r.Parties {
			b := p.Blinding(round, cells)
			for m := range sum {
				sum[m] += b[m]
			}
		}
		for m, v := range sum {
			if v != 0 {
				t.Fatalf("n=%d: cell %d residue %d", n, m, v)
			}
		}
	}
}

func TestBlindingsDifferAcrossRounds(t *testing.T) {
	r := makeRoster(t, 3)
	p := r.Parties[0]
	b1 := p.Blinding(1, 16)
	b2 := p.Blinding(2, 16)
	same := 0
	for i := range b1 {
		if b1[i] == b2[i] {
			same++
		}
	}
	if same == len(b1) {
		t.Fatal("blindings identical across rounds")
	}
}

func TestBlindingDeterministicPerRound(t *testing.T) {
	r := makeRoster(t, 4)
	p := r.Parties[2]
	a := p.Blinding(9, 8)
	b := p.Blinding(9, 8)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("blinding not deterministic for fixed round")
		}
	}
}

func TestBlindedAggregateRecoversSum(t *testing.T) {
	// Full protocol sanity: blind per-user cell vectors, aggregate, verify
	// the plain sum is recovered.
	r := makeRoster(t, 5)
	const cells = 10
	const round = 3
	plainSum := make([]uint64, cells)
	agg := make([]uint64, cells)
	for ui, p := range r.Parties {
		data := make([]uint64, cells)
		for m := range data {
			data[m] = uint64(ui*100 + m)
			plainSum[m] += data[m]
		}
		if err := ApplyBlinding(data, p.Blinding(round, cells)); err != nil {
			t.Fatal(err)
		}
		for m := range agg {
			agg[m] += data[m]
		}
	}
	for m := range agg {
		if agg[m] != plainSum[m] {
			t.Fatalf("cell %d: aggregate %d != plain %d", m, agg[m], plainSum[m])
		}
	}
}

func TestFaultToleranceRestoresCancellation(t *testing.T) {
	// Users 1 and 3 fail to report. The remaining users' adjustments must
	// cancel the residue exactly.
	r := makeRoster(t, 6)
	const cells = 12
	const round = 11
	missing := []int{1, 3}
	isMissing := map[int]bool{1: true, 3: true}

	plainSum := make([]uint64, cells)
	agg := make([]uint64, cells)
	var adjustments [][]uint64
	for ui, p := range r.Parties {
		if isMissing[ui] {
			continue
		}
		data := make([]uint64, cells)
		for m := range data {
			data[m] = uint64(ui + m)
			plainSum[m] += data[m]
		}
		if err := ApplyBlinding(data, p.Blinding(round, cells)); err != nil {
			t.Fatal(err)
		}
		for m := range agg {
			agg[m] += data[m]
		}
		adj, err := p.Adjustment(round, cells, missing)
		if err != nil {
			t.Fatal(err)
		}
		adjustments = append(adjustments, adj)
	}

	// Before adjustment the aggregate is (with overwhelming probability)
	// polluted by the missing users' pairwise terms.
	polluted := false
	for m := range agg {
		if agg[m] != plainSum[m] {
			polluted = true
		}
	}
	if !polluted {
		t.Fatal("aggregate unexpectedly clean before adjustment")
	}

	if err := SubtractAdjustments(agg, adjustments...); err != nil {
		t.Fatal(err)
	}
	for m := range agg {
		if agg[m] != plainSum[m] {
			t.Fatalf("cell %d after adjustment: %d != %d", m, agg[m], plainSum[m])
		}
	}
}

func TestFaultTolerancePropertyAnySubset(t *testing.T) {
	// Property: for a 5-user roster and ANY proper nonempty missing subset,
	// the two-round protocol recovers the exact plain sum.
	r := makeRoster(t, 5)
	const cells = 6
	f := func(mask uint8, round uint16) bool {
		mask &= 0x1F
		if mask == 0 || mask == 0x1F {
			return true // need at least one reporter and one absentee
		}
		var missing []int
		isMissing := map[int]bool{}
		for i := 0; i < 5; i++ {
			if mask&(1<<i) != 0 {
				missing = append(missing, i)
				isMissing[i] = true
			}
		}
		plainSum := make([]uint64, cells)
		agg := make([]uint64, cells)
		var adjustments [][]uint64
		for ui, p := range r.Parties {
			if isMissing[ui] {
				continue
			}
			data := make([]uint64, cells)
			for m := range data {
				data[m] = uint64(ui*7 + m)
				plainSum[m] += data[m]
			}
			if err := ApplyBlinding(data, p.Blinding(uint64(round), cells)); err != nil {
				return false
			}
			for m := range agg {
				agg[m] += data[m]
			}
			adj, err := p.Adjustment(uint64(round), cells, missing)
			if err != nil {
				return false
			}
			adjustments = append(adjustments, adj)
		}
		if err := SubtractAdjustments(agg, adjustments...); err != nil {
			return false
		}
		for m := range agg {
			if agg[m] != plainSum[m] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 64}); err != nil {
		t.Fatal(err)
	}
}

func TestAdjustmentValidation(t *testing.T) {
	r := makeRoster(t, 3)
	p := r.Parties[1]
	if _, err := p.Adjustment(1, 4, []int{5}); err != ErrUnknownUser {
		t.Fatalf("out-of-range err = %v", err)
	}
	if _, err := p.Adjustment(1, 4, []int{1}); err == nil {
		t.Fatal("self-adjustment accepted")
	}
	// Duplicates are tolerated and counted once.
	a, err := p.Adjustment(1, 4, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Adjustment(1, 4, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("duplicate missing entries double-counted")
		}
	}
}

func TestNewPartyValidation(t *testing.T) {
	s := group.P256()
	k1, _ := s.GenerateKey(rand.Reader)
	k2, _ := s.GenerateKey(rand.Reader)
	roster := [][]byte{k1.PublicKey(), k2.PublicKey()}
	if _, err := NewPartyKeystream(k1, roster[:1], 0, KeystreamHMACSHA256); err != ErrRosterTooSmall {
		t.Fatalf("small roster err = %v", err)
	}
	if _, err := NewPartyKeystream(k1, roster, 5, KeystreamHMACSHA256); err != ErrUnknownUser {
		t.Fatalf("bad index err = %v", err)
	}
	if _, err := NewPartyKeystream(k1, roster, 1, KeystreamHMACSHA256); err != ErrNotInRoster {
		t.Fatalf("wrong slot err = %v", err)
	}
	p, err := NewPartyKeystream(k1, roster, 0, KeystreamHMACSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if p.Index() != 0 || p.RosterSize() != 2 {
		t.Fatalf("party metadata: %d/%d", p.Index(), p.RosterSize())
	}
}

// rosterKeys generates n key pairs under the suite and returns the
// private keys with the bulletin board of their public keys.
func rosterKeys(t testing.TB, s group.Suite, n int) ([]group.PrivateKey, [][]byte) {
	t.Helper()
	privs := make([]group.PrivateKey, n)
	pubs := make([][]byte, n)
	for i := range privs {
		k, err := s.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		privs[i], pubs[i] = k, k.PublicKey()
	}
	return privs, pubs
}

// The key agreements fan out over cores; a party built on one core and
// one built on four must hold the same keys in the same peer order and
// so blind identically.
func TestNewPartyParallelMatchesSerial(t *testing.T) {
	const n, index = 40, 17
	privs, pubs := rosterKeys(t, group.P256(), n)
	for _, ks := range []Keystream{KeystreamHMACSHA256, KeystreamAESCTR} {
		build := func(procs int) *Party {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			p, err := NewPartyKeystream(privs[index], pubs, index, ks)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		serial, parallel := build(1), build(4)
		for j := range serial.pairKeys {
			if !bytes.Equal(serial.pairKeys[j], parallel.pairKeys[j]) {
				t.Fatalf("%v: pair key %d differs", ks, j)
			}
		}
		if len(serial.peers) != n-1 || len(parallel.peers) != n-1 {
			t.Fatalf("%v: %d and %d peers, want %d", ks, len(serial.peers), len(parallel.peers), n-1)
		}
		for i := range serial.peers {
			if serial.peers[i] != parallel.peers[i] {
				t.Fatalf("%v: peer order differs at %d", ks, i)
			}
		}
		a, b := serial.Blinding(7, 5000), parallel.Blinding(7, 5000)
		for m := range a {
			if a[m] != b[m] {
				t.Fatalf("%v: blinding differs at cell %d", ks, m)
			}
		}
	}
}

// With several malformed roster keys the error names the lowest index,
// whichever worker reached its key first.
func TestNewPartyReportsFirstBadKey(t *testing.T) {
	privs, pubs := rosterKeys(t, group.P256(), 48)
	pubs[40] = []byte{1, 2, 3}
	pubs[9] = []byte{4, 5, 6}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, err := NewPartyKeystream(privs[0], pubs, 0, KeystreamHMACSHA256)
	if !errors.Is(err, group.ErrBadPublicKey) {
		t.Fatalf("err = %v, want ErrBadPublicKey", err)
	}
	if !strings.HasPrefix(err.Error(), "blind: deriving pair key with user 9: ") {
		t.Fatalf("err = %q, want it to name user 9", err)
	}
}

// testSuite wraps P-256 for the roster tests: every key it generates
// counts its SharedSecret calls, the keys are kept for the test to
// rebuild parties from, and the users listed in bad publish a malformed
// public key.
type testSuite struct {
	group.Suite
	calls atomic.Int64
	keys  []group.PrivateKey
	bad   map[int]bool
}

func newTestSuite(bad ...int) *testSuite {
	s := &testSuite{Suite: group.P256(), bad: map[int]bool{}}
	for _, u := range bad {
		s.bad[u] = true
	}
	return s
}

func (s *testSuite) GenerateKey(rng io.Reader) (group.PrivateKey, error) {
	k, err := s.Suite.GenerateKey(rng)
	if err != nil {
		return nil, err
	}
	tk := &testKey{PrivateKey: k, calls: &s.calls, bad: s.bad[len(s.keys)]}
	s.keys = append(s.keys, tk)
	return tk, nil
}

type testKey struct {
	group.PrivateKey
	calls *atomic.Int64
	bad   bool
}

func (k *testKey) PublicKey() []byte {
	if k.bad {
		return []byte{1, 2, 3}
	}
	return k.PrivateKey.PublicKey()
}

func (k *testKey) SharedSecret(peerPublic []byte) ([]byte, error) {
	k.calls.Add(1)
	return k.PrivateKey.SharedSecret(peerPublic)
}

// A roster derives each k_ij = k_ji once: n(n−1)/2 key agreements, not
// one per holder.
func TestNewRosterDerivesEachPairOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, n := range []int{2, 3, 13, 40} {
		s := newTestSuite()
		if _, err := NewRosterKeystream(s, n, rand.Reader, KeystreamAESCTR); err != nil {
			t.Fatal(err)
		}
		if got, want := s.calls.Load(), int64(n*(n-1)/2); got != want {
			t.Errorf("n=%d: %d key agreements, want %d", n, got, want)
		}
	}
}

// Each roster party holds exactly the keys and peer list that
// NewPartyKeystream derives from the same key pair, and the two holders
// of a pair share one slice.
func TestNewRosterMatchesNewParty(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const n = 23
	for _, ks := range []Keystream{KeystreamHMACSHA256, KeystreamAESCTR} {
		s := newTestSuite()
		r, err := NewRosterKeystream(s, n, rand.Reader, ks)
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range r.Parties {
			want, err := NewPartyKeystream(s.keys[i], r.Publics, i, ks)
			if err != nil {
				t.Fatal(err)
			}
			if got.Index() != i || got.RosterSize() != n || got.Keystream() != ks {
				t.Fatalf("%v party %d: index %d, size %d, suite %v", ks, i, got.Index(), got.RosterSize(), got.Keystream())
			}
			if len(got.pairKeys) != n {
				t.Fatalf("%v party %d: %d pair keys, want %d", ks, i, len(got.pairKeys), n)
			}
			for j := range want.pairKeys {
				if !bytes.Equal(got.pairKeys[j], want.pairKeys[j]) || (got.pairKeys[j] == nil) != (j == i) {
					t.Fatalf("%v party %d: pair key %d differs", ks, i, j)
				}
				if j != i && &got.pairKeys[j][0] != &r.Parties[j].pairKeys[i][0] {
					t.Fatalf("%v: parties %d and %d hold separate copies of their key", ks, i, j)
				}
			}
			if !slices.Equal(got.peers, want.peers) {
				t.Fatalf("%v party %d: peers %v, want %v", ks, i, got.peers, want.peers)
			}
		}
	}
}

// A roster with a bad public key fails with the error of the lowest
// pair, wrapped as NewPartyKeystream wraps its own.
func TestNewRosterReportsFirstBadPair(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	_, err := NewRosterKeystream(newTestSuite(7, 30), 32, rand.Reader, KeystreamHMACSHA256)
	if !errors.Is(err, group.ErrBadPublicKey) {
		t.Fatalf("err = %v, want ErrBadPublicKey", err)
	}
	// Pair (0, 7) is the first whose agreement parses key 7.
	if !strings.HasPrefix(err.Error(), "blind: deriving pair key with user 7: ") {
		t.Fatalf("err = %q, want it to name user 7", err)
	}
}

// Parties i and j read one shared k_ij slice; blinding them at the same
// time (under -race in CI) must give the vectors they give one by one.
func TestRosterPartiesBlindConcurrently(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const cells = 19033
	for _, ks := range []Keystream{KeystreamHMACSHA256, KeystreamAESCTR} {
		r, err := NewRosterKeystream(group.P256(), 4, rand.Reader, ks)
		if err != nil {
			t.Fatal(err)
		}
		serial := make([][]uint64, len(r.Parties))
		for i, p := range r.Parties {
			serial[i] = p.Blinding(5, cells)
		}
		concurrent := make([][]uint64, len(r.Parties))
		var wg sync.WaitGroup
		for i, p := range r.Parties {
			wg.Add(1)
			go func() {
				defer wg.Done()
				concurrent[i] = p.Blinding(5, cells)
			}()
		}
		wg.Wait()
		for i := range serial {
			if !slices.Equal(serial[i], concurrent[i]) {
				t.Fatalf("%v party %d: blinding differs when run concurrently", ks, i)
			}
		}
	}
}

// refPeerTerm is peer j's signed term in party p's vectors over cells
// [0, cells), computed factor by factor from the suites' spec
// references.
func refPeerTerm(t *testing.T, p *Party, j int, round uint64, cells int) []uint64 {
	out := make([]uint64, cells)
	for m := range out {
		var f uint64
		if p.ks == KeystreamAESCTR {
			f = refAESFactor(t, p.pairKeys[j], round, m)
		} else {
			f = refFactor(p.pairKeys[j], round, m)
		}
		if p.index > j {
			out[m] = f
		} else {
			out[m] = -f
		}
	}
	return out
}

// Striping cells across workers must reproduce the serial per-peer fold
// exactly, at stripe and AES-refill boundaries and at the sketch sizes
// the deployment runs. Past one stripe the party has enough peers that
// both vectors take the striped path at GOMAXPROCS 4; a vector of one
// stripe runs on one worker whichever path it takes.
func TestStripedBlindingMatchesReference(t *testing.T) {
	const round = 31
	for _, ks := range []Keystream{KeystreamHMACSHA256, KeystreamAESCTR} {
		for _, cells := range []int{1, 63, 64, 65, 511, 512, 513, 1360, 4097, 19033} {
			n := 4
			if cells > stripeCells {
				// n−2 missing peers must still reach parallelWork.
				n = max(n, (parallelWork+cells-1)/cells+2)
			}
			pairKeys := make([][]byte, n)
			for j := range pairKeys {
				pairKeys[j] = make([]byte, 32)
				rand.Read(pairKeys[j])
			}
			index := n / 2
			pairKeys[index] = nil
			p := newParty(index, pairKeys, ks)

			wantBlind := make([]uint64, cells)
			wantAdj := make([]uint64, cells)
			// Every peer but one is missing, listed in descending order.
			var missing []int
			for k := len(p.peers) - 1; k >= 0; k-- {
				j := p.peers[k]
				term := refPeerTerm(t, p, j, round, cells)
				vec.Add(wantBlind, term)
				if k != 0 {
					vec.Add(wantAdj, term)
					missing = append(missing, j)
				}
			}
			for _, procs := range []int{1, 4} {
				func() {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					if got := p.Blinding(round, cells); !slices.Equal(got, wantBlind) {
						t.Fatalf("%v cells=%d procs=%d: blinding differs from the reference", ks, cells, procs)
					}
					got, err := p.Adjustment(round, cells, missing)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(got, wantAdj) {
						t.Fatalf("%v cells=%d procs=%d: adjustment differs from the reference", ks, cells, procs)
					}
				}()
			}
		}
	}
}

// Striped workers fill the output in place: a parallel blinding
// allocates its output vector and per-worker keystream state, never a
// scratch vector per worker. (AllocsPerRun pins GOMAXPROCS to 1, so
// TestBlindingAllocCeiling cannot see the parallel path.)
func TestParallelBlindingAllocBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	r, err := NewRosterKeystream(group.P256(), 16, rand.Reader, KeystreamAESCTR)
	if err != nil {
		t.Fatal(err)
	}
	const cells, runs = 19033, 20
	p := r.Parties[0]
	p.Blinding(0, cells)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 1; i <= runs; i++ {
		p.Blinding(uint64(i), cells)
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if ceiling := uint64(8*cells + 64<<10); perRun > ceiling {
		t.Errorf("parallel blinding of %d cells allocates %d B per run, ceiling %d", cells, perRun, ceiling)
	}
}

func TestNewRosterValidation(t *testing.T) {
	if _, err := NewRoster(group.P256(), 1, rand.Reader); err != ErrRosterTooSmall {
		t.Fatalf("err = %v", err)
	}
}

func TestApplySubtractLengthChecks(t *testing.T) {
	if err := ApplyBlinding(make([]uint64, 3), make([]uint64, 4)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if err := SubtractAdjustments(make([]uint64, 3), make([]uint64, 4)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestTrafficBytes(t *testing.T) {
	// Section 7.1: the paper reports 0.38 MB for 10k users. With ~33-65B
	// EC keys we land in the same order of magnitude. Just verify linear
	// scaling here.
	a := TrafficBytes(group.P256(), 10000)
	b := TrafficBytes(group.P256(), 50000)
	if b != 5*a {
		t.Fatalf("traffic not linear: %d vs %d", a, b)
	}
}

func TestMissingSet(t *testing.T) {
	got := MissingSet([]int{3, 1, 3, 2, 1})
	want := []int{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("MissingSet = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MissingSet = %v", got)
		}
	}
}

// A blinding vector allocates its output plus each peer's keystream
// keying. The ceilings are the counts measured when they were set, for
// a 16-user roster and 5k cells (AllocsPerRun pins GOMAXPROCS to 1, so
// this is the serial path). They only forbid growth.
func TestBlindingAllocCeiling(t *testing.T) {
	defer vec.ForceGeneric(false)
	for _, tc := range []struct {
		ks      Keystream
		ceiling float64
	}{
		{KeystreamHMACSHA256, 109},
		{KeystreamAESCTR, 49},
	} {
		if raceEnabled && tc.ks == KeystreamHMACSHA256 {
			continue // the race build's hmac keying allocates more
		}
		r, err := NewRosterKeystream(group.P256(), 16, rand.Reader, tc.ks)
		if err != nil {
			t.Fatal(err)
		}
		for _, generic := range []bool{false, true} {
			vec.ForceGeneric(generic)
			allocs := testing.AllocsPerRun(20, func() { r.Parties[0].Blinding(7, 5000) })
			if allocs > tc.ceiling {
				t.Errorf("%v blinding (generic=%v) allocates %v times, ceiling %v", tc.ks, generic, allocs, tc.ceiling)
			}
		}
	}
}

// BenchmarkBlindingVector5kCells is the HMAC-SHA256 suite's blinding
// for a 16-user roster, the same geometry as
// BenchmarkBlindingVector5kCellsAESCTR: the pair is the suites' gap.
func BenchmarkBlindingVector5kCells(b *testing.B) {
	r := makeRoster(b, 16)
	p := r.Parties[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Blinding(uint64(i), 5000)
	}
}

// BenchmarkNewParty96 is one party's key agreement against a 96-user
// P-256 roster: 95 ECDHs, fanned out over cores.
func BenchmarkNewParty96(b *testing.B) {
	privs, pubs := rosterKeys(b, group.P256(), 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewPartyKeystream(privs[0], pubs, 0, KeystreamHMACSHA256); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewRoster96 builds a 96-user P-256 roster under the AES-CTR
// suite: 4 560 key agreements, fanned out over cores.
func BenchmarkNewRoster96(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := NewRosterKeystream(group.P256(), 96, rand.Reader, KeystreamAESCTR); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdjustment24of96 is one reporter's adjustment share for 24
// missing users of a 96-user AES-CTR roster over the paper-geometry
// sketch (19 033 cells), striped across cores.
func BenchmarkAdjustment24of96(b *testing.B) {
	privs, pubs := rosterKeys(b, group.P256(), 96)
	p, err := NewPartyKeystream(privs[0], pubs, 0, KeystreamAESCTR)
	if err != nil {
		b.Fatal(err)
	}
	missing := make([]int, 24)
	for k := range missing {
		missing[k] = 1 + 4*k
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Adjustment(uint64(i), 19033, missing); err != nil {
			b.Fatal(err)
		}
	}
}
