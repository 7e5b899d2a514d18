// Package blind implements the additive-random-shares-of-zero blinding of
// Kursawe, Danezis and Kohlweiss that eyeWnder uses to hide individual
// count-min-sketch reports from the back-end server (Section 6, "Blinding
// factors").
//
// Every user i holds a Diffie–Hellman key pair; the public keys are on a
// bulletin board. For reporting round s, user i blinds cell m with
//
//	b_i[m] = Σ_{j≠i} PRF(k_ij, s, m) · (−1)^{i<j}   (mod 2⁶⁴)
//
// where k_ij is the pairwise DH secret (k_ij = k_ji). Because each pair
// contributes the same pseudo-random value once positively and once
// negatively, Σ_i b_i[m] ≡ 0 for every cell, so the server recovers the
// exact aggregate while each individual report is uniformly random.
//
// The PRF is expanded in counter mode under one of two suites (see the
// Keystream type): HMAC-SHA256 (suite 0x00, four factors per invocation)
// or AES-256-CTR (suite 0x01, 64 factors per AES-NI-pipelined 512-byte
// refill). The independent pairwise streams are fanned out across CPU
// cores, and so are the n−1 key agreements that derive their keys. The
// suite is protocol state — reports carry the byte and the aggregator
// rejects mixed-suite rounds.
//
// Fault tolerance (Section 6, "Fault-tolerance"): if a subset of users
// fails to report, the residual noise in the aggregate is exactly the sum
// of the pairwise terms between reporters and non-reporters. In a second
// round the server publishes the missing-user list and each reporter
// returns its adjustment share Adjustment(missing); subtracting those
// shares restores perfect cancellation. This mirrors the 2-round recovery
// of Melis et al. [41] that the paper adopts.
//
// All cell arithmetic is uint64 with natural wrap-around, matching the
// sketch package.
package blind

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"eyewnder/internal/group"
	"eyewnder/internal/vec"
)

// Errors returned by the package.
var (
	ErrRosterTooSmall = errors.New("blind: roster needs at least 2 users")
	ErrNotInRoster    = errors.New("blind: own public key not in roster")
	ErrUnknownUser    = errors.New("blind: user index out of range")
	ErrUnknownSuite   = errors.New("blind: unknown keystream suite")
)

// Keystream is the suite byte selecting how pairwise keys expand into
// per-cell blinding factors. The suite is part of the protocol: every
// party in a round must run the same one or the pairwise terms would not
// cancel, so reports carry the byte on the wire and the aggregator
// rejects mismatches. The zero value is the original HMAC expansion, so
// old reports (which never carried a suite byte) still verify.
type Keystream byte

const (
	// KeystreamHMACSHA256 (suite byte 0x00) is counter-mode HMAC-SHA256:
	// four 64-bit factors per PRF invocation. The original expansion.
	KeystreamHMACSHA256 Keystream = 0x00
	// KeystreamAESCTR (suite byte 0x01) is AES-256-CTR over a
	// domain-separated key: 64 factors per 512-byte refill, and the
	// bulk keystream generation rides AES-NI.
	KeystreamAESCTR Keystream = 0x01
)

// Valid reports whether the suite byte names a known expansion.
func (k Keystream) Valid() bool {
	return k == KeystreamHMACSHA256 || k == KeystreamAESCTR
}

// String names the suite as accepted by KeystreamByName.
func (k Keystream) String() string {
	switch k {
	case KeystreamHMACSHA256:
		return "hmac-sha256"
	case KeystreamAESCTR:
		return "aes-ctr"
	}
	return fmt.Sprintf("unknown(0x%02x)", byte(k))
}

// KeystreamByName resolves a flag-friendly suite name.
func KeystreamByName(name string) (Keystream, error) {
	switch name {
	case "hmac-sha256", "hmac":
		return KeystreamHMACSHA256, nil
	case "aes-ctr", "aesctr", "aes":
		return KeystreamAESCTR, nil
	}
	return 0, fmt.Errorf("%w: %q", ErrUnknownSuite, name)
}

// Party is one user's view of the blinding protocol: its own secret key
// plus the derived pairwise secrets with every other roster member.
type Party struct {
	index    int      // own position in the roster
	pairKeys [][]byte // pairKeys[j] = k_ij (nil for j == index)
	peers    []int    // every roster index except our own
	n        int
	ks       Keystream // factor expansion suite (must match roster-wide)

	// derivedCache memoizes per-campaign derived parties (campaign.go).
	derivedCache
}

// NewPartyKeystream derives the pairwise secrets between the holder of
// priv (whose public key must appear at position `index` in roster) and
// every other roster member, expanding them under the keystream suite
// ks. Roster order must be identical across all parties — it is the
// bulletin board. Every party in a deployment must use the same suite:
// the pairwise terms only cancel when both sides of each pair expand
// the same stream.
func NewPartyKeystream(priv group.PrivateKey, roster [][]byte, index int, ks Keystream) (*Party, error) {
	if !ks.Valid() {
		return nil, fmt.Errorf("%w: 0x%02x", ErrUnknownSuite, byte(ks))
	}
	n := len(roster)
	if n < 2 {
		return nil, ErrRosterTooSmall
	}
	if index < 0 || index >= n {
		return nil, ErrUnknownUser
	}
	own := priv.PublicKey()
	if !bytesEqual(own, roster[index]) {
		return nil, ErrNotInRoster
	}
	p := &Party{index: index, n: n, pairKeys: make([][]byte, n), peers: make([]int, 0, n-1), ks: ks}
	// The key agreements are independent: each worker fills only its own
	// pairKeys[j] and errs[j] slots, and the ascending walk after the join
	// reports the lowest-index bad key, as a serial loop would.
	errs := make([]error, n)
	vec.Parallel(n, minPeersPerWorker, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			if j != index {
				p.pairKeys[j], errs[j] = priv.SharedSecret(roster[j])
			}
		}
	})
	for j := range roster {
		if j == index {
			continue
		}
		if errs[j] != nil {
			return nil, fmt.Errorf("blind: deriving pair key with user %d: %w", j, errs[j])
		}
		p.peers = append(p.peers, j)
	}
	return p, nil
}

// minPeersPerWorker bounds how finely NewPartyKeystream splits its key
// agreements across workers. One P-256 ECDH costs about 70 µs, so eight
// of them dwarf the cost of starting a goroutine.
const minPeersPerWorker = 8

// Index returns the party's roster position.
func (p *Party) Index() int { return p.index }

// Keystream returns the party's factor-expansion suite.
func (p *Party) Keystream() Keystream { return p.ks }

// RosterSize returns the number of users in the roster.
func (p *Party) RosterSize() int { return p.n }

// parallelWork is the peer-count × cell-count product above which
// accumulate fans out across workers. Below it the per-worker scratch
// vectors and reduction cost more than the HMAC work they spread out.
const parallelWork = 1 << 15

// accumulate folds the signed keystreams of the given peers into out:
// out[m] += Σ_j ±PRF(k_ij, round, m), with +1 when p.index > j and −1
// otherwise. Pairs are independent, so they are sharded across workers
// via vec.Parallel, each accumulating into a private vector that is then
// reduced into out.
func (p *Party) accumulate(out []uint64, round uint64, peers []int) {
	if len(peers)*len(out) < parallelWork {
		p.accumulateSerial(out, round, peers)
		return
	}
	var mu sync.Mutex
	vec.Parallel(len(peers), 1, func(lo, hi int) {
		if lo == 0 && hi == len(peers) {
			// Single worker (e.g. GOMAXPROCS=1): skip the scratch copy.
			p.accumulateSerial(out, round, peers)
			return
		}
		local := make([]uint64, len(out))
		p.accumulateSerial(local, round, peers[lo:hi])
		mu.Lock()
		vec.Add(out, local)
		mu.Unlock()
	})
}

// accumulateSerial is the single-goroutine kernel behind accumulate: one
// counter-mode keystream per peer, expanded by the party's suite. The
// switch hoists suite dispatch out of the per-cell loop so each suite's
// next() stays a direct (inlinable) call.
func (p *Party) accumulateSerial(out []uint64, round uint64, peers []int) {
	switch p.ks {
	case KeystreamAESCTR:
		var ks aesKeystream
		for _, j := range peers {
			ks.init(p.pairKeys[j], round, 0)
			ks.accumulate(out, p.index > j)
		}
	default:
		var ks keystream
		for _, j := range peers {
			ks.init(p.pairKeys[j], round, 0)
			ks.accumulate(out, p.index > j)
		}
	}
}

// Blinding returns the party's blinding vector for `cells` sketch cells in
// round `round`. Adding this vector (mod 2⁶⁴) to the party's sketch cells
// makes the report uniformly random to the server.
func (p *Party) Blinding(round uint64, cells int) []uint64 {
	out := make([]uint64, cells)
	p.accumulate(out, round, p.peers)
	return out
}

// Adjustment returns the party's second-round share for the given missing
// roster indices: the sum of its pairwise terms with every missing user.
// The server subtracts the adjustments of all reporters from the first-
// round aggregate to cancel the residue left by the absent reports.
func (p *Party) Adjustment(round uint64, cells int, missing []int) ([]uint64, error) {
	seen := make(map[int]bool, len(missing))
	peers := make([]int, 0, len(missing))
	for _, j := range missing {
		if j < 0 || j >= p.n {
			return nil, ErrUnknownUser
		}
		if j == p.index {
			return nil, fmt.Errorf("blind: user %d asked to adjust for itself", j)
		}
		if seen[j] {
			continue
		}
		seen[j] = true
		peers = append(peers, j)
	}
	out := make([]uint64, cells)
	p.accumulate(out, round, peers)
	return out, nil
}

// ApplyBlinding adds the blinding vector to cells in place.
func ApplyBlinding(cells []uint64, blinding []uint64) error {
	if len(cells) != len(blinding) {
		return errors.New("blind: length mismatch")
	}
	vec.Add(cells, blinding)
	return nil
}

// SubtractAdjustments removes the reporters' second-round shares from the
// aggregated cells in place.
func SubtractAdjustments(cells []uint64, adjustments ...[]uint64) error {
	for _, adj := range adjustments {
		if len(adj) != len(cells) {
			return errors.New("blind: length mismatch")
		}
		vec.Sub(cells, adj)
	}
	return nil
}

// Roster is a convenience builder for the bulletin board: it generates n
// key pairs under the given suite and returns the parties plus the shared
// public-key list. Production deployments exchange public keys out of
// band; simulations and tests use this.
type Roster struct {
	Suite   group.Suite
	Publics [][]byte
	Parties []*Party
}

// NewRoster generates a full roster of n users with the default
// HMAC-SHA256 keystream.
func NewRoster(suite group.Suite, n int, rng io.Reader) (*Roster, error) {
	return NewRosterKeystream(suite, n, rng, KeystreamHMACSHA256)
}

// NewRosterKeystream is NewRoster with an explicit factor-expansion
// suite, applied uniformly to every party (as a deployment must).
func NewRosterKeystream(suite group.Suite, n int, rng io.Reader, ks Keystream) (*Roster, error) {
	if n < 2 {
		return nil, ErrRosterTooSmall
	}
	privs := make([]group.PrivateKey, n)
	pubs := make([][]byte, n)
	for i := 0; i < n; i++ {
		k, err := suite.GenerateKey(rng)
		if err != nil {
			return nil, err
		}
		privs[i] = k
		pubs[i] = k.PublicKey()
	}
	parties := make([]*Party, n)
	for i := 0; i < n; i++ {
		p, err := NewPartyKeystream(privs[i], pubs, i, ks)
		if err != nil {
			return nil, err
		}
		parties[i] = p
	}
	return &Roster{Suite: suite, Publics: pubs, Parties: parties}, nil
}

// TrafficBytes estimates the bulletin-board exchange size for n users
// under the suite: every user downloads the other n−1 public keys and
// uploads its own. This is the quantity the paper reports as 0.38 MB /
// 1.9 MB for 10k / 50k users (Section 7.1).
func TrafficBytes(suite group.Suite, n int) int {
	return n * suite.PublicKeySize()
}

// MissingSet normalizes a missing-user list: sorted, deduplicated.
func MissingSet(missing []int) []int {
	cp := append([]int(nil), missing...)
	sort.Ints(cp)
	out := cp[:0]
	for i, v := range cp {
		if i == 0 || v != cp[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
