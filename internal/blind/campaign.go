package blind

import (
	"crypto/sha256"
	"encoding/binary"
	"sync"
)

// Per-campaign key derivation. Two concurrent campaigns must never
// expand the same pairwise secret over the same round: identical pads
// would cancel across the campaigns' sketches, so an observer who can
// subtract one campaign's blinded report from another's would recover
// the difference of the two clear sketches. Campaign c ≠ 0 therefore
// derives an independent pairwise secret per pair,
//
//	k'_ij = SHA-256("eyewnder/blind/campaign/v1" ‖ c_BE ‖ k_ij)
//
// The derivation is symmetric in (i, j) — both sides hash the same
// k_ij — so the cancellation property of the additive shares is
// preserved within each campaign, and distinct campaigns see
// independent streams. Campaign 0 keeps the raw pairwise secrets,
// byte-identical to the single-campaign deployment style.

// campaignKDFLabel is the domain-separation label of the derivation.
const campaignKDFLabel = "eyewnder/blind/campaign/v1"

// ForCampaignKeystream returns the party view for the campaign under
// the factor-expansion suite ks — campaigns may pin a different suite
// than the deployment default. Campaign 0 under the party's own suite
// is the receiver itself; any other campaign gets derived pairwise
// keys. Derived parties are cached, so per-round blinding across many
// campaigns pays the hashing once.
func (p *Party) ForCampaignKeystream(campaign uint32, ks Keystream) *Party {
	if campaign == 0 && ks == p.ks {
		return p
	}
	key := campaignKey{campaign: campaign, ks: ks}
	p.mu.Lock()
	defer p.mu.Unlock()
	if d, ok := p.derived[key]; ok {
		return d
	}
	d := &Party{
		index:    p.index,
		pairKeys: p.pairKeys,
		peers:    p.peers,
		n:        p.n,
		ks:       ks,
	}
	if campaign != 0 {
		d.pairKeys = make([][]byte, len(p.pairKeys))
		var prefix [len(campaignKDFLabel) + 4]byte
		copy(prefix[:], campaignKDFLabel)
		binary.BigEndian.PutUint32(prefix[len(campaignKDFLabel):], campaign)
		for j, k := range p.pairKeys {
			if k == nil {
				continue
			}
			h := sha256.New()
			h.Write(prefix[:])
			h.Write(k)
			d.pairKeys[j] = h.Sum(nil)
		}
	}
	if p.derived == nil {
		p.derived = make(map[campaignKey]*Party)
	}
	p.derived[key] = d
	return d
}

// campaignKey keys the derived-party cache.
type campaignKey struct {
	campaign uint32
	ks       Keystream
}

// derivedCache is embedded in Party (see blind.go) — declared here so
// the campaign derivation reads as one unit.
type derivedCache struct {
	mu      sync.Mutex
	derived map[campaignKey]*Party
}
