package blind

import (
	"testing"
)

// TestCampaignBlindingCancels: within any campaign, the roster's
// blindings still sum to zero cell-wise — the derivation is symmetric,
// so the additive-shares-of-zero property survives it.
func TestCampaignBlindingCancels(t *testing.T) {
	r := makeRoster(t, 5)
	const cells = 64
	for _, campaign := range []uint32{0, 1, 7, 0xFFFFFFFF} {
		sum := make([]uint64, cells)
		for _, p := range r.Parties {
			b := p.ForCampaignKeystream(campaign, p.Keystream()).Blinding(42, cells)
			for m := range sum {
				sum[m] += b[m]
			}
		}
		for m, v := range sum {
			if v != 0 {
				t.Fatalf("campaign %d: cell %d sums to %d, want 0", campaign, m, v)
			}
		}
	}
}

// TestCampaignDomainSeparation: the same (pair, round) must expand to
// different pads under different campaigns, and campaign 0 must be
// byte-identical to the underlying party.
func TestCampaignDomainSeparation(t *testing.T) {
	r := makeRoster(t, 3)
	p := r.Parties[0]
	const cells = 32
	base := p.Blinding(7, cells)
	if got := p.ForCampaignKeystream(0, p.Keystream()).Blinding(7, cells); !equalU64(got, base) {
		t.Fatal("campaign 0 blinding differs from legacy blinding")
	}
	c1 := p.ForCampaignKeystream(1, p.Keystream()).Blinding(7, cells)
	c2 := p.ForCampaignKeystream(2, p.Keystream()).Blinding(7, cells)
	if equalU64(c1, base) || equalU64(c2, base) || equalU64(c1, c2) {
		t.Fatal("campaign pads are not independent")
	}
}

// TestCampaignAdjustmentCancels: the adjustment shares for a missing
// user cancel that user's absence inside the campaign, mirroring the
// legacy invariant.
func TestCampaignAdjustmentCancels(t *testing.T) {
	r := makeRoster(t, 4)
	const cells, round, campaign = 16, 9, 3
	missing := []int{2}
	sum := make([]uint64, cells)
	for i, p := range r.Parties {
		if i == 2 {
			continue
		}
		cp := p.ForCampaignKeystream(campaign, p.Keystream())
		b := cp.Blinding(round, cells)
		adj, err := cp.Adjustment(round, cells, missing)
		if err != nil {
			t.Fatal(err)
		}
		for m := range sum {
			sum[m] += b[m] - adj[m]
		}
	}
	for m, v := range sum {
		if v != 0 {
			t.Fatalf("cell %d: residual %d after adjustment", m, v)
		}
	}
}

// TestForCampaignCaching: derived parties are memoized, and campaign 0
// with the native suite is the receiver itself.
func TestForCampaignCaching(t *testing.T) {
	r := makeRoster(t, 2)
	p := r.Parties[0]
	if p.ForCampaignKeystream(0, p.Keystream()) != p {
		t.Fatal("campaign 0 should return the receiver")
	}
	a, b := p.ForCampaignKeystream(5, p.Keystream()), p.ForCampaignKeystream(5, p.Keystream())
	if a != b {
		t.Fatal("derived party not cached")
	}
	if a == p {
		t.Fatal("campaign 5 returned the base party")
	}
	if p.ForCampaignKeystream(5, KeystreamAESCTR) == a {
		t.Fatal("suite-distinct derivations must be distinct")
	}
	if got := p.ForCampaignKeystream(5, KeystreamAESCTR).Keystream(); got != KeystreamAESCTR {
		t.Fatalf("derived suite %v", got)
	}
}

func equalU64(a, b []uint64) bool {
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
