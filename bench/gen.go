package main

import (
	"math/rand/v2"
	"sort"
)

// Seeded input generators. Everything a workload feeds the server is a
// pure function of (seed, campaign, user, round), so the same seed gives
// the same frames and the same oracle. The only inputs that are not are
// the P-256 keys of a real-crypto roster: crypto/ecdh refuses a
// deterministic source, and the published counts do not depend on them.

// PCG stream tags keep the generators' streams apart under one seed.
const (
	streamAds   = 0xad5 << 32
	streamPad   = 0x9ad << 32
	streamShare = 0x54a << 32
	streamDrop  = 0xd09 << 32
	streamAudit = 0xa0d << 32
)

// adsPerUser is the number of distinct ads a user reports per round.
const adsPerUser = 50

// zipfS and zipfV shape the ad popularity law: a few ads are seen by
// most users, most ads by few.
const (
	zipfS = 1.2
	zipfV = 4
)

// drawAds returns, per user, adsPerUser distinct Zipf-distributed ad IDs
// in [0, idSpace), sorted.
func drawAds(seed uint64, campaign uint32, users int, idSpace uint64) [][]uint64 {
	r := rand.New(rand.NewPCG(seed, streamAds|uint64(campaign)))
	z := rand.NewZipf(r, zipfS, zipfV, idSpace-1)
	out := make([][]uint64, users)
	seen := make(map[uint64]struct{}, adsPerUser)
	for u := range out {
		clear(seen)
		ads := make([]uint64, 0, adsPerUser)
		for len(ads) < adsPerUser {
			id := z.Uint64()
			if _, dup := seen[id]; dup {
				continue
			}
			seen[id] = struct{}{}
			ads = append(ads, id)
		}
		sort.Slice(ads, func(i, j int) bool { return ads[i] < ads[j] })
		out[u] = ads
	}
	return out
}

// auditIDs returns n Zipf-distributed ad IDs for audit queries.
func auditIDs(seed uint64, n int, idSpace uint64) []uint64 {
	r := rand.New(rand.NewPCG(seed, streamAudit))
	z := rand.NewZipf(r, zipfS, zipfV, idSpace-1)
	out := make([]uint64, n)
	for i := range out {
		out[i] = z.Uint64()
	}
	return out
}

// padSource is the seeded stream user u's pad is drawn from.
func padSource(seed uint64, campaign uint32, u int) *rand.PCG {
	return rand.NewPCG(seed, streamPad|uint64(campaign)<<24|uint64(u))
}

// Seeded zero-sum pads stand in for the pairwise PRF blinding on rosters
// too large for real key agreement (O(n²) ECDH): every user but the last
// draws a pseudo-random pad, the last takes minus their sum, so
// Σ pads ≡ 0 (mod 2⁶⁴) cell by cell. The server cannot tell them from PRF
// output, and a close still has to unblind exactly.

// addPad blinds user u's cells in place. Every user but the last draws
// its pad from its own stream and subtracts it from lastPad; the last
// user takes lastPad itself, which by then is minus the sum of the
// others. Call it for u = 0 … users−1 in order, with one lastPad.
func addPad(seed uint64, campaign uint32, u, users int, cells, lastPad []uint64) {
	if u == users-1 {
		for i := range cells {
			cells[i] += lastPad[i]
		}
		return
	}
	src := padSource(seed, campaign, u)
	for i := range cells {
		p := src.Uint64()
		cells[i] += p
		lastPad[i] -= p
	}
}

// subPad subtracts user u's pad from acc.
func subPad(acc []uint64, seed uint64, campaign uint32, u, users int, lastPad []uint64) {
	if u == users-1 {
		for i := range acc {
			acc[i] -= lastPad[i]
		}
		return
	}
	src := padSource(seed, campaign, u)
	for i := range acc {
		acc[i] -= src.Uint64()
	}
}

// synthShares returns one adjustment share per survivor for a round in
// which the users in missing did not report. The survivors' blinded
// reports sum to (their sketches) − Σ_{m∈missing} pad_m, so the shares
// must sum to −Σ pad_m: every survivor but the last draws a
// pseudo-random share and the last takes what is left.
func synthShares(seed uint64, campaign uint32, round uint64, users int, lastPad []uint64, survivors, missing []int) [][]uint64 {
	target := make([]uint64, len(lastPad))
	for _, m := range missing {
		subPad(target, seed, campaign, m, users, lastPad)
	}
	out := make([][]uint64, len(survivors))
	for k, s := range survivors[:len(survivors)-1] {
		out[k] = randomShare(seed, campaign, round, s, len(target))
		subVec(target, out[k])
	}
	out[len(out)-1] = target
	return out
}

// randomShare is the pseudo-random share of a survivor that is not the
// one closing the sum.
func randomShare(seed uint64, campaign uint32, round uint64, survivor, cells int) []uint64 {
	src := rand.NewPCG(seed^round, streamShare|uint64(campaign)<<24|uint64(survivor))
	sh := make([]uint64, cells)
	for i := range sh {
		sh[i] = src.Uint64()
	}
	return sh
}

// dropouts returns which of users stay silent in a round: exactly
// ⌊share·users⌋ of them, chosen by a seeded shuffle.
func dropouts(seed, round uint64, users int, share float64) (silent []bool) {
	silent = make([]bool, users)
	k := int(share * float64(users))
	if k == 0 {
		return silent
	}
	r := rand.New(rand.NewPCG(seed, streamDrop|round))
	for _, u := range r.Perm(users)[:k] {
		silent[u] = true
	}
	return silent
}

// addVec and subVec are the oracle's own cell arithmetic (mod 2⁶⁴),
// deliberately not the vec kernels the server uses.
func addVec(dst, src []uint64) {
	for i, v := range src {
		dst[i] += v
	}
}

func subVec(dst, src []uint64) {
	for i, v := range src {
		dst[i] -= v
	}
}
