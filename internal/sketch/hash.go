package sketch

import (
	"encoding/binary"
	"math/bits"
)

const (
	hashK0 = 0x9e3779b97f4a7c15 // 2⁶⁴/φ, odd
	hashK1 = 0xbf58476d1ce4e5b9 // splitmix64 finalizer multipliers
	hashK2 = 0x94d049bb133111eb
)

// hash128 hashes x into two 64-bit values in a single allocation-free
// pass, consuming 8 bytes per step. The pair seeds Kirsch–Mitzenmacher
// double hashing (idx_j = h1 + j·h2 mod w), which is provably sufficient
// for the CMS error analysis while hashing each key exactly once — the
// technique production sketches (count-min-log, pmc) use instead of d
// independent hash passes.
//
// The two lanes mix the same input stream with different multipliers and
// rotations and are finalized with independent splitmix64 avalanches, so
// the (h1, h2) pair behaves as an independent pair for index derivation.
//
// COMPATIBILITY: this function defines the sketch cell layout. Every
// protocol participant (clients, back-end, simulator) must run the same
// version, or blinded aggregation would sum mismatched cells. Change it
// only in lockstep with a protocol round version bump. Its stages
// (hashInit, hashWord, hashTail, hashMix) are small enough to inline and
// are what QueryRange composes for the 8-byte ad-ID key, so the sweep
// kernel and the per-key path share one definition of the layout.
func hash128(x []byte, seed uint64) (h1, h2 uint64) {
	h1, h2 = hashInit(seed)
	n := uint64(len(x))
	for len(x) >= 8 {
		h1, h2 = hashWord(h1, h2, binary.LittleEndian.Uint64(x))
		x = x[8:]
	}
	var tail uint64
	for i := 0; i < len(x); i++ {
		tail |= uint64(x[i]) << (8 * uint(i))
	}
	return hashMix(hashTail(h1, h2, tail, n))
}

// hashInit returns the two lanes' seed-dependent start state.
func hashInit(seed uint64) (h1, h2 uint64) {
	return seed ^ 0xcbf29ce484222325, (seed+1)*hashK0 ^ 0x2545f4914f6cdd1d
}

// hashWord absorbs one little-endian 8-byte word into both lanes.
func hashWord(h1, h2, v uint64) (uint64, uint64) {
	return bits.RotateLeft64((h1^v)*hashK1, 31), bits.RotateLeft64((h2+v)*hashK2, 29) ^ v
}

// hashTail absorbs the trailing (< 8, possibly 0) bytes and the key
// length n.
func hashTail(h1, h2, tail, n uint64) (uint64, uint64) {
	return bits.RotateLeft64((h1^tail)*hashK1, 31) ^ n, bits.RotateLeft64((h2+tail)*hashK2, 29) + n
}

// hashMix avalanches the two lanes independently.
func hashMix(h1, h2 uint64) (uint64, uint64) {
	return mix64(h1), mix64(h2 + hashK0)
}

// mix64 is the splitmix64 finalizer: a bijective avalanche so that every
// input bit affects every output bit.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
