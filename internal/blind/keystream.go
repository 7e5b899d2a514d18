package blind

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"
)

// factorsPerBlock is how many 64-bit blinding factors one PRF invocation
// yields: a SHA-256 block is 32 bytes = 4 little-endian uint64 words.
const factorsPerBlock = sha256.Size / 8

// keystream expands a pairwise key into the per-cell blinding factors for
// one round in counter mode:
//
//	block_t = HMAC-SHA256(k_ij, round ‖ t),   factor_m = block_{m/4}[m%4]
//
// One HMAC invocation therefore covers four cells — a 4× cut in PRF
// invocations versus the one-HMAC-per-cell layout — and any cell position
// is randomly accessible by seeking the block counter (the `cell`
// parameter of init). The seek is what lets Party.accumulate stripe the
// cells of a blinding vector across workers: each worker starts every
// pair's stream at its own first cell.
//
// The HMAC state and output buffer are allocated once at construction and
// reused for every block, so factor generation is allocation-free after
// the constructor (asserted by TestKeystreamZeroAllocs).
//
// COMPATIBILITY: this expansion defines the suite-0x00 blinding values
// (see the Keystream type; aesKeystream is suite 0x01). All parties must
// run the same keystream suite or their pairwise terms would not cancel;
// change an expansion only in lockstep across the deployment.
type keystream struct {
	mac   hash.Hash
	hdr   [16]byte          // round ‖ block counter
	block [sha256.Size]byte // current expanded block
	word  int               // next word within block; factorsPerBlock = refill
	ctr   uint64            // next block counter value
}

// init keys the stream for (key, round) and positions it at cell `cell`.
func (k *keystream) init(key []byte, round uint64, cell int) {
	k.mac = hmac.New(sha256.New, key)
	binary.LittleEndian.PutUint64(k.hdr[:8], round)
	k.ctr = uint64(cell) / factorsPerBlock
	k.word = int(uint64(cell) % factorsPerBlock)
	k.fill()
}

// fill expands the next counter block into k.block.
func (k *keystream) fill() {
	binary.LittleEndian.PutUint64(k.hdr[8:], k.ctr)
	k.ctr++
	k.mac.Reset()
	k.mac.Write(k.hdr[:])
	k.mac.Sum(k.block[:0])
}

// next returns the following 64-bit blinding factor.
func (k *keystream) next() uint64 {
	if k.word == factorsPerBlock {
		k.fill()
		k.word = 0
	}
	v := binary.LittleEndian.Uint64(k.block[8*k.word:])
	k.word++
	return v
}

// accumulate folds the remainder of the stream into out, adding when add
// is true and subtracting otherwise (two's-complement == mod-2⁶⁴).
func (k *keystream) accumulate(out []uint64, add bool) {
	if add {
		for m := range out {
			out[m] += k.next()
		}
	} else {
		for m := range out {
			out[m] -= k.next()
		}
	}
}
