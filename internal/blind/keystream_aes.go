package blind

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"

	"eyewnder/internal/vec"
)

// aesFactorsPerFill is how many 64-bit blinding factors one refill of the
// AES-CTR keystream yields at most. The stream is advanced up to 4 KiB
// (256 AES blocks) at a time, so the AES-NI multiblock assembly runs
// long pipelined bursts and the per-refill dispatch overhead amortizes
// to noise. On a 2-core amd64 host BenchmarkAdjustment24of96 read
// 0.64–0.71 ms at 2–4 KiB, 1.35 ms at 512 B and 0.70–0.75 ms at
// 8–16 KiB. A refill
// stops early at the end of the cells being folded, so a stream never
// expands factors nobody reads. The refill width is an implementation
// detail, NOT protocol state — CTR output depends only on the absolute
// stream position, so any refill width produces the same suite-0x01
// factors (the reference tests pin them byte for byte).
const aesFactorsPerFill = 4096 / 8

// aesKeyLabel domain-separates the AES-CTR expansion key from the raw
// pairwise secret (which also keys the HMAC suite): both suites may exist
// in one deployment history, and their keystreams must share no structure.
const aesKeyLabel = "eyewnder/blind/aes-ctr/v1"

// aesZero is the all-zero plaintext XORKeyStream turns into raw keystream.
var aesZero [aesFactorsPerFill * 8]byte

// aesKeystream is the KeystreamAESCTR expansion of a pairwise key into
// per-cell blinding factors:
//
//	K      = SHA-256(aesKeyLabel ‖ k_ij)
//	stream = AES-256-CTR(K, IV = round ‖ block counter)   (both big-endian)
//	factor_m = little-endian word m of the stream
//
// Like the HMAC keystream it is counter-mode seekable: init can position
// the stream at any cell, which is what lets accumulate's workers each
// expand one pair's stream over their own stripe of cells. The cipher
// state is built once in init and reused for every refill, so factor
// generation is allocation-free after keying (asserted by
// TestAESKeystreamZeroAllocs).
//
// On little-endian hosts XORKeyStream writes each refill straight into
// the words' byte view, which already is the decoded run; purego and
// big-endian builds refill a byte buffer and decode it with vec.GetLE.
// Either way accumulate folds whole runs with vec.Add/vec.Sub — the
// SIMD merge kernels — instead of a per-word load/decode/add loop.
//
// COMPATIBILITY: this expansion defines the suite-0x01 blinding values.
// All parties in a round must run the same suite or their pairwise terms
// would not cancel; see the Keystream type.
type aesKeystream struct {
	stream cipher.Stream
	words  [aesFactorsPerFill]uint64 // the current run, decoded as factors
	buf    []byte                    // raw refill bytes when words has no byte view; nil otherwise
	word   int                       // next unread factor within words
	end    int                       // factors of the current run; word == end means refill
}

// init keys the stream for (key, round) and positions it at cell `cell`.
func (k *aesKeystream) init(key []byte, round uint64, cell int) {
	h := sha256.New()
	h.Write([]byte(aesKeyLabel))
	h.Write(key)
	var aesKey [sha256.Size]byte
	h.Sum(aesKey[:0])
	block, err := aes.NewCipher(aesKey[:])
	if err != nil {
		// 32-byte keys are always valid AES-256 keys.
		panic("blind: aes keying: " + err.Error())
	}
	// Two factors per AES block: start at the cell's block, and skip the
	// block's first factor when the cell is odd.
	var iv [aes.BlockSize]byte
	binary.BigEndian.PutUint64(iv[:8], round)
	binary.BigEndian.PutUint64(iv[8:], uint64(cell)/2)
	k.stream = cipher.NewCTR(block, iv[:])
	if _, ok := vec.AsBytes(k.words[:]); !ok && k.buf == nil {
		k.buf = make([]byte, len(aesZero))
	}
	k.word, k.end = 0, 0
	if cell%2 == 1 {
		k.fill(2)
		k.word = 1
	}
}

// fill advances the CTR stream by the next n ≤ aesFactorsPerFill factors
// into words[:n] and rewinds the cursor to them.
func (k *aesKeystream) fill(n int) {
	if k.buf == nil {
		view, _ := vec.AsBytes(k.words[:n])
		k.stream.XORKeyStream(view, aesZero[:8*n])
	} else {
		k.stream.XORKeyStream(k.buf[:8*n], aesZero[:8*n])
		vec.GetLE(k.words[:n], k.buf[:8*n])
	}
	k.word, k.end = 0, n
}

// next returns the following 64-bit blinding factor.
func (k *aesKeystream) next() uint64 {
	if k.word == k.end {
		k.fill(aesFactorsPerFill)
	}
	v := k.words[k.word]
	k.word++
	return v
}

// accumulate folds the next len(out) factors of the stream into out,
// adding when add is true and subtracting otherwise (two's-complement ==
// mod-2⁶⁴). The rest of a run already partly read folds first; then each
// refill covers as much of out as it can, so the stream never expands a
// factor past out's end.
func (k *aesKeystream) accumulate(out []uint64, add bool) {
	for len(out) > 0 {
		if k.word == k.end {
			k.fill(min(aesFactorsPerFill, len(out)))
		}
		n := min(len(out), k.end-k.word)
		run := k.words[k.word : k.word+n]
		if add {
			vec.Add(out[:n], run)
		} else {
			vec.Sub(out[:n], run)
		}
		k.word += n
		out = out[n:]
	}
}
