package blind

import (
	"crypto/aes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"testing"

	"eyewnder/internal/group"
	"eyewnder/internal/vec"
)

// refAESFactor recomputes factor m the slow way, straight from the spec:
// K = SHA-256(label ‖ key), block = AES-256_K(round ‖ m/2) with both
// counter halves big-endian, factor = little-endian word m%2 of the
// block.
func refAESFactor(t *testing.T, key []byte, round uint64, m int) uint64 {
	t.Helper()
	h := sha256.New()
	h.Write([]byte(aesKeyLabel))
	h.Write(key)
	block, err := aes.NewCipher(h.Sum(nil))
	if err != nil {
		t.Fatal(err)
	}
	var in, out [aes.BlockSize]byte
	binary.BigEndian.PutUint64(in[:8], round)
	binary.BigEndian.PutUint64(in[8:], uint64(m)/2)
	block.Encrypt(out[:], in[:])
	return binary.LittleEndian.Uint64(out[8*(m%2):])
}

func TestAESKeystreamMatchesReference(t *testing.T) {
	key := []byte("pairwise-secret-0123456789abcdef")
	const round = 42
	var ks aesKeystream
	ks.init(key, round, 0)
	for m := 0; m < 40; m++ {
		if got, want := ks.next(), refAESFactor(t, key, round, m); got != want {
			t.Fatalf("factor %d = %#x, want %#x", m, got, want)
		}
	}
}

// Counter-mode random access: starting mid-stream must agree with the
// sequential walk, cell by cell.
func TestAESKeystreamSeek(t *testing.T) {
	key := []byte("another-pairwise-secret")
	const round = 7
	for _, start := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 100} {
		var ks aesKeystream
		ks.init(key, round, start)
		for m := start; m < start+20; m++ {
			if got, want := ks.next(), refAESFactor(t, key, round, m); got != want {
				t.Fatalf("start %d: factor %d = %#x, want %#x", start, m, got, want)
			}
		}
	}
}

// Seeks around the refill width, read past the next refill both factor
// by factor and through accumulate split at an odd point, must agree
// with the reference: a refill starts at the seeked cell's AES block and
// the last one stops at the end of the cells being folded.
func TestAESKeystreamSeekAcrossRefill(t *testing.T) {
	key := []byte("refill-boundary-pair-secret")
	const round = 13
	const span = aesFactorsPerFill + 5
	for _, start := range []int{511, 512, 513, 4095, 4096, 4097} {
		want := make([]uint64, span)
		for m := range want {
			want[m] = refAESFactor(t, key, round, start+m)
		}
		var ks aesKeystream
		ks.init(key, round, start)
		for m, w := range want {
			if got := ks.next(); got != w {
				t.Fatalf("start %d: factor %d = %#x, want %#x", start, start+m, got, w)
			}
		}
		for _, split := range []int{0, 1, 3, aesFactorsPerFill - 1, aesFactorsPerFill + 1} {
			for _, add := range []bool{true, false} {
				out := make([]uint64, span)
				ks.init(key, round, start)
				ks.accumulate(out[:split], add)
				ks.accumulate(out[split:], add)
				for m, w := range want {
					if !add {
						w = -w
					}
					if out[m] != w {
						t.Fatalf("start %d, split %d, add %v: factor %d = %#x, want %#x", start, split, add, start+m, out[m], w)
					}
				}
			}
		}
	}
}

func TestAESKeystreamRoundsDiffer(t *testing.T) {
	key := []byte("same-key-different-round")
	var a, b aesKeystream
	a.init(key, 1, 0)
	b.init(key, 2, 0)
	same := 0
	for i := 0; i < 16; i++ {
		if a.next() == b.next() {
			same++
		}
	}
	if same == 16 {
		t.Fatal("keystreams identical across rounds")
	}
}

// The two suites must share no structure: same key, same round, disjoint
// streams (the AES key is domain-separated from the raw pairwise secret).
func TestAESKeystreamDiffersFromHMAC(t *testing.T) {
	key := []byte("shared-pairwise-secret")
	var h keystream
	var a aesKeystream
	h.init(key, 5, 0)
	a.init(key, 5, 0)
	same := 0
	for i := 0; i < 16; i++ {
		if h.next() == a.next() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d of 16 factors collide across suites", same)
	}
}

// Factor generation must be allocation-free once the stream is keyed —
// blinding touches every sketch cell for every peer.
func TestAESKeystreamZeroAllocs(t *testing.T) {
	var ks aesKeystream
	ks.init([]byte("zero-alloc-pair-key"), 3, 0)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 1024; i++ {
			sink += ks.next()
		}
	})
	if allocs != 0 {
		t.Fatalf("aes keystream allocates %v times per 1024 factors, want 0", allocs)
	}
	_ = sink
}

// An AES-CTR roster must cancel exactly like an HMAC one: the suite
// changes the expansion, not the shares-of-zero algebra.
func TestAESBlindingsSumToZero(t *testing.T) {
	for _, n := range []int{2, 3, 5} {
		r, err := NewRosterKeystream(group.P256(), n, rand.Reader, KeystreamAESCTR)
		if err != nil {
			t.Fatal(err)
		}
		const cells = 37
		const round = 7
		sum := make([]uint64, cells)
		for _, p := range r.Parties {
			if p.Keystream() != KeystreamAESCTR {
				t.Fatalf("party suite = %v, want aes-ctr", p.Keystream())
			}
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

// Adjustment shares must also cancel under the AES suite: a partial
// report set plus the reporters' adjustments is exactly zero residue.
func TestAESAdjustmentCancels(t *testing.T) {
	const cells = 29
	const round = 3
	r, err := NewRosterKeystream(group.P256(), 4, rand.Reader, KeystreamAESCTR)
	if err != nil {
		t.Fatal(err)
	}
	missing := []int{3}
	sum := make([]uint64, cells)
	for _, p := range r.Parties[:3] {
		b := p.Blinding(round, cells)
		for m := range sum {
			sum[m] += b[m]
		}
	}
	for _, p := range r.Parties[:3] {
		adj, err := p.Adjustment(round, cells, missing)
		if err != nil {
			t.Fatal(err)
		}
		for m := range sum {
			sum[m] -= adj[m]
		}
	}
	for m, v := range sum {
		if v != 0 {
			t.Fatalf("cell %d residue %d after adjustment", m, v)
		}
	}
}

func TestKeystreamSuiteNames(t *testing.T) {
	for _, c := range []struct {
		name string
		want Keystream
	}{
		{"hmac-sha256", KeystreamHMACSHA256},
		{"hmac", KeystreamHMACSHA256},
		{"aes-ctr", KeystreamAESCTR},
		{"aes", KeystreamAESCTR},
	} {
		got, err := KeystreamByName(c.name)
		if err != nil || got != c.want {
			t.Fatalf("KeystreamByName(%q) = %v, %v", c.name, got, err)
		}
	}
	if _, err := KeystreamByName("rot13"); err == nil {
		t.Fatal("unknown suite name accepted")
	}
	if _, err := NewPartyKeystream(nil, nil, 0, Keystream(0x7f)); err == nil {
		t.Fatal("invalid suite byte accepted")
	}
}

func BenchmarkAESKeystream(b *testing.B) {
	var ks aesKeystream
	ks.init([]byte("bench-pair-key"), 1, 0)
	var sink uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink += ks.next()
	}
	_ = sink
}

// BenchmarkBlindingVector5kCellsAESCTR runs a "simd" sub-benchmark on
// the dispatched kernels and a "generic" one on the generic loops a
// purego build selects; the pair is the kernels' share of the blinding.
func BenchmarkBlindingVector5kCellsAESCTR(b *testing.B) {
	r, err := NewRosterKeystream(group.P256(), 16, rand.Reader, KeystreamAESCTR)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []struct {
		name    string
		generic bool
	}{{"simd", false}, {"generic", true}} {
		b.Run(k.name, func(b *testing.B) {
			vec.ForceGeneric(k.generic)
			defer vec.ForceGeneric(false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r.Parties[0].Blinding(uint64(i), 5000)
			}
		})
	}
}
