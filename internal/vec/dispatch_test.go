package vec

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// knownKernels are the names Active may report (before any reason note).
var knownKernels = []string{"avx2", "neon", "generic"}

func TestActiveNamesAKnownKernel(t *testing.T) {
	got := Active()
	for _, k := range knownKernels {
		if got == k || strings.HasPrefix(got, k+" (") {
			t.Logf("vec kernels: %s", got)
			return
		}
	}
	t.Fatalf("Active() = %q, not a known kernel name", got)
}

// wraparoundValues seed the random fills so every run exercises carries
// out of the low lanes and wraps past 2⁶⁴.
var wraparoundValues = []uint64{0, 1, ^uint64(0), ^uint64(0) - 1, 1 << 63, (1 << 63) + 1, 0x8080808080808080}

func randomFill(rng *rand.Rand, v []uint64) {
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = wraparoundValues[rng.Intn(len(wraparoundValues))]
		} else {
			v[i] = rng.Uint64()
		}
	}
}

// TestKernelEquivalence asserts the selected kernels (assembly on a
// capable host) and the generic Go loops produce bit-identical results
// over random lengths, unaligned base offsets, misaligned tails, and
// wraparound values. With `-tags purego` or EYEWNDER_NOSIMD both sides
// are the generic kernel and the test degenerates to self-consistency —
// the CI matrix runs it under every dispatch path.
func TestKernelEquivalence(t *testing.T) {
	defer ForceGeneric(false)
	rng := rand.New(rand.NewSource(1))
	lengths := []int{0, 1, 2, 3, 7, 8, 15, 16, 17, 31, 33, 63, 64, 100, 255, 1024, 19033}
	for i := 0; i < 40; i++ {
		lengths = append(lengths, rng.Intn(600))
	}
	for _, n := range lengths {
		// Slice from a random offset of a larger backing array so the
		// kernels see bases at every 8-byte alignment class of a cache
		// line, as Striped's arbitrary stripe bounds produce.
		off := rng.Intn(9)
		dstBack := make([]uint64, n+off)
		srcBack := make([]uint64, n+off)
		randomFill(rng, dstBack)
		randomFill(rng, srcBack)
		dst, src := dstBack[off:off+n], srcBack[off:off+n]

		wantAdd := make([]uint64, n)
		wantSub := make([]uint64, n)
		gotAdd := make([]uint64, n)
		gotSub := make([]uint64, n)

		ForceGeneric(true)
		copy(wantAdd, dst)
		Add(wantAdd, src)
		copy(wantSub, dst)
		Sub(wantSub, src)
		ForceGeneric(false)
		copy(gotAdd, dst)
		Add(gotAdd, src)
		copy(gotSub, dst)
		Sub(gotSub, src)

		for i := range wantAdd {
			if gotAdd[i] != wantAdd[i] {
				t.Fatalf("n=%d off=%d: Add[%d] = %#x, generic %#x (kernel %s)", n, off, i, gotAdd[i], wantAdd[i], Active())
			}
			if gotSub[i] != wantSub[i] {
				t.Fatalf("n=%d off=%d: Sub[%d] = %#x, generic %#x (kernel %s)", n, off, i, gotSub[i], wantSub[i], Active())
			}
		}

		// Encode kernels: bulk memmove vs per-word loop.
		wantBuf := make([]byte, 8*n)
		gotBuf := make([]byte, 8*n)
		ForceGeneric(true)
		PutLE(wantBuf, src)
		ForceGeneric(false)
		PutLE(gotBuf, src)
		for i := range wantBuf {
			if gotBuf[i] != wantBuf[i] {
				t.Fatalf("n=%d: PutLE byte %d = %#x, generic %#x", n, i, gotBuf[i], wantBuf[i])
			}
		}
		decGot := make([]uint64, n)
		decWant := make([]uint64, n)
		ForceGeneric(true)
		GetLE(decWant, wantBuf)
		ForceGeneric(false)
		GetLE(decGot, wantBuf)
		for i := range decWant {
			if decGot[i] != decWant[i] {
				t.Fatalf("n=%d: GetLE[%d] = %#x, generic %#x", n, i, decGot[i], decWant[i])
			}
		}
	}

	// Decode-add: every length 0–67 (the 16-word main loop, its scalar
	// tail, and both around the boundary) plus the random lengths above,
	// each at all 8 source byte offsets.
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for off := 0; off < 8; off++ {
			checkAddLE(t, rng, n, off)
		}
	}
}

// checkAddLE compares the selected AddLE kernel with the generic one for
// an n-word destination and a source starting off bytes into its
// backing array.
func checkAddLE(t *testing.T, rng *rand.Rand, n, off int) {
	t.Helper()
	defer ForceGeneric(false)
	words := make([]uint64, n)
	randomFill(rng, words)
	back := make([]byte, off+8*n)
	src := back[off:]
	putLEGeneric(src, words)
	dst := make([]uint64, n)
	randomFill(rng, dst)

	want := append([]uint64(nil), dst...)
	ForceGeneric(true)
	AddLE(want, src)
	ForceGeneric(false)
	got := append([]uint64(nil), dst...)
	AddLE(got, src)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("n=%d off=%d: AddLE[%d] = %#x, generic %#x (kernel %s)", n, off, i, got[i], want[i], Active())
		}
		if want[i] != dst[i]+words[i] {
			t.Fatalf("n=%d off=%d: generic AddLE[%d] = %#x, want %#x", n, off, i, want[i], dst[i]+words[i])
		}
	}
}

// TestKernelEquivalenceConcurrent reruns the selected kernel under
// concurrent slicing (the striped-merge shape) against a serial generic
// sum — the -race leg of CI turns this into a data-race check on the
// dispatch layer itself.
func TestKernelEquivalenceConcurrent(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(7))
	dst := make([]uint64, n)
	want := make([]uint64, n)
	srcs := make([][]uint64, 8)
	for a := range srcs {
		srcs[a] = make([]uint64, n)
		randomFill(rng, srcs[a])
		ForceGeneric(true)
		Add(want, srcs[a])
		ForceGeneric(false)
	}
	s := NewStriped(dst, 16)
	done := make(chan struct{})
	for a := range srcs {
		go func(src []uint64) {
			s.Add(src)
			done <- struct{}{}
		}(srcs[a])
	}
	for range srcs {
		<-done
	}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("striped dispatch sum[%d] = %#x, generic %#x", i, dst[i], want[i])
		}
	}

	// Decode-add from concurrent goroutines into disjoint ranges, each
	// source range at an unaligned byte offset. The second size runs
	// AddLE above parallelThreshold, which fans out internally.
	for _, size := range []int{n, parallelThreshold + 123} {
		words := make([]uint64, size)
		randomFill(rng, words)
		raw := make([]byte, 8*size+3)[3:]
		putLEGeneric(raw, words)
		got := make([]uint64, size)
		randomFill(rng, got)
		want := append([]uint64(nil), got...)
		ForceGeneric(true)
		AddLE(want, raw)
		ForceGeneric(false)
		if size == n {
			const parts = 8
			var wg sync.WaitGroup
			for p := 0; p < parts; p++ {
				lo, hi := p*size/parts, (p+1)*size/parts
				wg.Add(1)
				go func() {
					defer wg.Done()
					AddLE(got[lo:hi], raw[8*lo:8*hi])
				}()
			}
			wg.Wait()
		} else {
			AddLE(got, raw)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("size %d: concurrent AddLE[%d] = %#x, generic %#x", size, i, got[i], want[i])
			}
		}
	}
}

// The dispatch indirection must not cost an allocation: these are the
// invariants the sketch/blind 0-alloc hot paths sit on.
func TestDispatchZeroAllocs(t *testing.T) {
	dst := make([]uint64, 4096)
	src := make([]uint64, 4096)
	buf := make([]byte, 8*4096)
	if a := testing.AllocsPerRun(100, func() { Add(dst, src) }); a != 0 {
		t.Fatalf("Add allocates %v per op through dispatch, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { Sub(dst, src) }); a != 0 {
		t.Fatalf("Sub allocates %v per op through dispatch, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { PutLE(buf, src) }); a != 0 {
		t.Fatalf("PutLE allocates %v per op through dispatch, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { GetLE(src, buf) }); a != 0 {
		t.Fatalf("GetLE allocates %v per op through dispatch, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { AddLE(dst, buf) }); a != 0 {
		t.Fatalf("AddLE allocates %v per op through dispatch, want 0", a)
	}
	s := NewStriped(dst, 4)
	if a := testing.AllocsPerRun(100, func() { s.Add(src) }); a != 0 {
		t.Fatalf("Striped.Add allocates %v per op through dispatch, want 0", a)
	}
}

func TestForceGenericToggles(t *testing.T) {
	before := Active()
	ForceGeneric(true)
	if got := Active(); got != "generic (forced)" {
		t.Fatalf("Active under ForceGeneric(true) = %q", got)
	}
	ForceGeneric(false)
	if got := Active(); got != before {
		t.Fatalf("ForceGeneric(false) restored %q, want %q", got, before)
	}
}

// FuzzKernelEquivalence drives the selected add/sub/decode-add kernels
// against the generic reference from fuzzed byte strings (length and contents), so
// the CI fuzz smoke can grow a corpus of adversarial tails.
func FuzzKernelEquivalence(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0xff})
	f.Add(make([]byte, 257), []byte{0x80, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		n := len(a) / 8
		if n > 1<<16 {
			n = 1 << 16
		}
		dst := make([]uint64, n)
		src := make([]uint64, n)
		GetLE(dst, a[:8*n])
		for i := range src {
			if len(b) > 0 {
				src[i] = uint64(b[i%len(b)]) << (8 * uint(i%8))
			}
			src[i] += ^uint64(0) - uint64(i)
		}
		want := append([]uint64(nil), dst...)
		ForceGeneric(true)
		Add(want, src)
		Sub(want, src)
		Add(want, src)
		ForceGeneric(false)
		got := append([]uint64(nil), dst...)
		Add(got, src)
		Sub(got, src)
		Add(got, src)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("kernel %s diverges from generic at %d: %#x vs %#x", Active(), i, got[i], want[i])
			}
		}

		// Decode-add with a's bytes as the source, at the byte offset
		// len(b) picks, into the words just computed.
		off := len(b) % 8
		if off > len(a) {
			off = len(a)
		}
		m := (len(a) - off) / 8
		if m > n {
			m = n
		}
		raw := a[off : off+8*m]
		wantLE := append([]uint64(nil), want[:m]...)
		ForceGeneric(true)
		AddLE(wantLE, raw)
		ForceGeneric(false)
		gotLE := append([]uint64(nil), want[:m]...)
		AddLE(gotLE, raw)
		for i := range wantLE {
			if gotLE[i] != wantLE[i] {
				t.Fatalf("AddLE kernel %s diverges from generic at %d (source offset %d): %#x vs %#x", Active(), i, off, gotLE[i], wantLE[i])
			}
		}
	})
}
