package vec

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
)

func TestAddSubRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 7, 1024, parallelThreshold + 17} {
		rng := rand.New(rand.NewSource(int64(n)))
		dst := make([]uint64, n)
		src := make([]uint64, n)
		orig := make([]uint64, n)
		for i := range dst {
			dst[i] = rng.Uint64()
			src[i] = rng.Uint64()
		}
		copy(orig, dst)
		Add(dst, src)
		for i := range dst {
			if dst[i] != orig[i]+src[i] {
				t.Fatalf("n=%d: Add mismatch at %d", n, i)
			}
		}
		Sub(dst, src)
		for i := range dst {
			if dst[i] != orig[i] {
				t.Fatalf("n=%d: Sub did not invert Add at %d", n, i)
			}
		}
	}
}

func TestAddWrapsAround(t *testing.T) {
	dst := []uint64{^uint64(0)}
	Add(dst, []uint64{1})
	if dst[0] != 0 {
		t.Fatalf("wrap-around add = %d, want 0", dst[0])
	}
	Sub(dst, []uint64{1})
	if dst[0] != ^uint64(0) {
		t.Fatalf("wrap-around sub = %d", dst[0])
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add with mismatched lengths did not panic")
		}
	}()
	Add(make([]uint64, 2), make([]uint64, 3))
}

func TestParallelCoversRange(t *testing.T) {
	const n = 100000
	seen := make([]uint64, n)
	Parallel(n, 1024, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			seen[i]++
		}
	})
	for i, v := range seen {
		if v != 1 {
			t.Fatalf("index %d visited %d times", i, v)
		}
	}
	Parallel(0, 1024, func(lo, hi int) { t.Error("fn called for empty range") })
}

func BenchmarkAdd16k(b *testing.B)  { benchAdd(b, 1<<14) }
func BenchmarkAdd256k(b *testing.B) { benchAdd(b, 1<<18) }

func benchAdd(b *testing.B, n int) {
	dst := make([]uint64, n)
	src := make([]uint64, n)
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Add(dst, src)
	}
}

// BenchmarkAddLE folds a paper-geometry report's raw cell block (19 033
// words, source one byte off alignment, as a WAL record body lands) with
// the selected kernel; BenchmarkAddLEGeneric is the same fold through
// the generic loop — the pair is the kernel's speed-up.
func BenchmarkAddLE(b *testing.B)        { benchAddLE(b, false) }
func BenchmarkAddLEGeneric(b *testing.B) { benchAddLE(b, true) }

func benchAddLE(b *testing.B, generic bool) {
	const n = 19033
	ForceGeneric(generic)
	defer ForceGeneric(false)
	dst := make([]uint64, n)
	src := make([]byte, 8*n+1)[1:]
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		AddLE(dst, src)
	}
}

// Concurrent striped adds must produce exactly the serial sum, for any
// stripe count including the degenerate single-lock case.
func TestStripedAddMatchesSerial(t *testing.T) {
	const n = 10000
	const adders = 8
	for _, stripes := range []int{0, 1, 3, 16} {
		dst := make([]uint64, n)
		s := NewStriped(dst, stripes)
		if len(s.dst) != n || len(s.locks) < 1 {
			t.Fatalf("stripes=%d: len=%d locks=%d", stripes, len(s.dst), len(s.locks))
		}
		srcs := make([][]uint64, adders)
		want := make([]uint64, n)
		for a := range srcs {
			srcs[a] = make([]uint64, n)
			for i := range srcs[a] {
				srcs[a][i] = uint64(a*1000003 + i)
				want[i] += srcs[a][i]
			}
		}
		var wg sync.WaitGroup
		for a := range srcs {
			wg.Add(1)
			go func(src []uint64) {
				defer wg.Done()
				s.Add(src)
			}(srcs[a])
		}
		wg.Wait()
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("stripes=%d: dst[%d] = %d, want %d", stripes, i, dst[i], want[i])
			}
		}
	}
}

func TestStripedAddLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	NewStriped(make([]uint64, 8), 2).Add(make([]uint64, 9))
}

// PutLE/GetLE/AsBytes agree with encoding/binary on every architecture.
func TestByteViewsRoundTrip(t *testing.T) {
	src := []uint64{0, 1, 0xdeadbeefcafebabe, 1 << 63, ^uint64(0)}
	buf := make([]byte, 8*len(src))
	PutLE(buf, src)
	for i, v := range src {
		if got := binary.LittleEndian.Uint64(buf[8*i:]); got != v {
			t.Fatalf("PutLE[%d] = %x, want %x", i, got, v)
		}
	}
	dst := make([]uint64, len(src))
	GetLE(dst, buf)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("GetLE[%d] = %x, want %x", i, dst[i], src[i])
		}
	}
	if view, ok := AsBytes(src); ok {
		if len(view) != len(buf) {
			t.Fatalf("AsBytes len = %d, want %d", len(view), len(buf))
		}
		for i := range buf {
			if view[i] != buf[i] {
				t.Fatalf("AsBytes[%d] = %x, want %x", i, view[i], buf[i])
			}
		}
	}
}
