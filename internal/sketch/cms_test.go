package sketch

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"eyewnder/internal/vec"
)

func TestNewDimensions(t *testing.T) {
	c, err := New(0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// d = ceil(ln 100) = 5, w = ceil(e/0.01) = 272.
	if c.Depth() != 5 {
		t.Fatalf("Depth = %d, want 5", c.Depth())
	}
	if c.Width() != 272 {
		t.Fatalf("Width = %d, want 272", c.Width())
	}
	if c.Cells() != 5*272 {
		t.Fatalf("Cells = %d", c.Cells())
	}
}

func TestNewRejectsBadParams(t *testing.T) {
	for _, p := range [][2]float64{{0, 0.1}, {0.1, 0}, {1, 0.1}, {0.1, 1}, {-1, 0.5}} {
		if _, err := New(p[0], p[1]); err != ErrBadParams {
			t.Errorf("New(%v, %v) err = %v, want ErrBadParams", p[0], p[1], err)
		}
	}
	if _, err := NewWithDimensions(0, 5); err == nil {
		t.Error("NewWithDimensions(0,5) should error")
	}
	if _, err := NewWithDimensions(5, 0); err == nil {
		t.Error("NewWithDimensions(5,0) should error")
	}
}

func TestPaperExactCMSSizes(t *testing.T) {
	// Section 7.1: "The size in bytes of the CMS totals to 185, 196, and
	// 207KB, for an input size of 10k, 50k, and 100k" with δ = ε = 0.001
	// and 4-byte cells. Reproduce the numbers exactly.
	for _, c := range []struct {
		T      int
		wantKB int
	}{
		{10000, 185}, {50000, 196}, {100000, 207},
	} {
		cms, err := NewForElements(c.T, 0.001, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		// The paper reports decimal kilobytes (1 KB = 1000 B).
		gotKB := int(float64(cms.SizeBytes(4))/1000 + 0.5)
		if gotKB != c.wantKB {
			t.Errorf("T=%d: size = %d KB, paper reports %d KB (d=%d, w=%d)",
				c.T, gotKB, c.wantKB, cms.Depth(), cms.Width())
		}
	}
	if _, err := NewForElements(0, 0.01, 0.01); err == nil {
		t.Error("T=0 accepted")
	}
	if _, err := NewForElements(100, 0, 0.01); err != ErrBadParams {
		t.Error("bad epsilon accepted")
	}
}

func TestPaperCMSSizes(t *testing.T) {
	// Section 7.1: with δ = ε = 0.001 and 4-byte cells the paper reports a
	// sketch around 190-210 KB regardless of input size (the CMS footprint
	// depends only on ε and δ). Verify our geometry lands in that regime.
	c, err := New(0.001, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	kb := float64(c.SizeBytes(4)) / 1024
	if kb < 50 || kb > 250 {
		t.Fatalf("CMS size = %.0f KB, expected order of the paper's ~200 KB", kb)
	}
}

func TestQueryNeverUnderestimates(t *testing.T) {
	c, _ := New(0.01, 0.01)
	truth := map[string]uint64{}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("ad-%d", rng.Intn(300))
		c.UpdateString(key)
		truth[key]++
	}
	for k, want := range truth {
		if got := c.QueryString(k); got < want {
			t.Fatalf("Query(%q) = %d < true %d", k, got, want)
		}
	}
}

func TestErrorBoundHolds(t *testing.T) {
	// With ε=0.001 over 10k updates the additive error bound is 10; check
	// that the overwhelming majority of estimates respect it (the bound
	// holds per-query with probability 1-δ).
	c, _ := New(0.001, 0.01)
	truth := map[string]uint64{}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("url-%d", rng.Intn(2000))
		c.UpdateString(key)
		truth[key]++
	}
	bound := uint64(c.ErrorBound()) + 1
	violations := 0
	for k, want := range truth {
		if got := c.QueryString(k); got > want+bound {
			violations++
		}
	}
	if frac := float64(violations) / float64(len(truth)); frac > 0.02 {
		t.Fatalf("error bound violated for %.1f%% of keys", 100*frac)
	}
}

func TestWeightedUpdate(t *testing.T) {
	c, _ := New(0.01, 0.01)
	c.UpdateWeighted([]byte("x"), 7)
	if got := c.Query([]byte("x")); got < 7 {
		t.Fatalf("Query = %d, want >= 7", got)
	}
	if c.N() != 7 {
		t.Fatalf("N = %d", c.N())
	}
}

func TestConservativeUpdateNotWorse(t *testing.T) {
	plain, _ := NewWithDimensions(4, 64)
	cons, _ := NewWithDimensions(4, 64)
	rng := rand.New(rand.NewSource(3))
	keys := make([]string, 0, 2000)
	for i := 0; i < 2000; i++ {
		k := fmt.Sprintf("k-%d", rng.Intn(400))
		keys = append(keys, k)
		plain.UpdateString(k)
		cons.ConservativeUpdate([]byte(k), 1)
	}
	for _, k := range keys {
		if cons.QueryString(k) > plain.QueryString(k) {
			t.Fatalf("conservative estimate exceeds plain for %q", k)
		}
	}
}

func TestMergeEqualsUnion(t *testing.T) {
	a, _ := NewWithDimensions(5, 128)
	b, _ := NewWithDimensions(5, 128)
	union, _ := NewWithDimensions(5, 128)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 3000; i++ {
		k := []byte(fmt.Sprintf("item-%d", rng.Intn(500)))
		if i%2 == 0 {
			a.Update(k)
		} else {
			b.Update(k)
		}
		union.Update(k)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.N() != union.N() {
		t.Fatalf("merged N = %d, want %d", a.N(), union.N())
	}
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("item-%d", i))
		if a.Query(k) != union.Query(k) {
			t.Fatalf("merge mismatch for %s: %d vs %d", k, a.Query(k), union.Query(k))
		}
	}
}

func TestMergeDimensionMismatch(t *testing.T) {
	a, _ := NewWithDimensions(4, 64)
	b, _ := NewWithDimensions(4, 65)
	if err := a.Merge(b); err != ErrDimensionMismatch {
		t.Fatalf("err = %v", err)
	}
	c, _ := NewWithDimensions(5, 64)
	if err := a.Merge(c); err != ErrDimensionMismatch {
		t.Fatalf("err = %v", err)
	}
	if err := a.Merge(nil); err != ErrDimensionMismatch {
		t.Fatalf("err = %v", err)
	}
}

func TestCloneIndependent(t *testing.T) {
	a, _ := NewWithDimensions(3, 32)
	a.UpdateString("x")
	b := a.Clone()
	b.UpdateString("x")
	if a.QueryString("x") == b.QueryString("x") {
		t.Fatal("clone shares state with original")
	}
}

func TestReset(t *testing.T) {
	a, _ := NewWithDimensions(3, 32)
	a.UpdateString("x")
	a.Reset()
	if a.QueryString("x") != 0 || a.N() != 0 {
		t.Fatal("Reset did not clear state")
	}
	if a.Depth() != 3 || a.Width() != 32 {
		t.Fatal("Reset changed dimensions")
	}
}

func TestCellAccessors(t *testing.T) {
	a, _ := NewWithDimensions(2, 4)
	a.SetCell(1, 3, 42)
	if a.Cell(1, 3) != 42 {
		t.Fatal("SetCell/Cell mismatch")
	}
	a.AddToCell(1*4+3, ^uint64(0)) // add -1 mod 2^64
	if a.Cell(1, 3) != 41 {
		t.Fatalf("AddToCell wraparound: got %d", a.Cell(1, 3))
	}
	if len(a.FlatCells()) != 8 {
		t.Fatal("FlatCells length")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	a, _ := New(0.01, 0.05)
	for i := 0; i < 100; i++ {
		a.UpdateString(fmt.Sprintf("ad-%d", i%17))
	}
	data, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var b CMS
	if err := b.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if b.Depth() != a.Depth() || b.Width() != a.Width() || b.N() != a.N() {
		t.Fatal("header mismatch after round trip")
	}
	for i := 0; i < 17; i++ {
		k := fmt.Sprintf("ad-%d", i)
		if a.QueryString(k) != b.QueryString(k) {
			t.Fatalf("query mismatch for %s", k)
		}
	}
}

func TestAppendBinaryMatchesMarshalAndReuses(t *testing.T) {
	a, _ := New(0.01, 0.05)
	for i := 0; i < 100; i++ {
		a.UpdateString(fmt.Sprintf("ad-%d", i%17))
	}
	want, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Appends after a prefix, byte-identical to MarshalBinary.
	got, err := a.AppendBinary([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
		t.Fatal("AppendBinary encoding differs from MarshalBinary")
	}
	// A buffer with capacity is extended without reallocating.
	scratch := make([]byte, 0, len(want))
	out, err := a.AppendBinary(scratch)
	if err != nil {
		t.Fatal(err)
	}
	if &out[0] != &scratch[:1][0] {
		t.Fatal("AppendBinary reallocated despite sufficient capacity")
	}

	// UnmarshalBinary into a same-geometry receiver reuses its cells.
	var b CMS
	if err := b.UnmarshalBinary(want); err != nil {
		t.Fatal(err)
	}
	before := &b.FlatCells()[0]
	if err := b.UnmarshalBinary(want); err != nil {
		t.Fatal(err)
	}
	if &b.FlatCells()[0] != before {
		t.Fatal("UnmarshalBinary reallocated a reusable cell slice")
	}
	for i := 0; i < 17; i++ {
		k := fmt.Sprintf("ad-%d", i)
		if a.QueryString(k) != b.QueryString(k) {
			t.Fatalf("query mismatch for %s after reuse decode", k)
		}
	}
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	var c CMS
	if err := c.UnmarshalBinary(nil); err != ErrCorrupt {
		t.Fatalf("nil err = %v", err)
	}
	a, _ := NewWithDimensions(2, 4)
	data, _ := a.MarshalBinary()
	if err := c.UnmarshalBinary(data[:len(data)-1]); err != ErrCorrupt {
		t.Fatalf("truncated err = %v", err)
	}
	bad := append([]byte(nil), data...)
	bad[0] = 0 // d = 0
	if err := c.UnmarshalBinary(bad); err != ErrCorrupt {
		t.Fatalf("zero-depth err = %v", err)
	}
}

func TestStringSummary(t *testing.T) {
	a, _ := NewWithDimensions(2, 4)
	if !strings.Contains(a.String(), "d=2") {
		t.Fatalf("String() = %q", a.String())
	}
}

// Property: Query is always >= true count, for arbitrary keys and orders.
func TestPropertyNoUnderestimate(t *testing.T) {
	f := func(keys []string) bool {
		c, _ := NewWithDimensions(4, 32)
		truth := map[string]uint64{}
		for _, k := range keys {
			c.UpdateString(k)
			truth[k]++
		}
		for k, want := range truth {
			if c.QueryString(k) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Merge is commutative — a.Merge(b) and b.Merge(a) answer queries
// identically.
func TestPropertyMergeCommutes(t *testing.T) {
	f := func(as, bs []string) bool {
		a1, _ := NewWithDimensions(3, 16)
		b1, _ := NewWithDimensions(3, 16)
		a2, _ := NewWithDimensions(3, 16)
		b2, _ := NewWithDimensions(3, 16)
		for _, k := range as {
			a1.UpdateString(k)
			a2.UpdateString(k)
		}
		for _, k := range bs {
			b1.UpdateString(k)
			b2.UpdateString(k)
		}
		if err := a1.Merge(b1); err != nil {
			return false
		}
		if err := b2.Merge(a2); err != nil {
			return false
		}
		for _, k := range append(append([]string{}, as...), bs...) {
			if a1.QueryString(k) != b2.QueryString(k) {
				return false
			}
		}
		return a1.N() == b2.N()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: serialization round-trips for arbitrary update sequences.
func TestPropertySerializationRoundTrip(t *testing.T) {
	f := func(keys []string) bool {
		a, _ := NewWithDimensions(3, 16)
		for _, k := range keys {
			a.UpdateString(k)
		}
		data, err := a.MarshalBinary()
		if err != nil {
			return false
		}
		var b CMS
		if err := b.UnmarshalBinary(data); err != nil {
			return false
		}
		for _, k := range keys {
			if a.QueryString(k) != b.QueryString(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: merging never decreases any query answer.
func TestPropertyMergeMonotone(t *testing.T) {
	f := func(as, bs []string) bool {
		a, _ := NewWithDimensions(3, 16)
		b, _ := NewWithDimensions(3, 16)
		for _, k := range as {
			a.UpdateString(k)
		}
		for _, k := range bs {
			b.UpdateString(k)
		}
		before := map[string]uint64{}
		for _, k := range as {
			before[k] = a.QueryString(k)
		}
		if err := a.Merge(b); err != nil {
			return false
		}
		for k, v := range before {
			if a.QueryString(k) < v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUpdate(b *testing.B) {
	c, _ := New(0.001, 0.001)
	key := []byte("https://ads.example.com/creative/123456")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Update(key)
	}
}

func BenchmarkQuery(b *testing.B) {
	c, _ := New(0.001, 0.001)
	key := []byte("https://ads.example.com/creative/123456")
	c.Update(key)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Query(key)
	}
}

// benchKernels runs fn as a "simd" sub-benchmark on the dispatched
// kernels and a "generic" one on the generic loops a purego build
// selects; the pair is the kernels' speed-up on the host.
func benchKernels(b *testing.B, fn func(b *testing.B)) {
	for _, k := range []struct {
		name    string
		generic bool
	}{{"simd", false}, {"generic", true}} {
		b.Run(k.name, func(b *testing.B) {
			vec.ForceGeneric(k.generic)
			defer vec.ForceGeneric(false)
			b.ReportAllocs()
			fn(b)
		})
	}
}

func BenchmarkMerge(b *testing.B) {
	benchKernels(b, func(b *testing.B) {
		x, _ := New(0.001, 0.001)
		y, _ := New(0.001, 0.001)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := x.Merge(y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAppendBinary and BenchmarkUnmarshalBinary time the report
// codec the way repeat callers run it: into a reused buffer and a
// reused receiver, warmed in setup, so the figure is the cell-block
// transcode and not a 152 KB allocation per op.
func BenchmarkAppendBinary(b *testing.B) {
	benchKernels(b, func(b *testing.B) {
		c, _ := New(0.001, 0.001)
		scratch, err := c.AppendBinary(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(scratch)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if scratch, err = c.AppendBinary(scratch[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkUnmarshalBinary(b *testing.B) {
	benchKernels(b, func(b *testing.B) {
		c, _ := New(0.001, 0.001)
		data, err := c.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var d CMS
		if err := d.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(data)))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.UnmarshalBinary(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
