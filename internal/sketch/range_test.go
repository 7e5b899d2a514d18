package sketch

import (
	"encoding/binary"
	"testing"
)

// rangeSketch builds a d×w sketch with the given hash seed whose cells
// are a deterministic mix of zeros and non-zeros derived from fill: a
// fill of 0 leaves it empty, ^0 saturates every cell.
func rangeSketch(t testing.TB, d, w int, seed, fill uint64) *CMS {
	t.Helper()
	cells := make([]uint64, d*w)
	for i := range cells {
		if v := mix64(fill + uint64(i)); fill != 0 && (fill == ^uint64(0) || v%3 != 0) {
			cells[i] = v%4096 + 1
		}
	}
	c, err := Restore(d, w, seed, 0, cells)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// checkQueryRange holds QueryRange to its definition: dst[i] is
// Query(le64(lo+i)) and the return value counts the non-zero entries.
func checkQueryRange(t testing.TB, c *CMS, lo uint64, n int) {
	t.Helper()
	dst := make([]uint64, n)
	for i := range dst {
		dst[i] = ^uint64(0) // poison: every entry must be overwritten
	}
	got := c.QueryRange(lo, dst)
	want := 0
	var key [8]byte
	for i, v := range dst {
		binary.LittleEndian.PutUint64(key[:], lo+uint64(i))
		if q := c.Query(key[:]); v != q {
			t.Fatalf("d=%d w=%d seed=%d: QueryRange(%d)[%d] = %d, Query = %d", c.d, c.w, c.seed, lo, i, v, q)
		} else if q > 0 {
			want++
		}
	}
	if got != want {
		t.Fatalf("d=%d w=%d seed=%d lo=%d: nonzero = %d, want %d", c.d, c.w, c.seed, lo, got, want)
	}
}

// The sweep kernel is the old function: QueryRange must equal one Query
// per ID on every geometry, including the degenerate widths where the
// Kirsch–Mitzenmacher stride collapses to 0 and is forced to 1 (w = 1
// always, w = 2 and 3 for a half and a third of all keys).
func TestQueryRangeMatchesQuery(t *testing.T) {
	cases := []struct {
		name       string
		d, w       int
		seed, fill uint64
		lo         uint64
		n          int
	}{
		{"w=1", 4, 1, 0, 7, 0, 200},
		{"w=2", 5, 2, 0, 7, 0, 500},
		{"w=3 step 0 reachable", 7, 3, 0, 11, 0, 900},
		{"d=1", 1, 64, 0, 3, 0, 500},
		{"small saturated", 5, 272, 0, ^uint64(0), 0, 5000},
		{"small sparse", 5, 272, 0, 5, 0, 5000},
		{"paper geometry", 7, 2719, 0, 9, 0, 20000},
		{"empty sketch", 7, 2719, 0, 0, 0, 3000},
		{"non-zero seed", 7, 2719, 0xfeedface12345678, 9, 0, 5000},
		{"straddles 2^32", 5, 272, 0, 13, 1<<32 - 1500, 3000},
		{"straddles 2^32, seeded", 3, 2, 42, 13, 1<<32 - 100, 200},
		{"top of the key space", 5, 31, 1, 13, ^uint64(0) - 99, 100},
		{"empty dst", 5, 272, 0, 13, 12345, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checkQueryRange(t, rangeSketch(t, tc.d, tc.w, tc.seed, tc.fill), tc.lo, tc.n)
		})
	}
}

func FuzzQueryRange(f *testing.F) {
	f.Add(uint8(7), uint16(2719), uint64(0), uint64(9), uint64(0), uint16(512))
	f.Add(uint8(1), uint16(1), uint64(3), uint64(1), uint64(1<<32-8), uint16(16))
	f.Add(uint8(5), uint16(2), uint64(0), ^uint64(0), ^uint64(0)-3, uint16(4))
	f.Add(uint8(3), uint16(3), uint64(77), uint64(0), uint64(5), uint16(0))
	f.Fuzz(func(t *testing.T, d uint8, w uint16, seed, fill, lo uint64, n uint16) {
		c := rangeSketch(t, int(d%16)+1, int(w%4096)+1, seed, fill)
		checkQueryRange(t, c, lo, int(n%2048))
	})
}

func TestQueryRangeZeroAllocs(t *testing.T) {
	c := rangeSketch(t, 7, 2719, 0, 9)
	dst := make([]uint64, 4096)
	if allocs := testing.AllocsPerRun(20, func() { c.QueryRange(0, dst) }); allocs != 0 {
		t.Fatalf("QueryRange allocates %v times per call, want 0", allocs)
	}
}

// BenchmarkQueryRange sweeps the paper's |A| = 100k ID space over a
// saturated paper-geometry sketch; BenchmarkQuerySweep is the same sweep
// through one Query per ID, the loop QueryRange replaces.
func BenchmarkQueryRange(b *testing.B) {
	c := rangeSketch(b, 7, 2719, 0, ^uint64(0))
	dst := make([]uint64, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.QueryRange(0, dst)
	}
}

func BenchmarkQuerySweep(b *testing.B) {
	c := rangeSketch(b, 7, 2719, 0, ^uint64(0))
	dst := make([]uint64, 100000)
	var key [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for id := range dst {
			binary.LittleEndian.PutUint64(key[:], uint64(id))
			dst[id] = c.Query(key[:])
		}
	}
}
