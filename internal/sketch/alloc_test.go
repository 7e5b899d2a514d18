package sketch

import (
	"testing"

	"eyewnder/internal/vec"
)

// The privacy hot path must stay allocation-free: every client report
// hashes thousands of keys through Update, and the back-end's close-round
// enumeration issues IDSpace queries. A stray allocation here multiplies
// into GC pressure across the whole fleet, so regressions are asserted,
// not just benchmarked.

func TestUpdateZeroAllocs(t *testing.T) {
	c, err := New(0.001, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("https://ads.example.com/creative/123456")
	if allocs := testing.AllocsPerRun(1000, func() { c.Update(key) }); allocs != 0 {
		t.Fatalf("Update allocates %v times per call, want 0", allocs)
	}
}

func TestQueryZeroAllocs(t *testing.T) {
	c, err := New(0.001, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("https://ads.example.com/creative/123456")
	c.Update(key)
	if allocs := testing.AllocsPerRun(1000, func() { c.Query(key) }); allocs != 0 {
		t.Fatalf("Query allocates %v times per call, want 0", allocs)
	}
}

func TestConservativeUpdateZeroAllocs(t *testing.T) {
	c, err := New(0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("https://ads.example.com/creative/abc")
	if allocs := testing.AllocsPerRun(1000, func() { c.ConservativeUpdate(key, 1) }); allocs != 0 {
		t.Fatalf("ConservativeUpdate allocates %v times per call, want 0", allocs)
	}
}

// The aggregate and codec paths run over every cell of every report, so
// they must stay allocation-free too — under the dispatched kernels and
// under the generic loops a purego build selects. The buffers are the
// steady state a repeat caller runs in: a pre-sized encode scratch and a
// same-geometry decode receiver.
func TestCellPathsZeroAllocs(t *testing.T) {
	src, err := New(0.001, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	src.Update([]byte("https://ads.example.com/creative/123456"))
	dst := src.Clone()
	data, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, 0, len(data))
	var recv CMS
	if err := recv.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	type allocCase struct {
		name string
		fn   func() error
	}
	cases := []allocCase{
		{"Merge", func() error { return dst.Merge(src) }},
		{"UnmarshalBinary", func() error { return recv.UnmarshalBinary(data) }},
	}
	// A race build compiles append(b, make(...)...) as a real make.
	if !raceEnabled {
		cases = append(cases, allocCase{"AppendBinary", func() (err error) {
			scratch, err = src.AppendBinary(scratch[:0])
			return err
		}})
	}
	defer vec.ForceGeneric(false)
	for _, generic := range []bool{false, true} {
		vec.ForceGeneric(generic)
		for _, tc := range cases {
			allocs := testing.AllocsPerRun(100, func() {
				if err := tc.fn(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s (generic=%v) allocates %v times per call, want 0", tc.name, generic, allocs)
			}
		}
	}
}

func TestIndexesReusesBuffer(t *testing.T) {
	c, err := New(0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]int, c.Depth())
	key := []byte("ad-key")
	if allocs := testing.AllocsPerRun(1000, func() { c.Indexes(key, buf) }); allocs != 0 {
		t.Fatalf("Indexes with sized buffer allocates %v times per call, want 0", allocs)
	}
}

// Indexes must agree with the cells Update touches and Query reads.
func TestIndexesMatchUpdate(t *testing.T) {
	c, err := NewWithDimensions(6, 97)
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("cross-check")
	idx := c.Indexes(key, nil)
	if len(idx) != c.Depth() {
		t.Fatalf("Indexes returned %d entries, want %d", len(idx), c.Depth())
	}
	c.Update(key)
	for j, col := range idx {
		if col < 0 || col >= c.Width() {
			t.Fatalf("row %d index %d out of range", j, col)
		}
		if got := c.Cell(j, col); got != 1 {
			t.Fatalf("row %d cell %d = %d after one update, want 1", j, col, got)
		}
	}
	if c.Query(key) != 1 {
		t.Fatalf("Query = %d, want 1", c.Query(key))
	}
}
