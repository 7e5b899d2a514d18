package sketch

import "testing"

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
