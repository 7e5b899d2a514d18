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
