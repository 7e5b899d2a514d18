package main

import (
	"encoding/json"
	"maps"
	"math"
	"os"
	"reflect"
	"testing"
)

// TestWorkloadsTiny runs every workload's whole lifecycle at the tiny
// scale, untraced and traced: every equality check must pass, every
// end-to-end metric must be positive, and a traced run must print
// exactly the per-layer metrics BENCHMARK.json names.
func TestWorkloadsTiny(t *testing.T) {
	spec := readBenchmarkJSON(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			name := wl.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				res, err := runWorkload(wl.tiny(), 7, 0, traced, t.TempDir(), t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Fatalf("%d of %d operations failed: %v", res.failed, res.attempted, res.failures)
				}
				checkMetrics(t, res.endToEnd, spec.EndToEnd, true)
				if traced {
					checkMetrics(t, res.perLayer, spec.PerLayer, false)
				}
			})
		}
	}
}

type benchmarkMetric struct {
	Name, Unit, Better string
	Bound              float64
}

type benchmarkJSON struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkMetrics holds a run's metrics against BENCHMARK.json's list: same
// names in the same order, same units, and finite values (positive ones,
// for end-to-end metrics).
func checkMetrics(t *testing.T, got []metric, want []benchmarkMetric, positive bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%d metrics reported, BENCHMARK.json names %d", len(got), len(want))
	}
	for i, m := range got {
		if m.name != want[i].Name || m.unit != want[i].Unit {
			t.Errorf("metric %d is %s [%s], BENCHMARK.json says %s [%s]", i, m.name, m.unit, want[i].Name, want[i].Unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) || (positive && m.value <= 0) {
			t.Errorf("%s = %v", m.name, m.value)
		}
	}
}

// TestBenchmarkJSONAgrees pins the parts of BENCHMARK.json the program
// has its own copy of: the run length, the workload names and whys, and
// each metric's bound and direction.
func TestBenchmarkJSONAgrees(t *testing.T) {
	spec := readBenchmarkJSON(t)
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %v in BENCHMARK.json, -seconds defaults to %v", spec.RunSeconds, defaultSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if spec.Workloads[i].Name != wl.name || spec.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, spec.Workloads[i].Name, spec.Workloads[i].Why, wl.name, wl.why)
		}
	}
	if len(spec.EndToEnd) != len(bounds) {
		t.Errorf("BENCHMARK.json bounds %d metrics, the program %d", len(spec.EndToEnd), len(bounds))
	}
	for _, m := range spec.EndToEnd {
		if b, ok := bounds[m.Name]; !ok || m.Bound != b {
			t.Errorf("%s: bound %v in BENCHMARK.json, %v in the program", m.Name, m.Bound, b)
		}
		if (m.Better == "lower") != lowerIsBetter(m.Name) {
			t.Errorf("%s: direction %q disagrees with the program", m.Name, m.Better)
		}
	}
}

// TestGeneratorsDeterministic: the same seed gives the same ads, frames
// and oracle; another seed gives others.
func TestGeneratorsDeterministic(t *testing.T) {
	g, err := newGeometry(0.01, 1000, ksHMAC)
	if err != nil {
		t.Fatal(err)
	}
	build := func(seed uint64) *world {
		w, err := buildWorld(worldSpec{dropout: 0.25, deploy: deploySpec{geo: g, users: 8}}, seed, &opCounter{})
		if err != nil {
			t.Fatal(err)
		}
		w.close()
		return w
	}
	a, b, c := build(5), build(5), build(6)
	if !reflect.DeepEqual(a.pools[0].ads, b.pools[0].ads) || !reflect.DeepEqual(a.pools[0].frames, b.pools[0].frames) {
		t.Error("same seed, different frames")
	}
	ca, tha, _ := a.oracle(a.pools[0], []int{1, 3})
	cb, thb, _ := b.oracle(b.pools[0], []int{1, 3})
	if !maps.Equal(ca, cb) || tha != thb {
		t.Error("same seed, different oracle")
	}
	if reflect.DeepEqual(a.pools[0].frames, c.pools[0].frames) {
		t.Error("different seeds, same frames")
	}
	if !reflect.DeepEqual(dropouts(5, 2, 8, 0.25), dropouts(5, 2, 8, 0.25)) {
		t.Error("same seed, different dropouts")
	}
}

// TestPadsCancel: the seeded pads sum to zero over the roster, and the
// synthetic shares sum to exactly what the missing users' pads leave
// uncancelled.
func TestPadsCancel(t *testing.T) {
	const users, cells = 7, 33
	vecs := make([][]uint64, users)
	lastPad := make([]uint64, cells)
	sum := make([]uint64, cells)
	for u := range vecs {
		vecs[u] = make([]uint64, cells)
		addPad(9, 2, u, users, vecs[u], lastPad)
		addVec(sum, vecs[u])
	}
	if !reflect.DeepEqual(sum, make([]uint64, cells)) {
		t.Fatal("pads do not sum to zero")
	}
	for _, missing := range [][]int{{2}, {0, 6}, {3, 4, 6}} {
		silent := make(map[int]bool)
		for _, m := range missing {
			silent[m] = true
		}
		var survivors []int
		residue := make([]uint64, cells) // what the survivors' pads sum to
		for u := 0; u < users; u++ {
			if !silent[u] {
				survivors = append(survivors, u)
				addVec(residue, vecs[u])
			}
		}
		for _, sh := range synthShares(9, 2, 4, users, lastPad, survivors, missing) {
			subVec(residue, sh)
		}
		if !reflect.DeepEqual(residue, make([]uint64, cells)) {
			t.Errorf("missing %v: shares leave a residue", missing)
		}
	}
}

func TestPercentiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 5}, {25, 3}, {90, 8.2}, {100, 9}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if median([]float64{4, 2}) != 3 || median(nil) != 0 {
		t.Error("median of two, or of none")
	}
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartileSpread(ten); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartile spread of 1..10 = %v, want (8.25-2.75)/5.5", got)
	}
}

// TestSelfTimes: a consume span with an append inside it, a barrier with
// a sync inside it that the other connection's longer barrier also
// encloses, and a span with no parent.
func TestSelfTimes(t *testing.T) {
	tr := newTracer(16)
	put := func(k spanKind, start, end int64, req uint64) {
		tr.spans[tr.n.Add(1)-1] = span{kind: k, start: start, end: end, req: req, parent: -1}
	}
	put(spConsume, 100, 200, reqOf(0, 1, 7))
	put(spAppendReport, 120, 180, reqOf(0, 1, 7))
	put(spConsume, 110, 300, reqOf(0, 1, 8)) // other connection, encloses the append but is another request
	put(spSyncReports, 400, 1000, 0)         // other connection's barrier
	put(spSyncReports, 500, 900, 0)
	put(spSync, 510, 890, 0)
	put(spSnapshot, 2000, 2500, 0)
	spans := tr.resolve()
	byStart := func(s int64) span {
		for _, sp := range spans {
			if sp.start == s {
				return sp
			}
		}
		t.Fatalf("no span starting at %d", s)
		return span{}
	}
	if p := byStart(120).parent; p < 0 || spans[p].start != 100 {
		t.Errorf("append's parent is %d, want the consume of the same request", p)
	}
	if p := byStart(510).parent; p < 0 || spans[p].start != 500 {
		t.Errorf("sync's parent is %d, want the tightest enclosing barrier", p)
	}
	if byStart(2000).parent != -1 || byStart(100).parent != -1 {
		t.Error("snapshot and consume are roots")
	}
	tot := selfTimes(spans)
	if got := tot[spConsume]; got.count != 2 || got.totalNs != 290 || got.selfNs != 230 {
		t.Errorf("consume totals %+v", got)
	}
	if got := tot[spSyncReports]; got.totalNs != 1000 || got.selfNs != 620 {
		t.Errorf("barrier totals %+v", got)
	}
	if got := tot[spAppendReport].meanUs(); got != 0.06 {
		t.Errorf("append mean %v us", got)
	}
}
