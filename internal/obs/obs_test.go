package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPromEscaping holds the text-format escaping rules for label
// values: backslash, double quote, and newline must come out escaped.
func TestPromEscaping(t *testing.T) {
	r := New()
	r.Counter("esc_total", "escaping probe", "path", `C:\x "q"`+"\nend").Inc()
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	want := `esc_total{path="C:\\x \"q\"\nend"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Fatalf("escaped sample missing:\nwant %s\ngot:\n%s", want, sb.String())
	}
}

// TestPromHeaders checks one HELP/TYPE pair per metric name, with
// label variants grouped under it even when registration interleaves
// other metrics.
func TestPromHeaders(t *testing.T) {
	r := New()
	r.Counter("a_total", "a help", "reason", "x").Inc()
	r.Gauge("g", "g help").Set(-3)
	r.Counter("a_total", "a help", "reason", "y").Add(2)
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if n := strings.Count(out, "# TYPE a_total counter"); n != 1 {
		t.Fatalf("want exactly one TYPE line for a_total, got %d:\n%s", n, out)
	}
	if !strings.Contains(out, "# TYPE g gauge") {
		t.Fatalf("gauge TYPE line missing:\n%s", out)
	}
	// Variants adjacent: x line directly before y line.
	ix := strings.Index(out, `a_total{reason="x"} 1`)
	iy := strings.Index(out, `a_total{reason="y"} 2`)
	ig := strings.Index(out, "g -3")
	if ix < 0 || iy < 0 || ig < 0 {
		t.Fatalf("samples missing:\n%s", out)
	}
	if !(ix < iy && iy < ig) {
		t.Fatalf("label variants not grouped before g:\n%s", out)
	}
}

// TestHistogramInvariants verifies the exposition invariants clients
// depend on: buckets are cumulative and non-decreasing, the +Inf
// bucket equals _count, and _sum matches the observed total.
func TestHistogramInvariants(t *testing.T) {
	r := New()
	h := r.Histogram("lat_seconds", "probe", []time.Duration{
		time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
	})
	obs := []time.Duration{
		500 * time.Microsecond, // bucket 0
		time.Millisecond,       // bucket 0 (le is inclusive)
		5 * time.Millisecond,   // bucket 1
		50 * time.Millisecond,  // bucket 2
		time.Second,            // above all bounds → only +Inf
	}
	var total time.Duration
	for _, d := range obs {
		h.Observe(d)
		total += d
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.001"} 2`,
		`lat_seconds_bucket{le="0.01"} 3`,
		`lat_seconds_bucket{le="0.1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if h.Count() != 5 || h.Sum() != total {
		t.Fatalf("count/sum: got %d/%v want 5/%v", h.Count(), h.Sum(), total)
	}
	if !strings.Contains(out, "lat_seconds_sum "+formatFloat(total.Seconds())) {
		t.Errorf("sum sample missing in:\n%s", out)
	}
}

// A CountHistogram exposes its bounds and _sum as the counts observed,
// not as seconds.
func TestCountHistogram(t *testing.T) {
	r := New()
	h := r.CountHistogram("frames_per_ack", "probe", []uint64{1, 4, 16})
	for _, n := range []uint64{1, 3, 4, 9, 40} {
		h.ObserveCount(n)
	}
	var sb strings.Builder
	if err := r.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`frames_per_ack_bucket{le="1"} 1`,
		`frames_per_ack_bucket{le="4"} 3`,
		`frames_per_ack_bucket{le="16"} 4`,
		`frames_per_ack_bucket{le="+Inf"} 5`,
		`frames_per_ack_sum 57`,
		`frames_per_ack_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if got := r.Snapshot()["frames_per_ack_sum"]; got != 57 {
		t.Fatalf("snapshot sum = %v, want 57", got)
	}
}

// TestGetOrRegister checks the promotion-critical property: asking for
// the same (name, labels) returns the same instrument, and a GaugeFunc
// re-registration swaps the callback in place.
func TestGetOrRegister(t *testing.T) {
	r := New()
	c1 := r.Counter("x_total", "h")
	c1.Inc()
	c2 := r.Counter("x_total", "h")
	if c1 != c2 {
		t.Fatal("same name returned distinct counters")
	}
	if r.Counter("x_total", "h", "reason", "a") == c1 {
		t.Fatal("different labels returned the same counter")
	}
	r.GaugeFunc("fn", "h", func() float64 { return 1 })
	r.GaugeFunc("fn", "h", func() float64 { return 2 })
	if got := r.Snapshot()["fn"]; got != 2 {
		t.Fatalf("GaugeFunc re-register did not replace callback: %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("x_total", "h")
}

// TestConcurrentHammer bumps every instrument kind from many
// goroutines; under -race this is the data-race check, and the final
// totals prove no update was lost.
func TestConcurrentHammer(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "h")
	sc := r.ShardedCounter("sc_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h_seconds", "h", nil)
	const workers, iters = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			shard := sc.NextShard()
			for i := 0; i < iters; i++ {
				c.Inc()
				sc.Inc(shard)
				g.Add(1)
				h.Observe(time.Duration(i) * time.Microsecond)
				if i%128 == 0 {
					// Scrape concurrently with the writers.
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*iters {
		t.Fatalf("counter lost updates: %d", c.Value())
	}
	if sc.Value() != workers*iters {
		t.Fatalf("sharded counter lost updates: %d", sc.Value())
	}
	if g.Value() != workers*iters {
		t.Fatalf("gauge lost updates: %d", g.Value())
	}
	if h.Count() != workers*iters {
		t.Fatalf("histogram lost updates: %d", h.Count())
	}
	if got := r.Snapshot()["sc_total"]; got != workers*iters {
		t.Fatalf("sharded counter snapshot: %v", got)
	}
}

// TestUpdateAllocs pins the hot-path contract: instrument updates are
// 0 allocs/op.
func TestUpdateAllocs(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "h")
	sc := r.ShardedCounter("sc_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h_seconds", "h", nil)
	ch := r.CountHistogram("ch", "h", []uint64{1, 8})
	shard := sc.NextShard()
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		sc.Inc(shard)
		g.Set(7)
		h.Observe(3 * time.Millisecond)
		ch.ObserveCount(5)
	}); n != 0 {
		t.Fatalf("instrument updates allocate: %v allocs/op", n)
	}
}

// TestJSONSnapshot checks the flattened JSON form used by the harness
// scrape diff.
func TestJSONSnapshot(t *testing.T) {
	r := New()
	r.Counter("c_total", "h").Add(3)
	r.Histogram("h_seconds", "h", nil).Observe(time.Millisecond)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var m map[string]float64
	if err := json.Unmarshal([]byte(sb.String()), &m); err != nil {
		t.Fatal(err)
	}
	if m["c_total"] != 3 || m["h_seconds_count"] != 1 {
		t.Fatalf("unexpected snapshot: %v", m)
	}
}

// TestAdminHandler exercises the four endpoints through a live
// httptest server, including the 503 health path.
func TestAdminHandler(t *testing.T) {
	r := New()
	r.Counter("c_total", "h").Inc()
	unhealthy := false
	h := Handler(AdminOptions{
		Registry: r,
		Status:   func() any { return map[string]int{"rounds": 2} },
		Health: func() Health {
			if unhealthy {
				return Health{OK: false, Role: "follower", Detail: "replication stopped"}
			}
			return Health{OK: true, Role: "follower", Detail: "caught up"}
		},
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "c_total 1") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if code, body := get("/statusz"); code != 200 || !strings.Contains(body, `"rounds": 2`) {
		t.Fatalf("/statusz: %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "caught up") {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	unhealthy = true
	if code, body := get("/healthz"); code != 503 || !strings.Contains(body, "replication stopped") {
		t.Fatalf("unhealthy /healthz: %d %q", code, body)
	}
	if code, body := get("/debug/pprof/"); code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/: %d", code)
	}
}
