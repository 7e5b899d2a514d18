// Command bench is the repository's benchmark: it stands the eyeWnder
// server stack up in this process exactly as eyewnder-server does, drives
// it over loopback TCP through the wire client API, checks every
// published count against an unblinded oracle, and reports the
// end-to-end metrics BENCHMARK.json names — or, with -trace 1, the cost
// of the same lifecycle attributed to the repository's layers from
// outside. See README.md.
//
//	go run -C bench . -workload all|<name> -seed N [-trace 0|1] [-seconds S]
//	                  [-scale full|tiny] [-repeat K] [-selfcheck]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds. The benchmark driver
// passes it to every run as -seconds (see README.md, "The driver's
// contract"), so two commits are always measured for the same time.
const defaultSeconds = 20

// bounds are the end-to-end metrics' regression bounds, as in
// BENCHMARK.json: the share by which a median may worsen. A metric has
// one bound for all four workloads, so each is set by the workload on
// which the metric repeats worst (README.md, "Steadiness"). -repeat
// prints spreads beside them and -selfcheck holds gaps against them.
var bounds = map[string]float64{
	"setup_s":          0.25,
	"reports_per_s":    0.25,
	"ack_p50_ms":       0.25,
	"round_close_ms":   0.25,
	"client_report_ms": 0.25,
	"audit_p50_us":     0.25,
	"recover_ms":       0.25,
	"follower_sync_ms": 0.25,
}

// lowerIsBetter lists the direction of each end-to-end metric.
func lowerIsBetter(name string) bool { return name != "reports_per_s" }

func main() {
	var (
		name      = flag.String("workload", "all", "workload to run, or all")
		seed      = flag.Uint64("seed", 1, "seed of every generated input")
		seconds   = flag.Float64("seconds", defaultSeconds, "length of a run: its two repeated phases share it out (the benchmark driver passes BENCHMARK.json's run_seconds)")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans in out/trace-<workload>.jsonl")
		scale     = flag.String("scale", "full", "full, or tiny (a smoke test: roster 8, two rounds per phase)")
		repeat    = flag.Int("repeat", 1, "runs per workload, on seeds seed, seed+1, …; above 1 medians and quartile spreads are printed too")
		selfcheck = flag.Bool("selfcheck", false, "run everything twice and hold the gap between the two medians against each metric's bound")
	)
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || (*scale != "full" && *scale != "tiny") || *repeat < 1 {
		flag.Usage()
		os.Exit(2)
	}
	var wls []workload
	if *name == "all" {
		wls = workloads
	} else if wl, ok := findWorkload(*name); ok {
		wls = []workload{wl}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	// The command runs in bench/ (go run -C bench); everything it writes
	// goes under out/ there.
	const outDir = "out"
	if _, err := os.Stat("layers.go"); err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from bench/ (go run -C bench .)")
		os.Exit(1)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	r := runner{seed: *seed, seconds: *seconds, traced: *trace == 1, tiny: *scale == "tiny", repeat: *repeat, outDir: outDir}
	ok := true
	if *selfcheck {
		ok = r.selfcheck(wls)
	} else {
		for _, wl := range wls {
			_, good := r.runSet(wl)
			ok = ok && good
		}
	}
	if err := r.writeResults(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !ok {
		os.Exit(1)
	}
}

// runner runs workloads and keeps their results for out/result.json.
type runner struct {
	seed    uint64
	seconds float64
	traced  bool
	tiny    bool
	repeat  int
	outDir  string
	results []*result
	runs    int
}

// runOnce runs one workload once, prints its metric lines and the
// one-line JSON result the benchmark driver reads.
func (r *runner) runOnce(wl workload, seed uint64) (*result, bool) {
	if r.tiny {
		wl = wl.tiny()
	}
	r.runs++
	tmp := filepath.Join(r.outDir, fmt.Sprintf("tmp-%d-%d", os.Getpid(), r.runs))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return nil, false
	}
	defer os.RemoveAll(tmp)
	res, err := runWorkload(wl, seed, r.seconds, r.traced, tmp, r.outDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", wl.name, err)
		return nil, false
	}
	r.results = append(r.results, res)
	for _, m := range append(append([]metric(nil), res.endToEnd...), res.perLayer...) {
		fmt.Printf("%s %s %.6g %s n=%d\n", wl.name, m.name, m.value, m.unit, m.n)
	}
	fmt.Printf("%s ops_attempted %d count n=1\n%s ops_failed %d count n=1\n", wl.name, res.attempted, wl.name, res.failed)
	for _, f := range res.failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAILED: %s\n", wl.name, f)
	}
	reported := res.endToEnd
	if r.traced {
		reported = res.perLayer
	}
	line := driverLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]driverMetric{}}
	for _, m := range reported {
		line.Metrics[m.name] = driverMetric{Value: m.value, Unit: m.unit}
	}
	js, _ := json.Marshal(line)
	fmt.Println(string(js))
	return res, res.failed == 0
}

// driverLine is the last line of a run's standard output.
type driverLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// series is one end-to-end metric's values over a set of runs.
type series struct {
	name string
	vals []float64
}

// runSet runs a workload -repeat times on consecutive seeds and returns
// each end-to-end metric's values across the runs, in the metric table's
// order.
func (r *runner) runSet(wl workload) ([]series, bool) {
	var set []series
	ok := true
	for k := 0; k < r.repeat; k++ {
		res, good := r.runOnce(wl, r.seed+uint64(k))
		ok = ok && good
		if res == nil {
			continue
		}
		if set == nil {
			set = make([]series, len(res.endToEnd))
		}
		for i, m := range res.endToEnd {
			set[i].name = m.name
			set[i].vals = append(set[i].vals, m.value)
		}
	}
	if r.repeat > 1 {
		for _, m := range set {
			fmt.Printf("%s %s median %.6g spread %.4f bound %.2f n=%d\n",
				wl.name, m.name, median(m.vals), quartileSpread(m.vals), bounds[m.name], len(m.vals))
		}
	}
	return set, ok
}

// selfcheck runs every workload's set twice on the same build and
// reports, per end-to-end metric, both medians, how much worse the
// second is than the first, and the bound; it fails if a gap exceeds
// the bound.
func (r *runner) selfcheck(wls []workload) bool {
	ok := true
	var lines []string
	for _, wl := range wls {
		first, g1 := r.runSet(wl)
		second, g2 := r.runSet(wl)
		ok = ok && g1 && g2
		if len(first) != len(second) {
			continue // a set failed outright; already reported
		}
		for i, m := range first {
			a, b := median(m.vals), median(second[i].vals)
			worse := (b - a) / a
			if !lowerIsBetter(m.name) {
				worse = (a - b) / a
			}
			verdict := "ok"
			if worse > bounds[m.name] {
				verdict, ok = "EXCEEDS", false
			}
			lines = append(lines, fmt.Sprintf("selfcheck %s %s first %.6g second %.6g worse_by %.4f bound %.2f %s",
				wl.name, m.name, a, b, worse, bounds[m.name], verdict))
		}
	}
	fmt.Println(strings.Join(lines, "\n"))
	return ok
}

// writeResults writes out/result.json: the run metadata and every run's
// metrics.
func (r *runner) writeResults() error {
	type jsonMetric struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
		N     int     `json:"n"`
	}
	type jsonRun struct {
		Workload  string       `json:"workload"`
		Seed      uint64       `json:"seed"`
		Traced    bool         `json:"traced"`
		Attempted int64        `json:"ops_attempted"`
		Failed    int64        `json:"ops_failed"`
		Failures  []string     `json:"failures,omitempty"`
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer,omitempty"`
	}
	conv := func(ms []metric) []jsonMetric {
		out := make([]jsonMetric, len(ms))
		for i, m := range ms {
			out[i] = jsonMetric{m.name, m.value, m.unit, m.n}
		}
		return out
	}
	doc := struct {
		Commit     string    `json:"commit"`
		Go         string    `json:"go"`
		NumCPU     int       `json:"nproc"`
		GOMAXPROCS int       `json:"gomaxprocs"`
		VecKernel  string    `json:"vec_kernel"`
		Seed       uint64    `json:"seed"`
		Seconds    float64   `json:"seconds"`
		Scale      string    `json:"scale"`
		Lanes      int       `json:"client_connections"`
		Runs       []jsonRun `json:"runs"`
	}{
		Commit: commit(), Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		VecKernel: vecKernel(), Seed: r.seed, Seconds: r.seconds, Scale: map[bool]string{false: "full", true: "tiny"}[r.tiny],
		Lanes: lanes,
	}
	for _, res := range r.results {
		doc.Runs = append(doc.Runs, jsonRun{res.workload, res.seed, res.traced, res.attempted, res.failed,
			res.failures, conv(res.endToEnd), conv(res.perLayer)})
	}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.outDir, "result.json"), append(js, '\n'), 0o644)
}

// commit names the checked-out commit by reading ../.git, or
// "unknown" outside a git checkout (the benchmark driver's is not one).
func commit() string {
	git := filepath.Join("..", ".git")
	head, err := os.ReadFile(filepath.Join(git, "HEAD"))
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(rev, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(git, ref))
		if err != nil {
			return ref // a packed ref: name it
		}
		rev = strings.TrimSpace(string(b))
	}
	return rev
}
