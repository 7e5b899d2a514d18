package main

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"eyewnder/internal/backend"
	"eyewnder/internal/blind"
	"eyewnder/internal/campaign"
	"eyewnder/internal/client"
	"eyewnder/internal/detector"
	"eyewnder/internal/group"
	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
	"eyewnder/internal/store"
	"eyewnder/internal/vec"
	"eyewnder/internal/wire"
)

// pipelineResult is one stage's measurement. MaxProcs records the
// GOMAXPROCS the row actually ran under: rows promoted from another
// machine's artifact (see -promote) keep their own stamp, and the
// regression gate refuses to compare rows whose parallelism differs
// from the fresh run's — a many-core baseline number is not a bound a
// single-core rerun could honestly be held to, and vice versa.
type pipelineResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	MaxProcs    int     `json:"maxprocs,omitempty"`
}

// pipelineReport is the BENCH_pipeline.json schema. Baseline is carried
// forward from a previous report (see -baseline) so the perf trajectory
// of the hot path is tracked across PRs in one committed artifact.
// BaselineMaxProcs is the loaded baseline's report-level stamp, the
// fallback for baseline rows recorded before per-row stamps existed.
type pipelineReport struct {
	Schema           string                    `json:"schema"`
	Go               string                    `json:"go"`
	MaxProcs         int                       `json:"maxprocs"`
	VecKernel        string                    `json:"vec_kernel,omitempty"`
	Benchmarks       map[string]pipelineResult `json:"benchmarks"`
	Baseline         map[string]pipelineResult `json:"baseline,omitempty"`
	BaselineMaxProcs int                       `json:"baseline_maxprocs,omitempty"`
}

func measure(fn func(b *testing.B)) pipelineResult {
	r := testing.Benchmark(fn)
	return pipelineResult{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		MaxProcs:    runtime.GOMAXPROCS(0),
	}
}

// runPipeline benchmarks every stage of the privacy hot path — sketch
// update/query, report (de)serialization, report ingestion over loopback
// TCP (per-frame vs batched acks), same-round merge contention (locked vs
// striped), blinding-vector computation, aggregate merge, the back-end
// close-round enumeration and the count-table extraction at the paper's
// |A| — and writes the results to outPath.
// With checkPct/checkNsPct > 0 it then gates against the baseline (the
// CI regression gate).
func runPipeline(outPath, baselinePath string, checkPct, checkNsPct float64) error {
	rep := &pipelineReport{
		Schema:     "eyewnder/bench-pipeline/v1",
		Go:         runtime.Version(),
		MaxProcs:   runtime.GOMAXPROCS(0),
		VecKernel:  vec.Active(),
		Benchmarks: map[string]pipelineResult{},
	}
	fmt.Fprintf(os.Stderr, "pipeline: vec kernels: %s, GOMAXPROCS=%d\n", rep.VecKernel, rep.MaxProcs)
	if baselinePath != "" {
		var prev pipelineReport
		raw, err := os.ReadFile(baselinePath)
		if err != nil {
			return fmt.Errorf("reading baseline: %w", err)
		}
		if err := json.Unmarshal(raw, &prev); err != nil {
			return fmt.Errorf("parsing baseline: %w", err)
		}
		rep.Baseline = prev.Benchmarks
		rep.BaselineMaxProcs = prev.MaxProcs
	}

	// Paper geometry: ε = δ = 0.001 (d=7, w=2719 ≈ 19k cells).
	newCMS := func() *sketch.CMS {
		c, err := sketch.New(0.001, 0.001)
		if err != nil {
			panic(err)
		}
		return c
	}
	key := []byte("https://ads.example.com/creative/123456")

	fmt.Fprintln(os.Stderr, "pipeline: cms update/query ...")
	rep.Benchmarks["cms_update"] = measure(func(b *testing.B) {
		c := newCMS()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Update(key)
		}
	})
	rep.Benchmarks["cms_query"] = measure(func(b *testing.B) {
		c := newCMS()
		c.Update(key)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Query(key)
		}
	})

	// generic reruns a benchmark with the vec dispatch forced onto the
	// pure-Go kernels — the same code a `purego` build selects — so every
	// SIMD-backed row gets a paired *_purego row out of one binary and the
	// committed report carries the kernels' measured win on the recording
	// host. (ForceGeneric is safe here: testing.Benchmark joins its
	// goroutine before the deferred restore runs.)
	generic := func(fn func(b *testing.B)) pipelineResult {
		vec.ForceGeneric(true)
		defer vec.ForceGeneric(false)
		return measure(fn)
	}

	// The rows measure the encode/decode path the way the repeat callers
	// run it — AppendBinary into a reused buffer, UnmarshalBinary into a
	// reused receiver — so the tracked number is the (SIMD-dispatched)
	// cell-block transcode, not the allocator: a fresh 152 KB allocation
	// per op costs more than the encode itself and would bury any kernel
	// change in GC noise.
	fmt.Fprintln(os.Stderr, "pipeline: report marshal/unmarshal (amortized buffers) ...")
	marshalBench := func(b *testing.B) {
		c := newCMS()
		// Warm the scratch buffer in setup: the steady state is 0
		// allocs/op exactly, not a one-time allocation divided by b.N
		// (which jitters with the iteration count and trips the tight
		// alloc/bytes gate on noise).
		scratch, err := c.AppendBinary(nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			scratch, err = c.AppendBinary(scratch[:0])
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	unmarshalBench := func(b *testing.B) {
		c := newCMS()
		data, err := c.MarshalBinary()
		if err != nil {
			b.Fatal(err)
		}
		var d sketch.CMS
		// Same: the receiver's cell slice is allocated once, in setup.
		if err := d.UnmarshalBinary(data); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.UnmarshalBinary(data); err != nil {
				b.Fatal(err)
			}
		}
	}
	rep.Benchmarks["cms_marshal"] = measure(marshalBench)
	rep.Benchmarks["cms_marshal_purego"] = generic(marshalBench)
	rep.Benchmarks["cms_unmarshal"] = measure(unmarshalBench)
	rep.Benchmarks["cms_unmarshal_purego"] = generic(unmarshalBench)

	fmt.Fprintln(os.Stderr, "pipeline: blinding vector (16-user roster, 5k cells), HMAC vs AES-CTR ...")
	roster, err := blind.NewRoster(group.P256(), 16, rand.Reader)
	if err != nil {
		return err
	}
	rep.Benchmarks["blind_vector_5k"] = measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			roster.Parties[0].Blinding(uint64(i), 5000)
		}
	})
	rosterAES, err := blind.NewRosterKeystream(group.P256(), 16, rand.Reader, blind.KeystreamAESCTR)
	if err != nil {
		return err
	}
	aesBench := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rosterAES.Parties[0].Blinding(uint64(i), 5000)
		}
	}
	rep.Benchmarks["blind_aesctr"] = measure(aesBench)
	rep.Benchmarks["blind_aesctr_purego"] = generic(aesBench)

	fmt.Fprintln(os.Stderr, "pipeline: aggregate merge ...")
	mergeBench := func(b *testing.B) {
		dst, src := newCMS(), newCMS()
		src.Update(key)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := dst.Merge(src); err != nil {
				b.Fatal(err)
			}
		}
	}
	rep.Benchmarks["cms_merge"] = measure(mergeBench)
	rep.Benchmarks["cms_merge_purego"] = generic(mergeBench)

	fmt.Fprintln(os.Stderr, "pipeline: report ingestion, per-frame vs batched acks (loopback TCP) ...")
	if err := benchIngestion(rep, newCMS, key); err != nil {
		return err
	}

	fmt.Fprintln(os.Stderr, "pipeline: same-round merge contention, locked vs striped ...")
	if err := benchRoundContention(rep); err != nil {
		return err
	}

	fmt.Fprintln(os.Stderr, "pipeline: durable round store, WAL append ...")
	benchStore(rep, newCMS)

	fmt.Fprintln(os.Stderr, "pipeline: end-to-end ingest, batched stream into a durable back-end ...")
	if err := benchE2EIngest(rep); err != nil {
		return err
	}

	fmt.Fprintln(os.Stderr, "pipeline: multi-campaign ingest, 8 campaigns multiplexed over one stream ...")
	if err := benchMultiCampaignIngest(rep); err != nil {
		return err
	}

	fmt.Fprintln(os.Stderr, "pipeline: close round (8 reports, 20k-ID enumeration) ...")
	params := privacy.Params{Epsilon: 0.001, Delta: 0.001, IDSpace: 20000, Suite: group.P256()}
	reports := make([]*privacy.Report, len(roster.Parties[:8]))
	for u := 0; u < len(reports); u++ {
		cms, err := params.NewSketch()
		if err != nil {
			return err
		}
		var k [8]byte
		for a := 0; a < 50; a++ {
			binary.LittleEndian.PutUint64(k[:], uint64((u*37+a*101)%int(params.IDSpace)))
			cms.Update(k[:])
		}
		cells := cms.FlatCells()
		if err := blind.ApplyBlinding(cells, roster.Parties[u].Blinding(1, len(cells))); err != nil {
			return err
		}
		reports[u] = &privacy.Report{User: u, Round: 1, Sketch: cms}
	}
	// A full 16-party cancellation needs all parties; use the adjustment
	// round for the 8 absentees, exactly as the back-end would.
	missing := []int{8, 9, 10, 11, 12, 13, 14, 15}
	rep.Benchmarks["close_round"] = measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			agg, err := privacy.NewAggregator(privacy.UnversionedConfig(params, 16), 1)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range reports {
				if err := agg.Add(r); err != nil {
					b.Fatal(err)
				}
			}
			cells := reports[0].Sketch.Cells()
			for u := 0; u < 8; u++ {
				adj, err := roster.Parties[u].Adjustment(1, cells, missing)
				if err != nil {
					b.Fatal(err)
				}
				if err := agg.ApplyAdjustments(adj); err != nil {
					b.Fatal(err)
				}
			}
			final, err := agg.Finalize()
			if err != nil {
				b.Fatal(err)
			}
			if counts := privacy.UserCounts(final, params); len(counts) == 0 {
				b.Fatal("close round recovered no counts")
			}
		}
	})

	// count_extract is the close's extraction step alone, at the scale a
	// deployment closes at: a paper-geometry sketch that has seen a real
	// fleet (no empty column, so every one of the |A| = 100k IDs counts)
	// swept into the dense count table.
	fmt.Fprintln(os.Stderr, "pipeline: count extraction (saturated sketch, 100k-ID table) ...")
	full := privacy.DefaultParams()
	saturated := newCMS()
	satCells := saturated.FlatCells()
	for i := range satCells {
		satCells[i] = uint64(i%61) + 1
	}
	rep.Benchmarks["count_extract"] = measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, distinct := privacy.CountTable(saturated, full); distinct != int(full.IDSpace) {
				b.Fatalf("saturated sketch counted %d of %d IDs", distinct, full.IDSpace)
			}
		}
	})

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(outPath, out, 0o644); err != nil {
		return err
	}
	fmt.Printf("pipeline benchmarks written to %s\n", outPath)
	names := make([]string, 0, len(rep.Benchmarks))
	for name := range rep.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r := rep.Benchmarks[name]
		line := fmt.Sprintf("  %-22s %12.1f ns/op %8d allocs/op", name, r.NsPerOp, r.AllocsPerOp)
		if base, ok := rep.Baseline[name]; ok && r.NsPerOp > 0 {
			line += fmt.Sprintf("   (%.2fx vs baseline)", base.NsPerOp/r.NsPerOp)
		}
		fmt.Println(line)
	}
	if locked, ok := rep.Benchmarks["round_merge_locked"]; ok {
		if striped, ok := rep.Benchmarks["round_merge_striped"]; ok && striped.NsPerOp > 0 {
			fmt.Printf("  same-round contention: striped merge %.2fx vs single round lock (GOMAXPROCS=%d)\n",
				locked.NsPerOp/striped.NsPerOp, rep.MaxProcs)
		}
	}
	if stream, ok := rep.Benchmarks["submit_report_stream"]; ok {
		if batched, ok := rep.Benchmarks["submit_report_stream_batched"]; ok && batched.NsPerOp > 0 {
			fmt.Printf("  batched acks: %.2fx vs per-frame JSON ack (%d -> %d allocs/op, %d -> %d B/op)\n",
				stream.NsPerOp/batched.NsPerOp,
				stream.AllocsPerOp, batched.AllocsPerOp, stream.BytesPerOp, batched.BytesPerOp)
		}
	}
	if hmacKS, ok := rep.Benchmarks["blind_vector_5k"]; ok {
		if aesKS, ok := rep.Benchmarks["blind_aesctr"]; ok && aesKS.NsPerOp > 0 {
			fmt.Printf("  blinding keystream: aes-ctr %.2fx vs hmac-sha256\n", hmacKS.NsPerOp/aesKS.NsPerOp)
		}
	}
	for _, name := range []string{"cms_merge", "cms_marshal", "cms_unmarshal", "blind_aesctr"} {
		asm, ok1 := rep.Benchmarks[name]
		gen, ok2 := rep.Benchmarks[name+"_purego"]
		if ok1 && ok2 && asm.NsPerOp > 0 {
			fmt.Printf("  simd [%s]: %-14s %.2fx vs pure-Go kernels\n", rep.VecKernel, name, gen.NsPerOp/asm.NsPerOp)
		}
	}
	if e2e, ok := rep.Benchmarks["e2e_ingest_durable"]; ok && e2e.NsPerOp > 0 {
		fmt.Printf("  e2e durable ingest: %.0f reports/min (GOMAXPROCS=%d)\n", 60e9/e2e.NsPerOp, rep.MaxProcs)
	}
	if mc, ok := rep.Benchmarks["multi_campaign_ingest"]; ok && mc.NsPerOp > 0 {
		fmt.Printf("  multi-campaign ingest (8 campaigns, one stream): %.0f reports/min (GOMAXPROCS=%d)\n", 60e9/mc.NsPerOp, rep.MaxProcs)
	}
	if checkPct > 0 || checkNsPct > 0 {
		return checkRegressions(rep, checkPct, checkNsPct)
	}
	return nil
}

// discardSink consumes streamed report frames, touching the cells so the
// decode cannot be optimized away.
type discardSink struct{ sum uint64 }

func (s *discardSink) ConsumeReport(f *wire.ReportFrame) error {
	if len(f.Cells) > 0 {
		s.sum += f.Cells[0] + f.Cells[len(f.Cells)-1]
	}
	return nil
}

// benchIngestion measures one report's full submit round trip over
// loopback TCP as a streamed binary frame (cells read straight into
// pooled slices), first with one JSON ack per frame, then with batched
// binary acks. Client and server run in-process, so allocs/op is the
// whole path's allocation bill.
func benchIngestion(rep *pipelineReport, newCMS func() *sketch.CMS, key []byte) error {
	sink := &discardSink{}
	handler := func(m *wire.Msg) (string, interface{}, error) {
		return "", nil, fmt.Errorf("bench: unexpected message %q", m.Type)
	}
	// The ack batch is pinned (not adaptive): the adaptive cadence reacts
	// to idle flushes, which are timing-dependent, and the regression
	// gate treats allocs/bytes per op as machine-independent — so the
	// tracked row measures the deterministic fixed-k path.
	srv, err := wire.ServeWithSinkOpts("127.0.0.1:0", handler, sink,
		wire.StreamOpts{AckBatch: wire.DefaultAckBatch})
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cli.Close()

	cms := newCMS()
	cms.Update(key)
	frame := &wire.ReportFrame{
		User: 1, Round: 1,
		D: cms.Depth(), W: cms.Width(), N: cms.N(), Seed: cms.Seed(),
		Cells: cms.FlatCells(),
	}
	rep.Benchmarks["submit_report_stream"] = measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := cli.SubmitReportFrame(frame); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Batched acks + pipelining, on a dedicated connection so the
	// row above keeps measuring the per-frame JSON ack round trip: the
	// client keeps a window of frames in flight, the server folds frame k
	// while decoding frame k+1 and answers once per ack batch, so the
	// JSON ack marshal/parse — the streamed path's remaining per-report
	// allocation — disappears along with the per-frame stall.
	cliBatched, err := wire.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cliBatched.Close()
	rep.Benchmarks["submit_report_stream_batched"] = measure(func(b *testing.B) {
		s, err := cliBatched.OpenReportStream(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := s.Submit(frame); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	})
	return nil
}

// benchStore measures the durable round store's hot-path cost.
//
// wal_append is the hot-path cost a durable back-end adds to every
// streamed report: encoding the report event as a CRC-framed WAL record
// (the frame preamble plus the raw cell block, checksummed) — measured
// against io.Discard so the row tracks the CPU cost of the append path
// deterministically, independent of the runner's disk. The fsync is
// deliberately excluded: it is group-committed per ack window, and disk
// latencies on shared CI runners would drown the regression signal.
// The restart cost is measured end to end by the benchmark's recover_ms
// (store.Open plus the back-end's replay).
func benchStore(rep *pipelineReport, newCMS func() *sketch.CMS) {
	cms := newCMS()
	cells := cms.FlatCells()
	for i := range cells {
		cells[i] = uint64(i) * 2_654_435_761
	}
	d, w := cms.Depth(), cms.Width()
	// One long-lived encoder, exactly like the Disk store's: the encode
	// scratch lives in it, so the append path is allocation-free (the row
	// used to carry 3 allocs/op from stack arrays escaping through the
	// io.Writer interface).
	var enc store.RecordEncoder
	rep.Benchmarks["wal_append"] = measure(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := enc.Report(io.Discard, 0, 1, 1, d, w, 50, 0, 0, 0, cells); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchE2EIngest is the whole system under one number: a batched report
// stream over loopback TCP into a real back-end running on a durable
// round store, so every op pays frame encode, wire transfer, pooled
// decode, config-version check, WAL append, group-committed sync (per
// ack window) and the striped fold. It uses the load harness's geometry
// (ε = δ = 0.01, 1360 cells ≈ 11 KB/frame) rather than the paper's 19k
// cells so the WAL the ramp-up writes stays small; reports/min at this
// row is what `eyewnder-sim -load` reports as its summary, and the
// ROADMAP's ≥1M reports/min target reads directly off it on a
// many-core host (60e9 / ns_per_op).
func benchE2EIngest(rep *pipelineReport) error {
	dir, err := os.MkdirTemp("", "eyewnder-bench-e2e")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	// Users bounds the distinct reporters one round accepts; the ramp-up
	// plus the timed run submit one report per distinct user, so give the
	// round plenty of headroom.
	const users = 1 << 21
	params := privacy.Params{Epsilon: 0.01, Delta: 0.01, IDSpace: 20000, Suite: group.P256()}
	be, err := backend.New(backend.Config{
		Params:         params,
		Users:          users,
		UsersEstimator: detector.EstimatorMean,
		Store:          st,
	})
	if err != nil {
		return err
	}
	defer be.Close()
	srv, err := be.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cli.Close()
	cf, err := cli.Handshake()
	if err != nil {
		return err
	}
	rcfg, err := client.RoundConfigFromFrame(cf)
	if err != nil {
		return err
	}
	cms, err := rcfg.Params.NewSketch()
	if err != nil {
		return err
	}
	cells := cms.FlatCells()
	for i := range cells {
		cells[i] = uint64(i) * 2_654_435_761
	}
	frame := &wire.ReportFrame{
		Round: 1,
		D:     cms.Depth(), W: cms.Width(), N: 50, Seed: cms.Seed(),
		Keystream:     byte(rcfg.Params.Keystream),
		ConfigVersion: rcfg.Version,
		Cells:         cells,
	}
	next := 0 // distinct user per submitted report, across ramp-up reruns
	rep.Benchmarks["e2e_ingest_durable"] = measure(func(b *testing.B) {
		s, err := cli.OpenReportStream(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			frame.User = next % users
			next++
			if err := s.Submit(frame); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	})
	return nil
}

// benchMultiCampaignIngest measures the multi-tenant hot path: one
// batched connection carrying report frames for eight concurrent
// campaigns with distinct geometries, demultiplexed by the binary
// preamble tag and folded into eight independent per-campaign rounds.
// The op is one submitted frame (campaigns round-robin across submits),
// so the row is directly comparable with e2e_ingest_durable minus the
// WAL: any regression in the campaign routing, per-campaign config
// resolution, or keyed round lookup shows up here.
func benchMultiCampaignIngest(rep *pipelineReport) error {
	const (
		users     = 1 << 21
		campaigns = 8
	)
	params := privacy.Params{Epsilon: 0.01, Delta: 0.01, IDSpace: 20000, Suite: group.P256()}
	be, err := backend.New(backend.Config{
		Params:         params,
		Users:          users,
		UsersEstimator: detector.EstimatorMean,
	})
	if err != nil {
		return err
	}
	defer be.Close()
	for i := 1; i <= campaigns; i++ {
		if err := be.AddCampaign(campaign.Campaign{
			ID:      uint32(i),
			Name:    fmt.Sprintf("bench-%d", i),
			Epsilon: 0.01 * float64(1+(i-1)%4),
			Delta:   0.01,
			IDSpace: uint64(20000 + 2000*i),
		}); err != nil {
			return err
		}
	}
	srv, err := be.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cli.Close()
	cf, err := cli.Handshake()
	if err != nil {
		return err
	}
	rcfg, err := client.RoundConfigFromFrame(cf)
	if err != nil {
		return err
	}
	dir, err := cli.CampaignDirectory()
	if err != nil {
		return err
	}
	if len(dir) != campaigns {
		return fmt.Errorf("directory advertises %d campaigns, want %d", len(dir), campaigns)
	}
	// One prototype frame per campaign, sized for that campaign's
	// geometry; the timed loop only rotates the user and campaign tag.
	frames := make([]*wire.ReportFrame, campaigns)
	for i, c := range dir {
		cp := c.Params(rcfg.Params)
		cms, err := cp.NewSketch()
		if err != nil {
			return err
		}
		cells := cms.FlatCells()
		for j := range cells {
			cells[j] = uint64(j) * 2_654_435_761
		}
		frames[i] = &wire.ReportFrame{
			Campaign: c.ID, Round: 1,
			D: cms.Depth(), W: cms.Width(), N: 50, Seed: cms.Seed(),
			Keystream:     byte(cp.Keystream),
			ConfigVersion: rcfg.Version,
			Cells:         cells,
		}
	}
	next := 0
	rep.Benchmarks["multi_campaign_ingest"] = measure(func(b *testing.B) {
		s, err := cli.OpenReportStream(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := frames[next%campaigns]
			f.User = next % users
			next++
			if err := s.Submit(f); err != nil {
				b.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	})
	return nil
}

// benchRoundContention measures many reporters folding into the SAME
// round concurrently — the workload that used to serialize on one round
// lock. The locked variant pins the aggregator to a single merge stripe
// (exactly the old behaviour); the striped variant uses the default
// per-row striping. On a many-core host the striped merge scales with
// GOMAXPROCS while the locked one cannot; the ratio of the two entries
// is the tracked scaling number. maxprocs in the report header records
// the parallelism this run actually had.
func benchRoundContention(rep *pipelineReport) error {
	const (
		reporters = 64
		workers   = 8
	)
	params := privacy.Params{Epsilon: 0.001, Delta: 0.001, IDSpace: 20000, Suite: group.P256()}
	reports := make([]*privacy.Report, reporters)
	for u := range reports {
		cms, err := params.NewSketch()
		if err != nil {
			return err
		}
		var k [8]byte
		for a := 0; a < 50; a++ {
			binary.LittleEndian.PutUint64(k[:], uint64((u*37+a*101)%int(params.IDSpace)))
			cms.Update(k[:])
		}
		reports[u] = &privacy.Report{User: u, Round: 1, Sketch: cms}
	}
	run := func(stripes int) func(b *testing.B) {
		return func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				agg, err := privacy.NewAggregatorStripes(privacy.UnversionedConfig(params, reporters), 1, stripes)
				if err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				per := reporters / workers
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(batch []*privacy.Report) {
						defer wg.Done()
						for _, r := range batch {
							if err := agg.Add(r); err != nil {
								panic(err)
							}
						}
					}(reports[w*per : (w+1)*per])
				}
				wg.Wait()
			}
		}
	}
	rep.Benchmarks["round_merge_locked"] = measure(run(1))
	rep.Benchmarks["round_merge_striped"] = measure(run(0))
	return nil
}

// promoteReport merges a re-recorded pipeline report (e.g. the CI
// contention job's many-core artifact) into the committed baseline at
// dstPath: every benchmark row present in the source replaces its
// counterpart (rows can be restricted with `only`), and the source's
// toolchain/maxprocs stamp is adopted so the committed report says
// where its numbers came from. The destination's own `baseline` block
// is left untouched — promotion refreshes the tracked numbers, not the
// historical comparison. This is how the 1-core `round_merge_*`
// baselines get replaced by many-core measurements without hand-editing
// JSON.
func promoteReport(srcPath, dstPath string, only []string) error {
	var src, dst pipelineReport
	for _, f := range []struct {
		path string
		into *pipelineReport
	}{{srcPath, &src}, {dstPath, &dst}} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, f.into); err != nil {
			return fmt.Errorf("parsing %s: %w", f.path, err)
		}
	}
	if dst.Benchmarks == nil {
		dst.Benchmarks = map[string]pipelineResult{}
	}
	wanted := map[string]bool{}
	for _, name := range only {
		if name != "" {
			wanted[name] = true
		}
	}
	promoted := make([]string, 0, len(src.Benchmarks))
	for name, row := range src.Benchmarks {
		if len(wanted) > 0 && !wanted[name] {
			continue
		}
		if _, ok := dst.Benchmarks[name]; !ok && len(wanted) == 0 {
			continue // full promote only refreshes rows the baseline tracks
		}
		dst.Benchmarks[name] = row
		promoted = append(promoted, name)
	}
	for name := range wanted {
		if _, ok := src.Benchmarks[name]; !ok {
			return fmt.Errorf("promote: row %q not in %s", name, srcPath)
		}
	}
	if len(promoted) == 0 {
		return fmt.Errorf("promote: no rows of %s match %s", srcPath, dstPath)
	}
	dst.Go, dst.MaxProcs, dst.VecKernel = src.Go, src.MaxProcs, src.VecKernel
	out, err := json.MarshalIndent(&dst, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if err := os.WriteFile(dstPath, out, 0o644); err != nil {
		return err
	}
	sort.Strings(promoted)
	fmt.Printf("promoted %d row(s) from %s into %s (go %s, maxprocs %d):\n",
		len(promoted), srcPath, dstPath, dst.Go, dst.MaxProcs)
	for _, name := range promoted {
		fmt.Printf("  %s\n", name)
	}
	return nil
}

// trackedMetrics lists, per metric, whether it is deterministic across
// machines. The CI gate fails on regressions in deterministic metrics
// (allocs, bytes) at the tight threshold; ns/op varies with the runner's
// hardware and load, so it gets its own (looser) threshold. A baseline
// row with no counterpart in the fresh report is itself a failure:
// renaming or dropping a benchmark must be an explicit baseline update,
// never a silent way past the gate.
func checkRegressions(rep *pipelineReport, pct, nsPct float64) error {
	var failures []string
	for name := range rep.Baseline {
		if _, ok := rep.Benchmarks[name]; !ok {
			failures = append(failures, fmt.Sprintf(
				"%s: baseline row missing from the fresh report (renamed or deleted benchmark? update the committed baseline explicitly)", name))
		}
	}
	for name, cur := range rep.Benchmarks {
		base, ok := rep.Baseline[name]
		if !ok {
			continue // new benchmark: nothing to regress against
		}
		// Refuse to compare rows recorded under different parallelism: a
		// many-core baseline is not a bound a single-core rerun can be
		// held to (nor the reverse). Rows predating per-row stamps fall
		// back to their report's header stamp.
		baseMax, curMax := base.MaxProcs, cur.MaxProcs
		if baseMax == 0 {
			baseMax = rep.BaselineMaxProcs
		}
		if curMax == 0 {
			curMax = rep.MaxProcs
		}
		if baseMax > 0 && curMax > 0 && baseMax != curMax {
			failures = append(failures, fmt.Sprintf(
				"%s: baseline recorded at GOMAXPROCS=%d but this run used %d — not comparable; rerun with GOMAXPROCS=%d or re-promote the baseline from a matching host",
				name, baseMax, curMax, baseMax))
			continue
		}
		check := func(metric string, got, want float64, threshold float64) {
			if threshold <= 0 || want <= 0 {
				return
			}
			if got > want*(1+threshold/100) {
				failures = append(failures, fmt.Sprintf(
					"%s %s regressed %.1f%% (%.1f -> %.1f, threshold %.0f%%)",
					name, metric, 100*(got/want-1), want, got, threshold))
			}
		}
		check("allocs/op", float64(cur.AllocsPerOp), float64(base.AllocsPerOp), pct)
		check("bytes/op", float64(cur.BytesPerOp), float64(base.BytesPerOp), pct)
		check("ns/op", cur.NsPerOp, base.NsPerOp, nsPct)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "REGRESSION: %s\n", f)
		}
		return fmt.Errorf("pipeline: %d benchmark regression(s) beyond threshold", len(failures))
	}
	fmt.Println("pipeline: no benchmark regressions beyond threshold")
	return nil
}
