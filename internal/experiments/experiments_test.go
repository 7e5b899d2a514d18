package experiments

import (
	"testing"

	"eyewnder/internal/adsim"
	"eyewnder/internal/detector"
	"eyewnder/internal/group"
)

// fastSim is a scaled-down Table 1 config for test speed.
func fastSim() adsim.Config {
	cfg := adsim.DefaultConfig()
	cfg.Users = 120
	cfg.Sites = 250
	cfg.Campaigns = 120
	cfg.AvgVisitsPerWeek = 70
	cfg.StaticSitesMin, cfg.StaticSitesMax = 10, 60
	return cfg
}

func TestFig3Shape(t *testing.T) {
	cfg := Fig3Config{
		Base:        fastSim(),
		Caps:        []int{1, 4, 8, 12},
		Repetitions: 1,
	}
	pts, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	// Shape check 1: FN falls as the frequency cap rises (more
	// repetitions → easier detection), for both estimators.
	if !(pts[0].FNMeanPct > pts[3].FNMeanPct) {
		t.Fatalf("Mean FN did not fall: cap1=%.1f cap12=%.1f",
			pts[0].FNMeanPct, pts[3].FNMeanPct)
	}
	if !(pts[0].FNMeanMedianPct > pts[3].FNMeanMedianPct) {
		t.Fatalf("Mean+Median FN did not fall: cap1=%.1f cap12=%.1f",
			pts[0].FNMeanMedianPct, pts[3].FNMeanMedianPct)
	}
	// Shape check 2: at cap 1 a single appearance is indistinguishable
	// from non-targeted ads — both estimators miss essentially everything
	// (the figure starts near 100%).
	if pts[0].FNMeanPct < 60 {
		t.Fatalf("cap-1 FN = %.1f%%, expected near-total misses", pts[0].FNMeanPct)
	}
	// At moderate caps Mean detects at least as early as Mean+Median
	// (the figure's curves: Mean is below Mean+Median until both floor).
	if pts[1].FNMeanPct > pts[1].FNMeanMedianPct+1e-9 {
		t.Fatalf("at cap 4 Mean %.1f%% should not trail Mean+Median %.1f%%",
			pts[1].FNMeanPct, pts[1].FNMeanMedianPct)
	}
	// Shape check 3: with generous caps the Mean estimator reaches a
	// usable FN level (paper: <30% at cap 6-7).
	if pts[2].FNMeanPct > 40 {
		t.Fatalf("Mean FN at cap 8 = %.1f%%, want reasonably low", pts[2].FNMeanPct)
	}
}

func TestFPStudyBelowPaperBound(t *testing.T) {
	// The 2% bound assumes the paper's regime: far more distinct ads than
	// panel users (their live dataset had 6743 ads for 100 users), which
	// keeps Users_th low.
	cfg := fastSim()
	cfg.Sites = 500
	cfg.Campaigns = 1200
	results, err := FPStudy(cfg, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 8 {
		t.Fatalf("configs = %d", len(results))
	}
	// Paper: FP < 2% over 30+ configurations. Allow modest slack for the
	// scaled-down population.
	for _, r := range results {
		if r.FPPct > 4 {
			t.Errorf("config %q FP = %.2f%%, exceeds bound", r.Label, r.FPPct)
		}
		if r.Label == "" {
			t.Error("empty config label")
		}
	}
}

func TestFig2CMSTrackActual(t *testing.T) {
	cfg := DefaultFig2Config()
	cfg.Sim.Users = 24
	cfg.Sim.Sites = 80
	cfg.Sim.Campaigns = 40
	cfg.Sim.AvgVisitsPerWeek = 40
	cfg.Sim.Weeks = 2
	weeks, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(weeks) != 2 {
		t.Fatalf("weeks = %d", len(weeks))
	}
	for _, w := range weeks {
		if len(w.ActualCounts) == 0 || len(w.CMSCounts) == 0 {
			t.Fatalf("week %d: empty distributions", w.Week)
		}
		// The CMS threshold tracks the actual one, but not from above
		// only. The OPRF key is random, so the ad → ID mapping changes
		// from run to run: an ID shared by two ads counts their audiences'
		// union once, and a phantom ID (every row cell hit by other IDs)
		// adds a low count — both pull the sample mean under the true one.
		// Measured over 1 000 weeks of this configuration (500 runs, a
		// fresh key each): CMS_Th / Act_Th in [0.977, 1.024], 63 weeks
		// below 1 (41 of the 500 runs failed a CMS_Th ≥ Act_Th check). The
		// lowest is one phantom ID of count 1 among 40 ads,
		// (40·18.1 + 1)/41 = 17.68 against 18.10. The 5 % tolerance is
		// twice that deficit: it admits two count-1 phantom IDs (0.955).
		if w.CMSTh < w.ActualTh*0.95 {
			t.Fatalf("week %d: CMS_Th %.3f more than 5%% below Act_Th %.3f", w.Week, w.CMSTh, w.ActualTh)
		}
		if w.CMSTh > w.ActualTh*1.5+1 {
			t.Fatalf("week %d: CMS_Th %.3f far above Act_Th %.3f", w.Week, w.CMSTh, w.ActualTh)
		}
		if len(w.DensityX) != 50 || len(w.ActualDensity) != 50 || len(w.CMSDensity) != 50 {
			t.Fatalf("week %d: density curves missing", w.Week)
		}
	}
}

func TestOverheadMatchesPaperNumbers(t *testing.T) {
	rep, err := Overhead(1024, group.P256())
	if err != nil {
		t.Fatal(err)
	}
	// Exact CMS sizes from Section 7.1.
	for tSize, want := range map[int]float64{10000: 185, 50000: 196, 100000: 207} {
		got := rep.CMSKB[tSize]
		if got < want-1 || got > want+1 {
			t.Errorf("CMS KB for T=%d: %.1f, paper reports %.0f", tSize, got, want)
		}
	}
	if rep.CleartextAvgKB != 3.5 {
		t.Errorf("cleartext = %.1f KB", rep.CleartextAvgKB)
	}
	// Blinding traffic is linear in users.
	if rep.BlindingTrafficMB[50000] <= rep.BlindingTrafficMB[10000] {
		t.Error("blinding traffic not increasing")
	}
	// OPRF mapping under the paper's 500 ms budget, exchanging 2 × 1024
	// bits.
	if rep.OPRFRoundTrip.Milliseconds() > 500 {
		t.Errorf("OPRF round trip = %v, paper bound 500ms", rep.OPRFRoundTrip)
	}
	if rep.OPRFExchangeBits != 2048 {
		t.Errorf("exchange bits = %d", rep.OPRFExchangeBits)
	}
	if rep.BlindingComputeFor1kUsers5kCells <= 0 {
		t.Error("blinding compute not measured")
	}
}

func TestFig4TreePopulatedAndPrecise(t *testing.T) {
	cfg := DefaultFig4Config()
	cfg.Sim.Users = 60
	cfg.Sim.Sites = 800
	cfg.Sim.Campaigns = 3000
	cfg.Sim.Weeks = 2
	cfg.CBThreshold = 3
	res, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalAds == 0 || res.TargetedAds == 0 || res.StaticAds == 0 {
		t.Fatalf("dataset header empty: %+v", res)
	}
	if res.Tree.Targeted.N == 0 || res.Tree.NonTargeted.N == 0 {
		t.Fatalf("tree branches empty: %+v", res.Tree)
	}
	// The static mass dominates, as in the paper (6560 vs 183).
	if res.Tree.NonTargeted.N < res.Tree.Targeted.N {
		t.Fatalf("non-targeted branch (%d) smaller than targeted (%d)",
			res.Tree.NonTargeted.N, res.Tree.Targeted.N)
	}
	// Precision shape (paper: TP 78%, TN 87%): allow generous slack but
	// require the system to be clearly better than coin-flipping.
	if res.Summary.LikelyTPRate < 0.5 {
		t.Fatalf("likely-TP rate = %.2f, want > 0.5", res.Summary.LikelyTPRate)
	}
	if res.Summary.LikelyTNRate < 0.6 {
		t.Fatalf("likely-TN rate = %.2f, want > 0.6", res.Summary.LikelyTNRate)
	}
	if res.Summary.HighConfidenceTNRate <= 0 {
		t.Fatal("no crawler-corroborated TNs")
	}
	// One LabelSeed, one figure: a second run must print the same tree,
	// resolution and precision.
	again, err := Fig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *again.Tree != *res.Tree || again.Resolution != res.Resolution || again.Summary != res.Summary {
		t.Fatalf("Fig4 not reproducible under one LabelSeed:\n%+v %+v %+v\n%+v %+v %+v",
			*res.Tree, res.Resolution, res.Summary, *again.Tree, again.Resolution, again.Summary)
	}
}

func TestTable2RecoversPlantedBiases(t *testing.T) {
	cfg := DefaultTable2Config()
	cfg.Users = 300
	cfg.AvgVisitsPerWeek = 80
	res, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Observations < 1000 {
		t.Fatalf("observations = %d", res.Observations)
	}
	rows := map[string]float64{}
	for _, r := range res.Rows {
		rows[r.Name] = r.OR
	}
	// Gender bias: female and male both below 1 (base: undisclosed),
	// with male below female — the paper's strongest effects.
	if !(rows["gender:female"] < 1 && rows["gender:male"] < 1) {
		t.Fatalf("gender ORs not < 1: f=%.3f m=%.3f", rows["gender:female"], rows["gender:male"])
	}
	if rows["gender:male"] >= rows["gender:female"] {
		t.Fatalf("male OR %.3f should be below female %.3f", rows["gender:male"], rows["gender:female"])
	}
	// Income: mid brackets above 1, top bracket below 1.
	if !(rows["income:30k-60k"] > 1 && rows["income:60k-90k"] > 1) {
		t.Fatalf("mid-income ORs: %.3f / %.3f", rows["income:30k-60k"], rows["income:60k-90k"])
	}
	if rows["income:90k-..."] >= 1 {
		t.Fatalf("top income OR = %.3f, want < 1", rows["income:90k-..."])
	}
	// Age 60-70 strongest positive age effect.
	if rows["age:60-70"] <= 1 {
		t.Fatalf("age 60-70 OR = %.3f, want > 1", rows["age:60-70"])
	}
	// Employment carries no planted signal: the LRT must not be strongly
	// significant.
	if res.EmploymentLRTP < 0.001 {
		t.Fatalf("employment LRT p = %v — phantom signal", res.EmploymentLRTP)
	}
	// Figure 5 probabilities exist for every level and live in (0,1).
	for f, levels := range res.Fig5 {
		for lv, p := range levels {
			if p <= 0 || p >= 1 {
				t.Fatalf("Fig5[%s][%s] = %v", f, lv, p)
			}
		}
	}
	if res.Fig5["gender"]["male"] >= res.Fig5["gender"]["undisclosed"] {
		t.Fatal("Fig5 gender ordering lost")
	}
}

// fastRun simulates fastSim once, for the ablations that share a run.
func fastRun(t *testing.T) (*adsim.Simulator, *adsim.Result) {
	t.Helper()
	sim, err := adsim.New(fastSim())
	if err != nil {
		t.Fatal(err)
	}
	return sim, sim.Run()
}

func TestAblateEstimators(t *testing.T) {
	res := AblateEstimators(fastRun(t))
	if len(res) != 4 {
		t.Fatalf("ablations = %d", len(res))
	}
	for _, a := range res {
		if classified(a.Conf) == 0 {
			t.Fatalf("estimator %v classified nothing", a.Estimator)
		}
	}
}

func TestAblateWindow(t *testing.T) {
	sim, run := fastRun(t)
	res := AblateWindow(sim, run, []int{1, 3, 7})
	if len(res) != 3 {
		t.Fatalf("windows = %d", len(res))
	}
	// More days → more data → more pairs classified.
	if classified(res[2].Conf) <= classified(res[0].Conf) {
		t.Fatalf("7-day window classified %d <= 1-day %d",
			classified(res[2].Conf), classified(res[0].Conf))
	}
}

func TestAblateMinDomains(t *testing.T) {
	sim, run := fastRun(t)
	res := AblateMinDomains(sim, run, []int{2, 4, 8})
	// Stricter minimum-data rule → at least as many Unknowns.
	if res[2].Conf.Unknown < res[0].Conf.Unknown {
		t.Fatalf("min=8 unknowns %d < min=2 unknowns %d",
			res[2].Conf.Unknown, res[0].Conf.Unknown)
	}
}

func TestAblateSketchGeometry(t *testing.T) {
	_, run := fastRun(t)
	res, err := AblateSketchGeometry(run, [][2]float64{
		{0.1, 0.1}, {0.01, 0.01}, {0.001, 0.001},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("geometries = %d", len(res))
	}
	// Tighter epsilon → bigger sketch, less overestimation.
	if res[2].SizeKB <= res[0].SizeKB {
		t.Fatal("size not increasing with tighter epsilon")
	}
	if res[2].MeanOverestimate > res[0].MeanOverestimate {
		t.Fatal("overestimation not shrinking with tighter epsilon")
	}
	if res[2].MeanOverestimate < 0 {
		t.Fatal("negative overestimation: CMS underestimated")
	}
}

func TestConfusionAccessors(t *testing.T) {
	c := Confusion{TP: 3, FP: 1, TN: 5, FN: 1, Unknown: 2}
	if c.FNRate() != 0.25 {
		t.Fatalf("FNRate = %v", c.FNRate())
	}
	if c.FPRate() != float64(1)/6 {
		t.Fatalf("FPRate = %v", c.FPRate())
	}
	if (Confusion{}).FNRate() != 0 || (Confusion{}).FPRate() != 0 {
		t.Fatal("empty confusion rates")
	}
	if c.String() == "" {
		t.Fatal("empty String")
	}
}

func TestEvaluateWeekDeterministic(t *testing.T) {
	cfg := fastSim()
	sim1, _ := adsim.New(cfg)
	res1 := sim1.Run()
	sim2, _ := adsim.New(cfg)
	res2 := sim2.Run()
	a := EvaluateWeek(sim1, res1, 0, detector.EstimatorMean, detector.EstimatorMean, 4)
	b := EvaluateWeek(sim2, res2, 0, detector.EstimatorMean, detector.EstimatorMean, 4)
	if a != b {
		t.Fatalf("non-deterministic evaluation: %+v vs %+v", a, b)
	}
}

// classified counts the pairs the detector gave a verdict.
func classified(c Confusion) int { return c.TP + c.FP + c.TN + c.FN }
