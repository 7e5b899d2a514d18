// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (ARCHITECTURE.md §4 maps each paper section to its
// package), plus ablation benches for the design choices behind them.
//
// Each benchmark runs the corresponding experiment end to end and
// reports the headline quantity of the table/figure as a custom metric,
// so `go test -bench=. -benchmem` both times the reproduction and prints
// the reproduced numbers.
//
// Workloads are scaled so a full -bench=. pass finishes in minutes; the
// cmd binaries run the full-size versions.
package eyewnder

import (
	"crypto/rand"
	"testing"
	"time"

	"eyewnder/internal/adsim"
	"eyewnder/internal/detector"
	"eyewnder/internal/experiments"
	"eyewnder/internal/group"
)

// benchSim is the scaled Table 1 configuration shared by the benches.
func benchSim() adsim.Config {
	cfg := adsim.DefaultConfig()
	cfg.Users = 120
	cfg.Sites = 400
	cfg.Campaigns = 600
	cfg.AvgVisitsPerWeek = 80
	cfg.StaticSitesMin, cfg.StaticSitesMax = 2, 120
	return cfg
}

// BenchmarkTable1_SimulationBaseline regenerates the Table 1 workload:
// one full simulated week under the paper's configuration shape.
func BenchmarkTable1_SimulationBaseline(b *testing.B) {
	cfg := benchSim()
	var impressions int
	for i := 0; i < b.N; i++ {
		sim, err := adsim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		res := sim.Run()
		impressions = len(res.Impressions)
	}
	b.ReportMetric(float64(impressions), "impressions")
}

// BenchmarkFig2_UsersDistributionCMSvsActual runs the full privacy
// pipeline (OPRF, blinding, aggregation, enumeration) and reports how far
// the CMS-side threshold drifts from the cleartext one — Figure 2's
// Act_Th vs CMS_Th gap.
func BenchmarkFig2_UsersDistributionCMSvsActual(b *testing.B) {
	cfg := experiments.DefaultFig2Config()
	cfg.Sim.Users = 16
	cfg.Sim.Sites = 60
	cfg.Sim.Campaigns = 50
	cfg.Sim.AvgVisitsPerWeek = 30
	cfg.Sim.Weeks = 1
	var drift float64
	for i := 0; i < b.N; i++ {
		weeks, err := experiments.Fig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		drift = weeks[0].CMSTh - weeks[0].ActualTh
	}
	b.ReportMetric(drift, "threshold-drift")
}

// BenchmarkFig3_FalseNegativesVsFrequencyCap runs the Figure 3 sweep and
// reports the Mean-estimator FN% at frequency cap 7 (the paper's 6-7
// repetitions / <30% FN operating point).
func BenchmarkFig3_FalseNegativesVsFrequencyCap(b *testing.B) {
	cfg := experiments.Fig3Config{
		Base: benchSim(),
		Caps: []int{1, 4, 7, 10},
	}
	var fnAt7 float64
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		fnAt7 = pts[2].FNMeanPct
	}
	b.ReportMetric(fnAt7, "FN%@cap7")
}

// BenchmarkSec722_FalsePositiveConfigurations runs the §7.2.2 FP study
// over overlapping-static-campaign configurations and reports the worst
// FP% observed (paper bound: 2%).
func BenchmarkSec722_FalsePositiveConfigurations(b *testing.B) {
	base := benchSim()
	var worst float64
	for i := 0; i < b.N; i++ {
		results, err := experiments.FPStudy(base, 6)
		if err != nil {
			b.Fatal(err)
		}
		worst = 0
		for _, r := range results {
			if r.FPPct > worst {
				worst = r.FPPct
			}
		}
	}
	b.ReportMetric(worst, "worst-FP%")
}

// BenchmarkSec71_CMSSizeVsCleartext regenerates the §7.1 size table and
// reports the T=100k sketch size in decimal KB (paper: 207).
func BenchmarkSec71_CMSSizeVsCleartext(b *testing.B) {
	var kb float64
	for i := 0; i < b.N; i++ {
		rep, err := experiments.Overhead(1024, group.P256())
		if err != nil {
			b.Fatal(err)
		}
		kb = rep.CMSKB[100000]
	}
	b.ReportMetric(kb, "KB@T=100k")
}

// BenchmarkSec71_OPRFMapping times one ad-URL → ad-ID mapping round trip
// (paper: < 500 ms, 2 × 1024-bit elements exchanged).
func BenchmarkSec71_OPRFMapping(b *testing.B) {
	rep, err := experiments.Overhead(1024, group.P256())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rep.OPRFRoundTrip.Microseconds()), "µs/mapping")
}

// BenchmarkSec71_BlindingFactorsCompute measures deriving one user's
// blinding vector (5k cells) against a roster — the client-side cost the
// paper reports as ~30 s for 1k users.
func BenchmarkSec71_BlindingFactorsCompute(b *testing.B) {
	rep, err := experiments.Overhead(1024, group.P256())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(rep.BlindingComputeFor1kUsers5kCells.Milliseconds()), "ms/1k-users-5k-cells")
}

// BenchmarkFig4_EvaluationTree runs the live-validation analogue and
// reports the likely-TP precision (paper: 78%).
func BenchmarkFig4_EvaluationTree(b *testing.B) {
	cfg := experiments.DefaultFig4Config()
	cfg.Sim.Users = 60
	cfg.Sim.Sites = 800
	cfg.Sim.Campaigns = 3000
	cfg.Sim.Weeks = 2
	cfg.CBThreshold = 3
	var tp float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tp = 100 * res.Summary.LikelyTPRate
	}
	b.ReportMetric(tp, "likely-TP%")
}

// BenchmarkTable2_LogisticRegression runs the Section 8 bias analysis and
// reports the recovered male-gender odds ratio (paper: 0.174).
func BenchmarkTable2_LogisticRegression(b *testing.B) {
	cfg := experiments.DefaultTable2Config()
	cfg.Sim.Users = 250
	var maleOR float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res.Rows {
			if r.Name == "gender:male" {
				maleOR = r.OR
			}
		}
	}
	b.ReportMetric(maleOR, "OR(male)")
}

// BenchmarkFig5_PredictedProbabilities reports the predicted targeting
// probability for the 60-70 age bracket (the strongest positive effect in
// Figure 5).
func BenchmarkFig5_PredictedProbabilities(b *testing.B) {
	cfg := experiments.DefaultTable2Config()
	cfg.Sim.Users = 250
	var p float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		p = res.Fig5["age"]["60-70"]
	}
	b.ReportMetric(p, "P(targeted|60-70)")
}

// --- Ablation benches (design choices; ARCHITECTURE.md §4) ---

// BenchmarkAblation_ThresholdEstimators compares the four estimators and
// reports the FN% spread between the best and worst.
func BenchmarkAblation_ThresholdEstimators(b *testing.B) {
	cfg := benchSim()
	var spread float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblateEstimators(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := 1.0, 0.0
		for _, a := range res {
			fn := a.Conf.FNRate()
			if fn < lo {
				lo = fn
			}
			if fn > hi {
				hi = fn
			}
		}
		spread = 100 * (hi - lo)
	}
	b.ReportMetric(spread, "FN%-spread")
}

// BenchmarkAblation_SketchGeometry sweeps ε/δ and reports the mean
// overestimation at the paper's geometry.
func BenchmarkAblation_SketchGeometry(b *testing.B) {
	cfg := benchSim()
	var over float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblateSketchGeometry(cfg, [][2]float64{
			{0.1, 0.1}, {0.01, 0.01}, {0.001, 0.001},
		})
		if err != nil {
			b.Fatal(err)
		}
		over = res[2].MeanOverestimate
	}
	b.ReportMetric(over, "overestimate@0.001")
}

// BenchmarkAblation_TimeWindow sweeps the observation window.
func BenchmarkAblation_TimeWindow(b *testing.B) {
	cfg := benchSim()
	var classified7 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblateWindow(cfg, []int{1, 3, 7})
		if err != nil {
			b.Fatal(err)
		}
		classified7 = float64(res[2].Conf.Classified())
	}
	b.ReportMetric(classified7, "pairs@7d")
}

// BenchmarkAblation_MinimumData sweeps the minimum-data rule.
func BenchmarkAblation_MinimumData(b *testing.B) {
	cfg := benchSim()
	var unknowns float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblateMinDomains(cfg, []int{2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		unknowns = float64(res[2].Conf.Unknown)
	}
	b.ReportMetric(unknowns, "unknown@min8")
}

// BenchmarkAblation_BlindingGroup compares the two DH suites for the
// blinding key agreement (P-256 vs 2048-bit MODP): pairwise-secret
// derivation time and bulletin-board traffic at 10k users.
func BenchmarkAblation_BlindingGroup(b *testing.B) {
	for _, suite := range []group.Suite{group.P256(), group.MODP2048()} {
		b.Run(suite.Name(), func(b *testing.B) {
			a, err := suite.GenerateKey(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			peer, err := suite.GenerateKey(rand.Reader)
			if err != nil {
				b.Fatal(err)
			}
			pub := peer.PublicKey()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.SharedSecret(pub); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(group.Suite(suite).PublicKeySize()*10000)/1e6, "MB@10k-users")
		})
	}
}

// BenchmarkDetectorClassifyEndToEnd measures the in-browser audit path of
// the facade: detector classification against published thresholds.
func BenchmarkDetectorClassifyEndToEnd(b *testing.B) {
	u := detector.NewUserState(detector.DefaultConfig())
	for i := 0; i < 40; i++ {
		u.Observe("ad", "site.example", adsim.SimStart)
	}
	now := adsim.SimStart.Add(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Classify("ad", 3, 5, now)
	}
}
