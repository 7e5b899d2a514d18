package experiments

import (
	"fmt"
	"io"
	"maps"
	"slices"

	"eyewnder/internal/adsim"
	"eyewnder/internal/group"
)

// Params are the knobs a study may read; zero means the study's default.
// Users is the Table 1 base (Users users, 4·Users campaigns) or the
// Figure 2 roster; Reps the repeats per Figure 3 cap (default 1) or the
// false-positive configurations (default 30); RSABits the OPRF RSA
// modulus (default 1024, the paper's).
type Params struct{ Users, Reps, RSABits int }

// Study is one reproducible paper result: a name to run it by, the paper
// section it reproduces, the Params fields it reads (by their command
// flag names: "users", "reps", "rsa-bits") and the run that prints it.
type Study struct {
	Name, Section string
	Reads         []string
	Run           func(Params, io.Writer) error
}

// Studies are the paper's evaluation, in paper order.
var Studies = []Study{
	{"overhead", "§7.1 protocol overhead", []string{"rsa-bits"}, runOverhead},
	{"fig2", "§7.1 Figure 2", []string{"users", "rsa-bits"}, runFig2},
	{"table1", "§7.2 Table 1", []string{"users"}, runTable1},
	{"fig3", "§7.2 Figure 3", []string{"users", "reps"}, runFig3},
	{"fpstudy", "§7.2.2 false positives", []string{"users", "reps"}, runFPStudy},
	{"evasion", "§7.3.4 evasion", []string{"users"}, runEvasion},
	{"ablate", "§4.2, §7.2.3 ablations", []string{"users"}, runAblate},
	{"fig4", "§7.3 Figure 4", nil, runFig4},
	{"table2", "§8 Table 2", nil, runTable2},
	{"fig5", "§8 Figure 5", nil, runFig5},
}

// orDefault returns v, or def when v is unset.
func orDefault(v, def int) int {
	if v > 0 {
		return v
	}
	return def
}

// tableBase is the Table 1 simulation base at p.Users users.
func tableBase(p Params) adsim.Config {
	base := adsim.DefaultConfig()
	base.Users = orDefault(p.Users, base.Users)
	// Keep campaigns ≫ users, as in the paper's live data (6743 ads for
	// 100 users), so per-ad audiences stay long-tailed.
	base.Campaigns = 4 * base.Users
	return base
}

func runOverhead(p Params, w io.Writer) error {
	rep, err := Overhead(orDefault(p.RSABits, 1024), group.P256())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Section 7.1: protocol overhead")
	for _, t := range slices.Sorted(maps.Keys(rep.CMSKB)) {
		fmt.Fprintf(w, "  CMS size (T=%6d, ε=δ=0.001, 4B cells): %6.0f KB\n", t, rep.CMSKB[t])
	}
	fmt.Fprintf(w, "  (paper: 185 / 196 / 207 KB)\n")
	fmt.Fprintf(w, "  cleartext alternative, average user:      %6.1f KB (paper: ~3.5 KB)\n", rep.CleartextAvgKB)
	for _, n := range slices.Sorted(maps.Keys(rep.BlindingTrafficMB)) {
		fmt.Fprintf(w, "  blinding key exchange, %6d users:      %6.2f MB\n", n, rep.BlindingTrafficMB[n])
	}
	fmt.Fprintf(w, "  (paper: 0.38 / 1.9 MB with 1024-bit shares)\n")
	fmt.Fprintf(w, "  blinding compute, 1k users × 5k cells:    %v (paper: ~30 s)\n",
		rep.BlindingComputeFor1kUsers5kCells)
	fmt.Fprintf(w, "  OPRF mapping round trip:                  %v (paper bound: 500 ms)\n", rep.OPRFRoundTrip)
	fmt.Fprintf(w, "  OPRF exchange: %d bits (2 group elements)\n", rep.OPRFExchangeBits)
	return nil
}

func runFig2(p Params, w io.Writer) error {
	cfg := DefaultFig2Config()
	cfg.RSABits = orDefault(p.RSABits, cfg.RSABits)
	cfg.Sim.Users = orDefault(p.Users, cfg.Sim.Users)
	weeks, err := Fig2(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 2: #Users distribution, actual vs privacy-preserving CMS")
	for _, wk := range weeks {
		fmt.Fprintf(w, "  week %d: ads(actual)=%d ads(CMS)=%d  Act_Th=%.2f  CMS_Th=%.2f\n",
			wk.Week+1, len(wk.ActualCounts), len(wk.CMSCounts), wk.ActualTh, wk.CMSTh)
	}
	fmt.Fprintln(w, "  density series (x, actual, cms) for week 1:")
	if len(weeks) > 0 {
		for i, wk := 0, weeks[0]; i < len(wk.DensityX); i += 7 {
			fmt.Fprintf(w, "    %5.2f  %.4f  %.4f\n", wk.DensityX[i], wk.ActualDensity[i], wk.CMSDensity[i])
		}
	}
	return nil
}

func runTable1(p Params, w io.Writer) error {
	base := tableBase(p)
	fmt.Fprintln(w, "Table 1: Simulation configuration parameters")
	fmt.Fprintf(w, "  %-28s %v\n", "Number of users", base.Users)
	fmt.Fprintf(w, "  %-28s %v\n", "Number of websites", base.Sites)
	fmt.Fprintf(w, "  %-28s %v\n", "Average user visits", base.AvgVisitsPerWeek)
	fmt.Fprintf(w, "  %-28s %v\n", "Average ads per website", base.AdsPerSite)
	fmt.Fprintf(w, "  %-28s %v\n", "Percentage of targeted ads", base.TargetedFraction)
	return nil
}

func runFig3(p Params, w io.Writer) error {
	cfg := DefaultFig3Config()
	cfg.Base = tableBase(p)
	cfg.Repetitions = orDefault(p.Reps, cfg.Repetitions)
	pts, err := Fig3(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 3: False Negatives % vs. Frequency Cap")
	fmt.Fprintf(w, "%-14s %12s %16s\n", "FrequencyCap", "Mean FN%", "Mean+Median FN%")
	for _, pt := range pts {
		fmt.Fprintf(w, "%-14d %12.1f %16.1f\n", pt.FrequencyCap, pt.FNMeanPct, pt.FNMeanMedianPct)
	}
	return nil
}

func runFPStudy(p Params, w io.Writer) error {
	results, err := FPStudy(tableBase(p), orDefault(p.Reps, 30))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Section 7.2.2: false positives over %d configurations (paper bound: <2%%)\n", len(results))
	worst := 0.0
	for _, r := range results {
		fmt.Fprintf(w, "  %-60s FP=%.2f%%  (%s)\n", r.Label, r.FPPct, r.Conf)
		worst = max(worst, r.FPPct)
	}
	fmt.Fprintf(w, "worst configuration: %.2f%%\n", worst)
	return nil
}

func runEvasion(p Params, w io.Writer) error {
	pts, err := EvasionStudy(tableBase(p), []int{1, 2, 4, 6, 8, 10, 12})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Evading detection (§7.3.4): hiding requires giving up delivery")
	fmt.Fprintf(w, "%-14s %12s %26s\n", "FrequencyCap", "Evasion %", "impressions/targeted pair")
	for _, pt := range pts {
		fmt.Fprintf(w, "%-14d %12.1f %26.2f\n", pt.FrequencyCap, pt.EvasionPct, pt.ImpressionsPerTargetedPair)
	}
	return nil
}

func runAblate(p Params, w io.Writer) error {
	sim, err := adsim.New(tableBase(p))
	if err != nil {
		return err
	}
	res := sim.Run()
	fmt.Fprintln(w, "Ablation: threshold estimators (§4.2 / §7.2.3)")
	for _, a := range AblateEstimators(sim, res) {
		fmt.Fprintf(w, "  %-14s %s\n", a.Estimator, a.Conf)
	}
	fmt.Fprintln(w, "Ablation: observation window (days)")
	for _, a := range AblateWindow(sim, res, []int{1, 3, 7}) {
		fmt.Fprintf(w, "  %-14d %s\n", a.Days, a.Conf)
	}
	fmt.Fprintln(w, "Ablation: minimum-data rule (domains)")
	for _, a := range AblateMinDomains(sim, res, []int{2, 4, 8}) {
		fmt.Fprintf(w, "  %-14d %s\n", a.MinDomains, a.Conf)
	}
	sk, err := AblateSketchGeometry(res, [][2]float64{{0.1, 0.1}, {0.01, 0.01}, {0.001, 0.001}})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Ablation: sketch geometry")
	for _, a := range sk {
		fmt.Fprintf(w, "  ε=%-7g δ=%-7g size=%8.1fKB  mean-overestimate=%.4f\n",
			a.Epsilon, a.Delta, a.SizeKB, a.MeanOverestimate)
	}
	return nil
}

func runFig4(_ Params, w io.Writer) error {
	res, err := Fig4(DefaultFig4Config())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Figure 4: evaluation tree over %d ads (%d targeted / %d static)\n",
		res.TotalAds, res.TargetedAds, res.StaticAds)
	tb, nb, r := res.Tree.Targeted, res.Tree.NonTargeted, res.Rates
	fmt.Fprintf(w, "classified targeted:      %5d\n", tb.N)
	fmt.Fprintf(w, "  FP(CR)                  %5d  (%.2f%%)\n", tb.CR, r.FPCRPct)
	fmt.Fprintf(w, "  TP(CB)                  %5d  (%.2f%%)\n", tb.CB, r.TPCBPct)
	fmt.Fprintf(w, "  TP(F8)                  %5d  (%.2f%% of labeled)\n", tb.F8Agree, r.TPF8Pct)
	fmt.Fprintf(w, "  FP(F8)                  %5d  (%.2f%% of labeled)\n", tb.F8Disagree, r.FPF8Pct)
	fmt.Fprintf(w, "  UNKNOWN                 %5d  (%.2f%%)\n", tb.Unknown, r.UnknownTargetedPct)
	fmt.Fprintf(w, "classified non-targeted:  %5d\n", nb.N)
	fmt.Fprintf(w, "  TN(CR)                  %5d  (%.2f%%)\n", nb.CR, r.TNCRPct)
	fmt.Fprintf(w, "  FN(CB)                  %5d  (%.2f%%)\n", nb.CB, r.FNCBPct)
	fmt.Fprintf(w, "  TN(F8)                  %5d  (%.2f%% of labeled)\n", nb.F8Agree, r.TNF8Pct)
	fmt.Fprintf(w, "  FN(F8)                  %5d  (%.2f%% of labeled)\n", nb.F8Disagree, r.FNF8Pct)
	fmt.Fprintf(w, "  UNKNOWN                 %5d  (%.2f%%)\n", nb.Unknown, r.UnknownNonTargetedPct)
	fmt.Fprintf(w, "unknown resolution (§7.3.3): likely-TP=%d likely-FP=%d; sampled %d non-targeted → TN=%d FN=%d\n",
		res.Resolution.LikelyTP, res.Resolution.LikelyFP,
		res.Resolution.SampledNonTargeted, res.Resolution.LikelyTN, res.Resolution.LikelyFN)
	fmt.Fprintf(w, "precision (§7.3.4): likely-TP rate %.0f%% (paper: 78%%), likely-TN rate %.0f%% (paper: 87%%), high-confidence TN %.0f%% (paper: 27%%)\n",
		100*res.Summary.LikelyTPRate, 100*res.Summary.LikelyTNRate, 100*res.Summary.HighConfidenceTNRate)
	return nil
}

func runTable2(_ Params, w io.Writer) error {
	res, err := Table2(DefaultTable2Config())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "Table 2: logistic regression over %d delivered ads (D ~ G + A + L)\n", res.Observations)
	fmt.Fprintf(w, "%-18s %8s %8s %8s %10s %18s\n", "Variable", "OR", "SE", "Z-val", "P>|z|", "95% CI")
	for _, row := range res.Rows {
		fmt.Fprintf(w, "%-18s %8.3f %8.3f %8.3f %10.2g %9.3f-%.3f\n",
			row.Name, row.OR, row.SE, row.Z, row.P, row.CILo, row.CIHi)
	}
	fmt.Fprintf(w, "employment LRT: stat=%.3f df=%d p=%.3f (dropped, as in the paper)\n",
		res.EmploymentLRTStat, res.EmploymentLRTDF, res.EmploymentLRTP)
	return nil
}

func runFig5(_ Params, w io.Writer) error {
	res, err := Table2(DefaultTable2Config())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 5: predicted targeting probability per level")
	for _, f := range slices.Sorted(maps.Keys(res.Fig5)) {
		fmt.Fprintf(w, "  %s:\n", f)
		for _, lv := range slices.Sorted(maps.Keys(res.Fig5[f])) {
			fmt.Fprintf(w, "    %-14s %.3f\n", lv, res.Fig5[f][lv])
		}
	}
	return nil
}
