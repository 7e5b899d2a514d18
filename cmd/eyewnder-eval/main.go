// Command eyewnder-eval prints every number of the paper's evaluation,
// one mode per run: the privacy-protocol overhead study (Section 7.1),
// the Figure 2 distribution comparison, the controlled simulation study
// (Section 7.2), the live-validation analogue (Section 7.3) and the
// socio-economic bias analysis (Section 8):
//
//	eyewnder-eval -overhead   # CMS sizes, blinding traffic/compute, OPRF latency
//	eyewnder-eval -fig2       # actual vs CMS #Users distributions, 3 weeks
//	eyewnder-eval -table1     # print the simulation configuration
//	eyewnder-eval -fig3       # FN% vs frequency cap (Figure 3)
//	eyewnder-eval -fpstudy 30 # false-positive configurations (§7.2.2)
//	eyewnder-eval -evasion    # evasion trade-off (§7.3.4)
//	eyewnder-eval -ablate     # threshold/window/min-data/sketch ablations
//	eyewnder-eval -fig4       # evaluation tree + unknown resolution + precision
//	eyewnder-eval -table2     # logistic regression odds ratios
//	eyewnder-eval -fig5       # predicted targeting probability per level
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"strings"

	"eyewnder/internal/adsim"
	"eyewnder/internal/experiments"
	"eyewnder/internal/group"
)

func main() {
	var (
		overhead = flag.Bool("overhead", false, "run the §7.1 overhead study")
		fig2     = flag.Bool("fig2", false, "run the Figure 2 comparison")
		fig4     = flag.Bool("fig4", false, "run the Figure 4 evaluation tree")
		table2   = flag.Bool("table2", false, "run the Table 2 regression")
		fig5     = flag.Bool("fig5", false, "print the Figure 5 predicted probabilities")
		table1   = flag.Bool("table1", false, "print the Table 1 configuration")
		fig3     = flag.Bool("fig3", false, "run the Figure 3 sweep")
		fpstudy  = flag.Int("fpstudy", 0, "run N false-positive configurations (§7.2.2)")
		ablate   = flag.Bool("ablate", false, "run the design-choice ablations")
		evasion  = flag.Bool("evasion", false, "run the evasion trade-off study (§7.3.4)")
		reps     = flag.Int("reps", 1, "repetitions per Figure 3 point")
		rsaBits  = flag.Int("rsa-bits", 1024, "oprf RSA modulus (paper: 1024-bit elements)")
		users    = flag.Int("users", 0, "override the population: the Table 1 base for -table1/-fig3/-fpstudy/-evasion/-ablate, the Figure 2 users for -fig2 (0 = the mode's default)")
	)
	flag.Parse()

	// One mode per run. A second mode, or a parameter flag the mode does
	// not read, is a usage error: the run would otherwise quietly print
	// another study than the one asked for.
	var modes []string
	for _, m := range []string{"overhead", "fig2", "fig4", "table2", "fig5", "table1", "fig3", "fpstudy", "evasion", "ablate"} {
		if f := flag.Lookup(m); f.Value.String() != f.DefValue {
			modes = append(modes, m)
		}
	}
	if len(modes) > 1 {
		fmt.Fprintf(os.Stderr, "eyewnder-eval: one mode per run, got -%s\n", strings.Join(modes, " -"))
		os.Exit(2)
	}
	mode := ""
	if len(modes) == 1 {
		mode = modes[0]
	}
	readers := map[string][]string{
		"users":    {"fig2", "table1", "fig3", "fpstudy", "evasion", "ablate"},
		"reps":     {"fig3"},
		"rsa-bits": {"overhead", "fig2"},
	}
	flag.Visit(func(f *flag.Flag) {
		if r, ok := readers[f.Name]; ok && mode != "" && !slices.Contains(r, mode) {
			fmt.Fprintf(os.Stderr, "eyewnder-eval: -%s has no effect on -%s\n", f.Name, mode)
			os.Exit(2)
		}
	})

	base := adsim.DefaultConfig()
	if *users > 0 {
		base.Users = *users
	}
	// Keep campaigns ≫ users, as in the paper's live data (6743 ads for
	// 100 users), so per-ad audiences stay long-tailed.
	base.Campaigns = 4 * base.Users

	switch {
	case *overhead:
		rep, err := experiments.Overhead(*rsaBits, group.P256())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Section 7.1: protocol overhead")
		sizes := make([]int, 0, len(rep.CMSKB))
		for t := range rep.CMSKB {
			sizes = append(sizes, t)
		}
		sort.Ints(sizes)
		for _, t := range sizes {
			fmt.Printf("  CMS size (T=%6d, ε=δ=0.001, 4B cells): %6.0f KB\n", t, rep.CMSKB[t])
		}
		fmt.Printf("  (paper: 185 / 196 / 207 KB)\n")
		fmt.Printf("  cleartext alternative, average user:      %6.1f KB (paper: ~3.5 KB)\n", rep.CleartextAvgKB)
		ns := make([]int, 0, len(rep.BlindingTrafficMB))
		for n := range rep.BlindingTrafficMB {
			ns = append(ns, n)
		}
		sort.Ints(ns)
		for _, n := range ns {
			fmt.Printf("  blinding key exchange, %6d users:      %6.2f MB\n", n, rep.BlindingTrafficMB[n])
		}
		fmt.Printf("  (paper: 0.38 / 1.9 MB with 1024-bit shares)\n")
		fmt.Printf("  blinding compute, 1k users × 5k cells:    %v (paper: ~30 s)\n",
			rep.BlindingComputeFor1kUsers5kCells)
		fmt.Printf("  OPRF mapping round trip:                  %v (paper bound: 500 ms)\n", rep.OPRFRoundTrip)
		fmt.Printf("  OPRF exchange: %d bits (2 group elements)\n", rep.OPRFExchangeBits)

	case *fig2:
		cfg := experiments.DefaultFig2Config()
		cfg.RSABits = *rsaBits
		if *users > 0 {
			cfg.Sim.Users = *users
		}
		weeks, err := experiments.Fig2(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Figure 2: #Users distribution, actual vs privacy-preserving CMS")
		for _, w := range weeks {
			fmt.Printf("  week %d: ads(actual)=%d ads(CMS)=%d  Act_Th=%.2f  CMS_Th=%.2f\n",
				w.Week+1, len(w.ActualCounts), len(w.CMSCounts), w.ActualTh, w.CMSTh)
		}
		fmt.Println("  density series (x, actual, cms) for week 1:")
		if len(weeks) > 0 && len(weeks[0].DensityX) > 0 {
			w := weeks[0]
			for i := 0; i < len(w.DensityX); i += 7 {
				fmt.Printf("    %5.2f  %.4f  %.4f\n", w.DensityX[i], w.ActualDensity[i], w.CMSDensity[i])
			}
		}

	case *fig4:
		res, err := experiments.Fig4(experiments.DefaultFig4Config())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Figure 4: evaluation tree over %d ads (%d targeted / %d static)\n",
			res.TotalAds, res.TargetedAds, res.StaticAds)
		tb, nb, r := res.Tree.Targeted, res.Tree.NonTargeted, res.Rates
		fmt.Printf("classified targeted:      %5d\n", tb.N)
		fmt.Printf("  FP(CR)                  %5d  (%.2f%%)\n", tb.CR, r.FPCRPct)
		fmt.Printf("  TP(CB)                  %5d  (%.2f%%)\n", tb.CB, r.TPCBPct)
		fmt.Printf("  TP(F8)                  %5d  (%.2f%% of labeled)\n", tb.F8Agree, r.TPF8Pct)
		fmt.Printf("  FP(F8)                  %5d  (%.2f%% of labeled)\n", tb.F8Disagree, r.FPF8Pct)
		fmt.Printf("  UNKNOWN                 %5d  (%.2f%%)\n", tb.Unknown, r.UnknownTargetedPct)
		fmt.Printf("classified non-targeted:  %5d\n", nb.N)
		fmt.Printf("  TN(CR)                  %5d  (%.2f%%)\n", nb.CR, r.TNCRPct)
		fmt.Printf("  FN(CB)                  %5d  (%.2f%%)\n", nb.CB, r.FNCBPct)
		fmt.Printf("  TN(F8)                  %5d  (%.2f%% of labeled)\n", nb.F8Agree, r.TNF8Pct)
		fmt.Printf("  FN(F8)                  %5d  (%.2f%% of labeled)\n", nb.F8Disagree, r.FNF8Pct)
		fmt.Printf("  UNKNOWN                 %5d  (%.2f%%)\n", nb.Unknown, r.UnknownNonTargetedPct)
		fmt.Printf("unknown resolution (§7.3.3): likely-TP=%d likely-FP=%d; sampled %d non-targeted → TN=%d FN=%d\n",
			res.Resolution.LikelyTP, res.Resolution.LikelyFP,
			res.Resolution.SampledNonTargeted, res.Resolution.LikelyTN, res.Resolution.LikelyFN)
		fmt.Printf("precision (§7.3.4): likely-TP rate %.0f%% (paper: 78%%), likely-TN rate %.0f%% (paper: 87%%), high-confidence TN %.0f%% (paper: 27%%)\n",
			100*res.Summary.LikelyTPRate, 100*res.Summary.LikelyTNRate, 100*res.Summary.HighConfidenceTNRate)

	case *table2 || *fig5:
		res, err := experiments.Table2(experiments.DefaultTable2Config())
		if err != nil {
			log.Fatal(err)
		}
		if *table2 {
			fmt.Printf("Table 2: logistic regression over %d delivered ads (D ~ G + A + L)\n", res.Observations)
			fmt.Printf("%-18s %8s %8s %8s %10s %18s\n", "Variable", "OR", "SE", "Z-val", "P>|z|", "95% CI")
			for _, row := range res.Rows {
				fmt.Printf("%-18s %8.3f %8.3f %8.3f %10.2g %9.3f-%.3f\n",
					row.Name, row.OR, row.SE, row.Z, row.P, row.CILo, row.CIHi)
			}
			fmt.Printf("employment LRT: stat=%.3f df=%d p=%.3f (dropped, as in the paper)\n",
				res.EmploymentLRTStat, res.EmploymentLRTDF, res.EmploymentLRTP)
		}
		if *fig5 {
			fmt.Println("Figure 5: predicted targeting probability per level")
			factors := make([]string, 0, len(res.Fig5))
			for f := range res.Fig5 {
				factors = append(factors, f)
			}
			sort.Strings(factors)
			for _, f := range factors {
				fmt.Printf("  %s:\n", f)
				levels := make([]string, 0, len(res.Fig5[f]))
				for lv := range res.Fig5[f] {
					levels = append(levels, lv)
				}
				sort.Strings(levels)
				for _, lv := range levels {
					fmt.Printf("    %-14s %.3f\n", lv, res.Fig5[f][lv])
				}
			}
		}

	case *table1:
		fmt.Println("Table 1: Simulation configuration parameters")
		fmt.Printf("  %-28s %v\n", "Number of users", base.Users)
		fmt.Printf("  %-28s %v\n", "Number of websites", base.Sites)
		fmt.Printf("  %-28s %v\n", "Average user visits", base.AvgVisitsPerWeek)
		fmt.Printf("  %-28s %v\n", "Average ads per website", base.AdsPerSite)
		fmt.Printf("  %-28s %v\n", "Percentage of targeted ads", base.TargetedFraction)

	case *fig3:
		cfg := experiments.DefaultFig3Config()
		cfg.Base = base
		cfg.Repetitions = *reps
		pts, err := experiments.Fig3(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Figure 3: False Negatives % vs. Frequency Cap")
		fmt.Printf("%-14s %12s %16s\n", "FrequencyCap", "Mean FN%", "Mean+Median FN%")
		for _, p := range pts {
			fmt.Printf("%-14d %12.1f %16.1f\n", p.FrequencyCap, p.FNMeanPct, p.FNMeanMedianPct)
		}

	case *fpstudy > 0:
		results, err := experiments.FPStudy(base, *fpstudy)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Section 7.2.2: false positives over %d configurations (paper bound: <2%%)\n", len(results))
		worst := 0.0
		for _, r := range results {
			fmt.Printf("  %-60s FP=%.2f%%  (%s)\n", r.Label, r.FPPct, r.Conf)
			if r.FPPct > worst {
				worst = r.FPPct
			}
		}
		fmt.Printf("worst configuration: %.2f%%\n", worst)

	case *evasion:
		pts, err := experiments.EvasionStudy(base, []int{1, 2, 4, 6, 8, 10, 12})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Evading detection (§7.3.4): hiding requires giving up delivery")
		fmt.Printf("%-14s %12s %26s\n", "FrequencyCap", "Evasion %", "impressions/targeted pair")
		for _, p := range pts {
			fmt.Printf("%-14d %12.1f %26.2f\n", p.FrequencyCap, p.EvasionPct, p.ImpressionsPerTargetedPair)
		}

	case *ablate:
		est, err := experiments.AblateEstimators(base)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Ablation: threshold estimators (§4.2 / §7.2.3)")
		for _, a := range est {
			fmt.Printf("  %-14s %s\n", a.Estimator, a.Conf)
		}
		win, err := experiments.AblateWindow(base, []int{1, 3, 7})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Ablation: observation window (days)")
		for _, a := range win {
			fmt.Printf("  %-14d %s\n", a.Days, a.Conf)
		}
		md, err := experiments.AblateMinDomains(base, []int{2, 4, 8})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Ablation: minimum-data rule (domains)")
		for _, a := range md {
			fmt.Printf("  %-14d %s\n", a.MinDomains, a.Conf)
		}
		sk, err := experiments.AblateSketchGeometry(base, [][2]float64{
			{0.1, 0.1}, {0.01, 0.01}, {0.001, 0.001},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println("Ablation: sketch geometry")
		for _, a := range sk {
			fmt.Printf("  ε=%-7g δ=%-7g size=%8.1fKB  mean-overestimate=%.4f\n",
				a.Epsilon, a.Delta, a.SizeKB, a.MeanOverestimate)
		}

	default:
		flag.Usage()
		os.Exit(2)
	}
}
