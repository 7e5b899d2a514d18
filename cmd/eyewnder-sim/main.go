// Command eyewnder-sim runs the controlled simulation study of Section
// 7.2 and prints the paper's tables and series:
//
//	eyewnder-sim -table1          # print the simulation configuration
//	eyewnder-sim -fig3            # FN% vs frequency cap (Figure 3)
//	eyewnder-sim -fpstudy 30      # false-positive configurations (§7.2.2)
//	eyewnder-sim -ablate          # threshold/window/min-data ablations
package main

import (
	"flag"
	"fmt"
	"log"

	"eyewnder/internal/adsim"
	"eyewnder/internal/experiments"
)

func main() {
	var (
		table1  = flag.Bool("table1", false, "print the Table 1 configuration")
		fig3    = flag.Bool("fig3", false, "run the Figure 3 sweep")
		fpstudy = flag.Int("fpstudy", 0, "run N false-positive configurations (§7.2.2)")
		ablate  = flag.Bool("ablate", false, "run the design-choice ablations")
		evasion = flag.Bool("evasion", false, "run the evasion trade-off study (§7.3.4)")
		users   = flag.Int("users", 0, "override user count (0 = Table 1)")
		reps    = flag.Int("reps", 1, "repetitions per Figure 3 point")

		pipeline  = flag.Bool("pipeline", false, "run the end-to-end pipeline demo: adsim pages → detector → campaign mapper → blinded multi-campaign reporting, byte-matched against an unblinded oracle")
		pipeUsers = flag.Int("pipeline-users", 16, "population size in -pipeline mode")
		pipeWeeks = flag.Int("pipeline-weeks", 2, "simulated weeks (reporting rounds) in -pipeline mode")
		pipeCamps = flag.Int("pipeline-campaigns", 8, "counting campaigns to provision in -pipeline mode")

		churnN    = flag.Int("churn", 0, "replay a deterministic N-user population-lifecycle trace (the churn harness)")
		seed      = flag.Uint64("seed", 1, "master seed for -churn and -pipeline (same seed → identical trace and finalized counts)")
		churnRnds = flag.Int("churn-rounds", 4, "rounds to replay in -churn mode")
		churnDir  = flag.String("churn-data-dir", "", "run the -churn back-end on a durable round store in this directory")
		churnArts = flag.String("churn-artifacts", "", "directory for trace + oracle-diff artifacts on a -churn failure")
		churnCamp = flag.Uint("churn-campaign", 0, "scope the whole -churn replay to this campaign ID (0 = the implicit legacy campaign)")

		scrape = flag.String("scrape", "", "with -churn: serve the harness's admin endpoint (/metrics, /healthz, pprof) on this address during the run and fold the /metrics counter deltas into the JSON summary line")
	)
	flag.Parse()

	base := adsim.DefaultConfig()
	// Keep campaigns ≫ users, as in the paper's live data (6743 ads for
	// 100 users), so per-ad audiences stay long-tailed.
	base.Campaigns = 4 * base.Users
	if *users > 0 {
		base.Users = *users
		base.Campaigns = 4 * *users
	}

	switch {
	case *churnN > 0:
		if err := runChurn(churnConfig{
			users: *churnN, rounds: *churnRnds, seed: *seed,
			dataDir: *churnDir, artifacts: *churnArts,
			campaign: uint32(*churnCamp), scrape: *scrape,
		}); err != nil {
			log.Fatal(err)
		}

	case *pipeline:
		if err := runPipeline(pipelineConfig{
			users: *pipeUsers, weeks: *pipeWeeks,
			campaigns: *pipeCamps, seed: int64(*seed),
		}); err != nil {
			log.Fatal(err)
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
	}
}
