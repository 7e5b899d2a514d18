// Command eyewnder-sim runs the whole-system harnesses, each seeded and
// checked against an oracle (the paper's numbers come from
// eyewnder-eval):
//
//	eyewnder-sim -churn 64     # population-lifecycle trace vs. its oracle
//	eyewnder-sim -pipeline     # adsim pages → detector → blinded campaigns
package main

import (
	"flag"
	"log"
	"os"
)

func main() {
	var (
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

	default:
		flag.Usage()
		os.Exit(2)
	}
}
