package experiments

import (
	"fmt"

	"eyewnder/internal/adsim"
	"eyewnder/internal/detector"
)

// Fig3Point is one x-position of Figure 3: the false-negative percentage
// at a given frequency cap, under the Mean and Mean+Median threshold
// estimators.
type Fig3Point struct {
	FrequencyCap    int
	FNMeanPct       float64
	FNMeanMedianPct float64
}

// Fig3Config parametrizes the sweep.
type Fig3Config struct {
	// Base is the simulation configuration (Table 1 by default).
	Base adsim.Config
	// Caps are the frequency-cap values to sweep (paper: 1..12).
	Caps []int
	// Repetitions averages each point over several seeds.
	Repetitions int
}

// DefaultFig3Config mirrors the paper: Table 1 base, caps 1..12.
func DefaultFig3Config() Fig3Config {
	caps := make([]int, 12)
	for i := range caps {
		caps[i] = i + 1
	}
	return Fig3Config{Base: adsim.DefaultConfig(), Caps: caps, Repetitions: 1}
}

// Fig3 runs the false-negatives-vs-frequency-cap sweep. Both estimators
// are applied to BOTH thresholds (#Users and #Domains), as in the figure.
func Fig3(cfg Fig3Config) ([]Fig3Point, error) {
	out := make([]Fig3Point, 0, len(cfg.Caps))
	for _, cap := range cfg.Caps {
		var mean, mm Confusion // summed over the repetitions
		for rep := 0; rep < cfg.Repetitions; rep++ {
			simCfg := cfg.Base
			simCfg.FrequencyCap = cap
			simCfg.Seed = cfg.Base.Seed + int64(rep)*1000 + int64(cap)
			sim, err := adsim.New(simCfg)
			if err != nil {
				return nil, err
			}
			res := sim.Run()
			mean = mean.add(EvaluateWeek(sim, res, 0,
				detector.EstimatorMean, detector.EstimatorMean, 4))
			mm = mm.add(EvaluateWeek(sim, res, 0,
				detector.EstimatorMeanPlusMedian, detector.EstimatorMeanPlusMedian, 4))
		}
		out = append(out, Fig3Point{FrequencyCap: cap,
			FNMeanPct: 100 * mean.FNRate(), FNMeanMedianPct: 100 * mm.FNRate()})
	}
	return out, nil
}

// FPStudyResult is one configuration of the Section 7.2.2 false-positive
// study.
type FPStudyResult struct {
	// Label describes the configuration.
	Label string
	Conf  Confusion
	FPPct float64
}

// FPStudy runs the overlapping-static-campaign scenarios of Section
// 7.2.2: cohorts of users share interests (and therefore sites) that
// carry large static campaigns, so the same non-targeted ad follows them
// across domains. The paper reports FP below 2% over 30+ configurations;
// the sweep here varies cohort tightness, static reach, and inventory mix.
func FPStudy(base adsim.Config, configs int) ([]FPStudyResult, error) {
	var out []FPStudyResult
	for i := 0; i < configs; i++ {
		cfg := base
		cfg.Seed = base.Seed + int64(i)*17
		// Vary the pressure: tighter interest cohorts, broader static
		// campaigns, thinner slots.
		cfg.InterestAffinity = 0.6 + 0.04*float64(i%10) // 0.6 .. 0.96
		cfg.StaticSitesMin = 20 + 10*(i%5)              // up to 60
		cfg.StaticSitesMax = cfg.StaticSitesMin + 100
		cfg.MinInterests = 1 + i%2
		cfg.MaxInterests = cfg.MinInterests + 1
		if cfg.StaticSitesMax > cfg.Sites {
			cfg.StaticSitesMax = cfg.Sites
		}
		sim, err := adsim.New(cfg)
		if err != nil {
			return nil, err
		}
		res := sim.Run()
		conf := EvaluateWeek(sim, res, 0, detector.EstimatorMean, detector.EstimatorMean, 4)
		out = append(out, FPStudyResult{
			Label: fmt.Sprintf("affinity=%.2f static=%d..%d interests=%d..%d",
				cfg.InterestAffinity, cfg.StaticSitesMin, cfg.StaticSitesMax,
				cfg.MinInterests, cfg.MaxInterests),
			Conf:  conf,
			FPPct: 100 * conf.FPRate(),
		})
	}
	return out, nil
}
