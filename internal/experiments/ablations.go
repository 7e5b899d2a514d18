package experiments

import (
	"fmt"

	"eyewnder/internal/adsim"
	"eyewnder/internal/detector"
	"eyewnder/internal/sketch"
)

// EstimatorAblation compares the four threshold estimators of Section
// 4.2 on one simulated workload (the design choice Figure 3 examines for
// two of them).
type EstimatorAblation struct {
	Estimator detector.Estimator
	Conf      Confusion
}

// AblateEstimators runs every estimator pair (same estimator on both
// thresholds, as in the paper) over one simulated run. The ablations
// share the run: each takes the simulator and its result.
func AblateEstimators(sim *adsim.Simulator, res *adsim.Result) []EstimatorAblation {
	ests := []detector.Estimator{
		detector.EstimatorMean,
		detector.EstimatorMedian,
		detector.EstimatorMeanPlusMedian,
		detector.EstimatorMeanPlusStdDev,
	}
	out := make([]EstimatorAblation, 0, len(ests))
	for _, e := range ests {
		out = append(out, EstimatorAblation{
			Estimator: e,
			Conf:      EvaluateWeek(sim, res, 0, e, e, 4),
		})
	}
	return out
}

// WindowAblation evaluates the detector when only the first `days` days
// of the week are visible — the time-window design choice of Section 4.2.
type WindowAblation struct {
	Days int
	Conf Confusion
}

// AblateWindow sweeps observation windows of 1..7 days.
func AblateWindow(sim *adsim.Simulator, res *adsim.Result, days []int) []WindowAblation {
	out := make([]WindowAblation, 0, len(days))
	for _, d := range days {
		filtered := res.Impressions[:0:0]
		for _, imp := range res.Impressions {
			if imp.Week == 0 && imp.Day < d {
				filtered = append(filtered, imp)
			}
		}
		windowRes := *res
		windowRes.Impressions = filtered
		out = append(out, WindowAblation{
			Days: d,
			Conf: EvaluateWeek(sim, &windowRes, 0,
				detector.EstimatorMean, detector.EstimatorMean, 4),
		})
	}
	return out
}

// MinDomainsAblation evaluates the minimum-data rule's trade-off: lower
// thresholds classify more pairs (fewer Unknowns) at higher error.
type MinDomainsAblation struct {
	MinDomains int
	Conf       Confusion
}

// AblateMinDomains sweeps the minimum-data rule.
func AblateMinDomains(sim *adsim.Simulator, res *adsim.Result, values []int) []MinDomainsAblation {
	out := make([]MinDomainsAblation, 0, len(values))
	for _, v := range values {
		out = append(out, MinDomainsAblation{
			MinDomains: v,
			Conf: EvaluateWeek(sim, res, 0,
				detector.EstimatorMean, detector.EstimatorMean, v),
		})
	}
	return out
}

// SketchAblation reports the mean relative overestimation of per-ad user
// counts for a sketch geometry, plus its size — the ε/δ trade-off behind
// the paper's choice of 0.001.
type SketchAblation struct {
	Epsilon, Delta float64
	SizeKB         float64
	// MeanOverestimate is avg((est - true) / true) over all ads.
	MeanOverestimate float64
}

// AblateSketchGeometry measures estimate inflation across geometries on
// the per-user ad sets of one simulated run.
func AblateSketchGeometry(res *adsim.Result, geometries [][2]float64) ([]SketchAblation, error) {
	counters := adsim.Count(res.Impressions, map[int]bool{0: true})
	out := make([]SketchAblation, 0, len(geometries))
	for _, g := range geometries {
		eps, delta := g[0], g[1]
		cms, err := sketch.New(eps, delta)
		if err != nil {
			return nil, err
		}
		// Encode each user's distinct ads (ID = campaign ID bytes).
		for user := range counters.DomainsPerUserAd {
			for _, ad := range counters.AdsSeenBy(user) {
				cms.UpdateString(fmt.Sprintf("ad-%d", ad))
			}
		}
		var relSum float64
		for ad, users := range counters.UsersPerAd {
			truth := float64(len(users))
			est := float64(cms.QueryString(fmt.Sprintf("ad-%d", ad)))
			relSum += (est - truth) / truth
		}
		ab := SketchAblation{
			Epsilon: eps,
			Delta:   delta,
			SizeKB:  float64(cms.SizeBytes(4)) / 1000,
		}
		if n := len(counters.UsersPerAd); n > 0 {
			ab.MeanOverestimate = relSum / float64(n)
		}
		out = append(out, ab)
	}
	return out, nil
}
