// Package experiments contains the drivers that regenerate every table
// and figure of the paper's evaluation (Section 7 and Section 8). Each
// experiment is a pure function from a configuration to a typed result,
// so Studies — the table eyewnder-eval runs, one study per paper result —
// prints them, and the tests assert the paper's qualitative shape on them.
package experiments

import (
	"fmt"

	"eyewnder/internal/adsim"
	"eyewnder/internal/detector"
)

// Confusion tallies detector verdicts against simulation ground truth
// over (user, ad) pairs.
type Confusion struct {
	TP, FP, TN, FN int
	// Unknown counts pairs the minimum-data rule refused to classify.
	Unknown int
}

// FNRate is FN / (TP + FN): the share of truly targeted ads the detector
// missed — the y-axis of Figure 3.
func (c Confusion) FNRate() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.FN) / float64(c.TP+c.FN)
}

// FPRate is FP / (FP + TN): truly non-targeted ads flagged as targeted —
// the quantity Section 7.2.2 bounds below 2%.
func (c Confusion) FPRate() float64 {
	if c.FP+c.TN == 0 {
		return 0
	}
	return float64(c.FP) / float64(c.FP+c.TN)
}

// add returns the tally of c and o together.
func (c Confusion) add(o Confusion) Confusion {
	return Confusion{c.TP + o.TP, c.FP + o.FP, c.TN + o.TN, c.FN + o.FN, c.Unknown + o.Unknown}
}

// String implements fmt.Stringer.
func (c Confusion) String() string {
	return fmt.Sprintf("TP=%d FP=%d TN=%d FN=%d unknown=%d (FN%%=%.1f FP%%=%.2f)",
		c.TP, c.FP, c.TN, c.FN, c.Unknown, 100*c.FNRate(), 100*c.FPRate())
}

// EvaluateWeek runs the count-based algorithm over one simulated week of
// cleartext counters (the controlled-simulation path of Section 7.2: the
// privacy protocol is evaluated separately and leaves the statistics
// essentially unchanged — see the Fig2 experiment).
func EvaluateWeek(sim *adsim.Simulator, res *adsim.Result, week int,
	domEst, userEst detector.Estimator, minDomains int) Confusion {

	counters := adsim.Count(res.Impressions, map[int]bool{week: true})
	usersTh := detector.UsersThreshold(counters.UserCountsDistribution(), userEst)

	var conf Confusion
	for user := range counters.DomainsPerUserAd {
		if counters.ActiveDomains(user) < minDomains {
			conf.Unknown += len(counters.DomainsPerUserAd[user])
			continue
		}
		domTh := domEst.Threshold(counters.DomainCountsDistribution(user))
		for _, ad := range counters.AdsSeenBy(user) {
			domains := float64(counters.DomainCount(user, ad))
			users := float64(counters.UserCount(ad))
			classifiedTargeted := domains >= domTh && users <= usersTh
			truth := sim.Campaign(ad).Kind.IsTargeted()
			switch {
			case classifiedTargeted && truth:
				conf.TP++
			case classifiedTargeted && !truth:
				conf.FP++
			case !classifiedTargeted && !truth:
				conf.TN++
			default:
				conf.FN++
			}
		}
	}
	return conf
}
