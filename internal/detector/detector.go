// Package detector implements eyeWnder's count-based targeted-ad
// detection algorithm (Section 4 of the paper).
//
// The algorithm rests on two observations about targeted advertising:
//
//  1. Targeted ads "follow" their targets: a targeted user sees the same
//     ad across many different domains.
//  2. Targeted ads are seen by relatively few users, because only users
//     sharing the targeting profile receive them.
//
// An ad α shown to user u is therefore classified Targeted iff BOTH
//
//	#Domains(u, α) >= Domains_th,u   (local condition)
//	#Users(α)      <= Users_th       (global condition)
//
// where #Domains(u, α) counts the distinct domains on which u saw α
// within the sliding time window, and #Users(α) counts the distinct users
// that saw α (estimated from the privacy-preserving aggregate sketch).
//
// Both thresholds are estimated from the corresponding empirical
// distributions: Domains_th,u from u's own per-ad domain counts (locally,
// in the browser), Users_th from the global per-ad user counts (at the
// back-end). The paper evaluates several moment-based estimators and
// settles on the mean (Section 4.2, Figure 3); all variants are provided
// here for the ablation benches.
//
// Minimum-data rule: if the user has seen ads on fewer than MinDomains
// distinct domains within the window, the algorithm refrains from
// guessing and returns Unknown.
package detector

import (
	"fmt"
	"time"

	"eyewnder/internal/stats"
)

// Class is the detector's verdict for one (user, ad) pair.
type Class uint8

// Verdicts.
const (
	// Unknown means the minimum-data requirement was not met.
	Unknown Class = iota
	// NonTargeted means at least one of the two count conditions failed.
	NonTargeted
	// Targeted means both count conditions held.
	Targeted
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Unknown:
		return "unknown"
	case NonTargeted:
		return "non-targeted"
	case Targeted:
		return "targeted"
	}
	return fmt.Sprintf("Class(%d)", uint8(c))
}

// Estimator selects how a threshold is derived from an empirical
// distribution of counts.
type Estimator uint8

// Threshold estimators evaluated in Section 4.2 / Figure 3.
const (
	// EstimatorMean uses the distribution mean — the paper's choice.
	EstimatorMean Estimator = iota
	// EstimatorMedian uses the median.
	EstimatorMedian
	// EstimatorMeanPlusMedian uses mean+median — stricter on the local
	// condition, more permissive on the global one (the "Mean+Median"
	// curve of Figure 3).
	EstimatorMeanPlusMedian
	// EstimatorMeanPlusStdDev uses mean+σ.
	EstimatorMeanPlusStdDev
)

// String implements fmt.Stringer.
func (e Estimator) String() string {
	switch e {
	case EstimatorMean:
		return "mean"
	case EstimatorMedian:
		return "median"
	case EstimatorMeanPlusMedian:
		return "mean+median"
	case EstimatorMeanPlusStdDev:
		return "mean+stddev"
	}
	return fmt.Sprintf("Estimator(%d)", uint8(e))
}

// Threshold computes the estimator's threshold over the sample. An empty
// sample yields 0.
func (e Estimator) Threshold(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	switch e {
	case EstimatorMean:
		return stats.Mean(xs)
	case EstimatorMedian:
		return stats.Median(xs)
	case EstimatorMeanPlusMedian:
		return stats.Mean(xs) + stats.Median(xs)
	case EstimatorMeanPlusStdDev:
		return stats.Mean(xs) + stats.StdDev(xs)
	default:
		return stats.Mean(xs)
	}
}

// Config fixes the algorithm's tunables.
type Config struct {
	// Window is the sliding observation window; the paper uses one week
	// (ad campaigns last about a week and the window spans both weekday
	// and weekend browsing, Section 4.2).
	Window time.Duration
	// MinDomains is the minimum number of distinct ad-serving domains the
	// user must have visited inside the window before the detector will
	// guess; the paper requires 4.
	MinDomains int
	// DomainsEstimator derives Domains_th,u from the user's per-ad domain
	// counts.
	DomainsEstimator Estimator
	// UsersEstimator derives Users_th from the global per-ad user counts.
	UsersEstimator Estimator
}

// DefaultConfig mirrors the paper: 7-day window, >= 4 domains, mean
// thresholds on both counters.
func DefaultConfig() Config {
	return Config{
		Window:           7 * 24 * time.Hour,
		MinDomains:       4,
		DomainsEstimator: EstimatorMean,
		UsersEstimator:   EstimatorMean,
	}
}

// UserState is the per-user local state: for each ad, the set of domains
// where the user saw it, with last-seen times for window pruning. It runs
// entirely on the user's device — no impression leaves the browser.
type UserState struct {
	cfg Config
	// lastSeen[ad][domain] = most recent impression time.
	lastSeen map[string]map[string]time.Time

	// Classification runs the window prune, the active-domain scan, and
	// the Domains_th,u estimate over the whole state, but the audit path
	// classifies many ads against the same instant. Cache those derived
	// quantities keyed by `now`; any Observe invalidates the cache.
	cacheValid  bool
	cacheNow    time.Time
	cacheSample []float64 // per-ad domain counts (reused buffer)
	cacheTh     float64   // Domains_th,u; 0 when the min-data rule fails
	cacheThOK   bool      // minimum-data rule satisfied
}

// NewUserState returns empty local state under cfg.
func NewUserState(cfg Config) *UserState {
	return &UserState{cfg: cfg, lastSeen: make(map[string]map[string]time.Time)}
}

// Observe records that the user saw ad on domain at time t.
func (u *UserState) Observe(ad, domain string, t time.Time) {
	m := u.lastSeen[ad]
	if m == nil {
		m = make(map[string]time.Time)
		u.lastSeen[ad] = m
	}
	if prev, ok := m[domain]; !ok || t.After(prev) {
		m[domain] = t
	}
	u.cacheValid = false
}

// prune drops observations that fell out of the window ending at now.
func (u *UserState) prune(now time.Time) {
	cutoff := now.Add(-u.cfg.Window)
	for ad, domains := range u.lastSeen {
		for d, ts := range domains {
			if ts.Before(cutoff) {
				delete(domains, d)
			}
		}
		if len(domains) == 0 {
			delete(u.lastSeen, ad)
		}
	}
}

// refresh brings the derived-state cache up to date for the window ending
// at now: prunes expired observations and recomputes the active-domain
// count, the per-ad domain-count sample, and Domains_th,u. Repeated calls
// with the same `now` (the common audit pattern) are free.
func (u *UserState) refresh(now time.Time) {
	if u.cacheValid && u.cacheNow.Equal(now) {
		return
	}
	u.prune(now)
	set := make(map[string]struct{}, 16)
	u.cacheSample = u.cacheSample[:0]
	for _, domains := range u.lastSeen {
		u.cacheSample = append(u.cacheSample, float64(len(domains)))
		for d := range domains {
			set[d] = struct{}{}
		}
	}
	u.cacheThOK = len(set) >= u.cfg.MinDomains
	if u.cacheThOK {
		u.cacheTh = u.cfg.DomainsEstimator.Threshold(u.cacheSample)
	} else {
		u.cacheTh = 0
	}
	u.cacheValid = true
	u.cacheNow = now
}

// DomainCount returns #Domains(u, ad) within the window ending at now.
func (u *UserState) DomainCount(ad string, now time.Time) int {
	u.refresh(now)
	return len(u.lastSeen[ad])
}

// DomainsThreshold computes Domains_th,u at time now. ok is false when the
// minimum-data rule is not met, in which case the caller must return
// Unknown rather than guess.
func (u *UserState) DomainsThreshold(now time.Time) (th float64, ok bool) {
	u.refresh(now)
	return u.cacheTh, u.cacheThOK
}

// UsersThreshold derives the global Users_th from the per-ad user counts
// (the values the back-end extracts from the aggregate CMS). The back-end
// computes this once per round and pushes it to clients.
func UsersThreshold(counts []float64, est Estimator) float64 {
	return est.Threshold(counts)
}

// Verdict carries a classification with the evidence behind it, so that a
// user reporting a suspected data-protection violation can show why the
// tool flagged the ad.
type Verdict struct {
	Class Class
	// DomainCount is #Domains(u, α) in the window.
	DomainCount int
	// DomainsThreshold is Domains_th,u (0 when Class == Unknown).
	DomainsThreshold float64
	// UserCount is the estimated #Users(α).
	UserCount uint64
	// UsersThreshold is the global Users_th used.
	UsersThreshold float64
}

// Classify runs the count-based rule for one ad: both conditions must
// hold. usersCount is the global estimate of #Users(ad), usersTh the
// published Users_th.
func (u *UserState) Classify(ad string, usersCount uint64, usersTh float64, now time.Time) Verdict {
	dth, ok := u.DomainsThreshold(now)
	if !ok {
		return Verdict{Class: Unknown, UserCount: usersCount, UsersThreshold: usersTh}
	}
	dc := u.DomainCount(ad, now)
	v := Verdict{
		Class:            NonTargeted,
		DomainCount:      dc,
		DomainsThreshold: dth,
		UserCount:        usersCount,
		UsersThreshold:   usersTh,
	}
	if float64(dc) >= dth && float64(usersCount) <= usersTh {
		v.Class = Targeted
	}
	return v
}
