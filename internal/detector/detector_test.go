package detector

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2019, 3, 4, 12, 0, 0, 0, time.UTC)

// populate gives the user enough background ads to satisfy the
// minimum-data rule: `n` background ads, each on one distinct domain.
func populate(u *UserState, n int, at time.Time) {
	for i := 0; i < n; i++ {
		u.Observe(fmt.Sprintf("bg-ad-%d", i), fmt.Sprintf("bg-site-%d.com", i), at)
	}
}

func TestClassifyTargetedAd(t *testing.T) {
	cfg := DefaultConfig()
	u := NewUserState(cfg)
	populate(u, 5, t0)
	// The targeted ad follows the user across 6 domains.
	for i := 0; i < 6; i++ {
		u.Observe("chasing-ad", fmt.Sprintf("site-%d.com", i), t0.Add(time.Duration(i)*time.Hour))
	}
	// Global view: only 2 users saw it; global mean is 40.
	v := u.Classify("chasing-ad", 2, 40, t0.Add(12*time.Hour))
	if v.Class != Targeted {
		t.Fatalf("verdict = %+v, want Targeted", v)
	}
	if v.DomainCount != 6 {
		t.Fatalf("DomainCount = %d", v.DomainCount)
	}
}

func TestClassifyBroadStaticAd(t *testing.T) {
	u := NewUserState(DefaultConfig())
	populate(u, 5, t0)
	for i := 0; i < 6; i++ {
		u.Observe("brand-ad", fmt.Sprintf("site-%d.com", i), t0)
	}
	// Brand campaign: thousands of users saw it — global condition fails.
	v := u.Classify("brand-ad", 5000, 40, t0.Add(time.Hour))
	if v.Class != NonTargeted {
		t.Fatalf("verdict = %+v, want NonTargeted", v)
	}
}

func TestClassifySingleImpression(t *testing.T) {
	// An ad seen once cannot be distinguished from non-targeted: with the
	// mean estimator and background ads at 1 domain each the threshold is
	// ~1, so one sighting alone is not decisive — but a contextual ad seen
	// on one domain with a huge user count is cleanly NonTargeted.
	u := NewUserState(DefaultConfig())
	populate(u, 6, t0)
	u.Observe("contextual", "sports-site.com", t0)
	v := u.Classify("contextual", 900, 40, t0.Add(time.Hour))
	if v.Class != NonTargeted {
		t.Fatalf("verdict = %+v, want NonTargeted", v)
	}
}

func TestMinimumDataRuleReturnsUnknown(t *testing.T) {
	u := NewUserState(DefaultConfig())
	// Only 3 ad-serving domains < MinDomains 4.
	u.Observe("a", "d1.com", t0)
	u.Observe("b", "d2.com", t0)
	u.Observe("c", "d3.com", t0)
	v := u.Classify("a", 1, 40, t0.Add(time.Hour))
	if v.Class != Unknown {
		t.Fatalf("verdict = %+v, want Unknown", v)
	}
	if _, ok := u.DomainsThreshold(t0.Add(time.Hour)); ok {
		t.Fatal("minimum-data rule met with 3 domains")
	}
	u.Observe("d", "d4.com", t0)
	if _, ok := u.DomainsThreshold(t0.Add(time.Hour)); !ok {
		t.Fatal("minimum-data rule not met with 4 domains")
	}
}

func TestWindowPruning(t *testing.T) {
	cfg := DefaultConfig()
	u := NewUserState(cfg)
	u.Observe("old-ad", "old-site.com", t0)
	later := t0.Add(8 * 24 * time.Hour) // past the 7-day window
	if got := u.DomainCount("old-ad", later); got != 0 {
		t.Fatalf("DomainCount after window = %d", got)
	}
	if got := len(u.lastSeen); got != 0 {
		t.Fatalf("%d ads left after the window", got)
	}
	// Re-observation refreshes the window.
	u.Observe("old-ad", "old-site.com", later)
	if got := u.DomainCount("old-ad", later.Add(time.Hour)); got != 1 {
		t.Fatalf("DomainCount = %d", got)
	}
}

func TestObserveKeepsLatestTimestamp(t *testing.T) {
	u := NewUserState(DefaultConfig())
	u.Observe("ad", "site.com", t0)
	u.Observe("ad", "site.com", t0.Add(3*24*time.Hour))
	// An out-of-order older observation must not roll the timestamp back.
	u.Observe("ad", "site.com", t0.Add(1*24*time.Hour))
	// 8 days after t0 the window (anchored to the 3-day refresh) holds.
	if got := u.DomainCount("ad", t0.Add(8*24*time.Hour)); got != 1 {
		t.Fatalf("DomainCount = %d", got)
	}
}

func TestDomainCountDistinct(t *testing.T) {
	u := NewUserState(DefaultConfig())
	for i := 0; i < 10; i++ {
		u.Observe("ad", "same-site.com", t0.Add(time.Duration(i)*time.Minute))
	}
	if got := u.DomainCount("ad", t0.Add(time.Hour)); got != 1 {
		t.Fatalf("repeat impressions on one domain counted as %d", got)
	}
}

func TestDomainsThreshold(t *testing.T) {
	u := NewUserState(DefaultConfig())
	// 4 ads on 1 domain each + 1 ad on 6 domains: mean = (1+1+1+1+6)/5 = 2.
	populate(u, 4, t0)
	for i := 0; i < 6; i++ {
		u.Observe("multi", fmt.Sprintf("m%d.com", i), t0)
	}
	th, ok := u.DomainsThreshold(t0.Add(time.Hour))
	if !ok {
		t.Fatal("threshold unavailable")
	}
	if th != 2 {
		t.Fatalf("Domains_th = %v, want 2", th)
	}
}

func TestEstimators(t *testing.T) {
	xs := []float64{1, 1, 1, 1, 6} // mean 2, median 1
	cases := []struct {
		est  Estimator
		want float64
	}{
		{EstimatorMean, 2},
		{EstimatorMedian, 1},
		{EstimatorMeanPlusMedian, 3},
	}
	for _, c := range cases {
		if got := c.est.Threshold(xs); got != c.want {
			t.Errorf("%v.Threshold = %v, want %v", c.est, got, c.want)
		}
	}
	if got := EstimatorMeanPlusStdDev.Threshold(xs); got <= 2 {
		t.Errorf("mean+stddev = %v, want > mean", got)
	}
	for _, e := range []Estimator{EstimatorMean, EstimatorMedian, EstimatorMeanPlusMedian, EstimatorMeanPlusStdDev} {
		if e.Threshold(nil) != 0 {
			t.Errorf("%v.Threshold(nil) != 0", e)
		}
		if e.String() == "" {
			t.Errorf("%v has empty String", e)
		}
	}
	if Estimator(99).Threshold(xs) != 2 {
		t.Error("unknown estimator should fall back to mean")
	}
}

func TestUsersThreshold(t *testing.T) {
	counts := []float64{1, 2, 3, 10}
	if got := UsersThreshold(counts, EstimatorMean); got != 4 {
		t.Fatalf("UsersThreshold = %v", got)
	}
}

func TestClassStrings(t *testing.T) {
	if Unknown.String() != "unknown" || NonTargeted.String() != "non-targeted" || Targeted.String() != "targeted" {
		t.Fatal("Class strings wrong")
	}
	if Class(9).String() == "" {
		t.Fatal("unknown class has empty String")
	}
	if Estimator(9).String() == "" {
		t.Fatal("unknown estimator has empty String")
	}
}

func TestDefaultConfig(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Window != 7*24*time.Hour {
		t.Fatalf("Window = %v", cfg.Window)
	}
	if cfg.MinDomains != 4 {
		t.Fatalf("MinDomains = %d", cfg.MinDomains)
	}
	if cfg.DomainsEstimator != EstimatorMean || cfg.UsersEstimator != EstimatorMean {
		t.Fatal("default estimators should be mean")
	}
}

// Property: the classification is monotone in domain count — observing the
// ad on additional domains can only move the verdict toward Targeted (for
// a fixed user-count side).
func TestPropertyMonotoneInDomains(t *testing.T) {
	f := func(extraDomains uint8, usersCount uint16) bool {
		cfg := DefaultConfig()
		u := NewUserState(cfg)
		populate(u, 5, t0)
		u.Observe("ad", "first.com", t0)
		now := t0.Add(time.Hour)
		usersTh := 40.0
		before := u.Classify("ad", uint64(usersCount), usersTh, now).Class
		for i := 0; i < int(extraDomains%16); i++ {
			u.Observe("ad", fmt.Sprintf("extra-%d.com", i), t0)
		}
		after := u.Classify("ad", uint64(usersCount), usersTh, now).Class
		// Targeted must not flip back to NonTargeted.
		return !(before == Targeted && after == NonTargeted)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: below minimum data the verdict is always Unknown, regardless
// of the global side.
func TestPropertyUnknownBelowMinimumData(t *testing.T) {
	f := func(nDomains uint8, usersCount uint16, usersTh uint16) bool {
		cfg := DefaultConfig()
		u := NewUserState(cfg)
		n := int(nDomains % uint8(cfg.MinDomains)) // 0..3 < MinDomains
		for i := 0; i < n; i++ {
			u.Observe("ad", fmt.Sprintf("d%d.com", i), t0)
		}
		v := u.Classify("ad", uint64(usersCount), float64(usersTh), t0.Add(time.Minute))
		return v.Class == Unknown
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkClassify(b *testing.B) {
	u := NewUserState(DefaultConfig())
	for i := 0; i < 50; i++ {
		u.Observe(fmt.Sprintf("ad-%d", i), fmt.Sprintf("site-%d.com", i%20), t0)
	}
	now := t0.Add(time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u.Classify("ad-7", 3, 40, now)
	}
}
