package experiments

import (
	"math/rand"
	"sort"

	"eyewnder/internal/adsim"
	"eyewnder/internal/contentbased"
	"eyewnder/internal/detector"
	"eyewnder/internal/eval"
	"eyewnder/internal/taxonomy"
)

// Fig4Config parametrizes the live-validation analogue (Section 7.3).
type Fig4Config struct {
	// Sim is the workload: the paper's live deployment had 100 users over
	// 3 consecutive weeks.
	Sim adsim.Config
	// CBThreshold is the content-based baseline's T (paper: 20).
	CBThreshold int
	// F8Coverage is the fraction of (user, ad) observations the
	// FigureEight labellers tagged (the paper's labellers covered only a
	// few percent); F8Accuracy is how often their tag matches ground
	// truth ("more right than wrong").
	F8Coverage, F8Accuracy float64
	// CrawlerVisitsPerSite and CrawlerSlots control CR collection.
	CrawlerVisitsPerSite, CrawlerSlots int
	// InspectionSample bounds the manual review of non-targeted UNKNOWNs
	// (paper: 200); InspectionAccuracy models the reviewer.
	InspectionSample   int
	InspectionAccuracy float64
	// LabelSeed drives the synthetic labellers.
	LabelSeed int64
}

// DefaultFig4Config mirrors the live deployment: 100 users, 3 weeks.
func DefaultFig4Config() Fig4Config {
	sim := adsim.DefaultConfig()
	sim.Users = 100
	sim.Sites = 1500
	sim.Campaigns = 6000
	sim.Weeks = 3
	// Heavy-tailed static reach over a web much larger than any one
	// user's weekly footprint, so per-ad audiences are long-tailed as on
	// the real web.
	sim.StaticSitesMin, sim.StaticSitesMax = 2, 300
	// The CB threshold must scale with the simulated web's per-topic site
	// supply: at 1500 sites (~50 per topic) the paper's own T = 20 cleanly
	// separates dominant interests from incidental browsing; smaller test
	// webs need a proportionally smaller T.
	return Fig4Config{
		Sim:                  sim,
		CBThreshold:          20,
		F8Coverage:           0.05,
		F8Accuracy:           0.85,
		CrawlerVisitsPerSite: 2,
		CrawlerSlots:         3,
		InspectionSample:     200,
		InspectionAccuracy:   0.95,
		LabelSeed:            99,
	}
}

// Fig4Result bundles the evaluation-tree outputs.
type Fig4Result struct {
	// TotalAds / TargetedAds / StaticAds are the dataset header counts of
	// the figure (6743 / 183 / 6560 in the paper).
	TotalAds, TargetedAds, StaticAds int
	Tree                             *eval.Tree
	Rates                            eval.Rates
	Resolution                       eval.Resolution
	Summary                          eval.Summary
}

// Fig4 reproduces the evaluation tree: classify every (user, ad) pair
// with the count-based algorithm, then push each classification down the
// CR / semantic-overlap / CB / F8 flow-chart, resolve the UNKNOWN groups
// with the retargeting and indirect-OBA analyses, and summarize precision.
func Fig4(cfg Fig4Config) (*Fig4Result, error) {
	sim, err := adsim.New(cfg.Sim)
	if err != nil {
		return nil, err
	}
	res := sim.Run()
	rng := rand.New(rand.NewSource(cfg.LabelSeed))

	// CR dataset: clean-profile visits to every site (Section 7.3.1: the
	// crawler visits every site where eyeWnder classified an ad).
	crSeen := make(map[int]bool) // campaign IDs the crawler encountered
	for site := 0; site < cfg.Sim.Sites; site++ {
		for v := 0; v < cfg.CrawlerVisitsPerSite; v++ {
			for _, cid := range sim.CrawlerVisit(site, cfg.CrawlerSlots) {
				crSeen[cid] = true
			}
		}
	}

	// CB profiles from the visit log.
	cb := contentbased.New(cfg.CBThreshold)
	profiles := make(map[int]*contentbased.Profile, cfg.Sim.Users)
	for _, u := range sim.Users() {
		profiles[u.ID] = contentbased.NewProfile()
	}
	for _, v := range res.VisitLog {
		site := sim.Sites()[v.Site]
		profiles[v.User].VisitSite(site.Domain, site.Topic)
	}

	// Interests map and per-ad receiver sets for the indirect-OBA test.
	interests := make(map[int][]taxonomy.Topic, cfg.Sim.Users)
	for _, u := range sim.Users() {
		interests[u.ID] = u.Interests
	}
	allCounters := adsim.Count(res.Impressions, nil)

	// Classify each (user, ad) pair per week; latest week wins.
	type pairKey struct{ user, ad int }
	verdicts := make(map[pairKey]detector.Class)
	for w := 0; w < cfg.Sim.Weeks; w++ {
		counters := adsim.Count(res.Impressions, map[int]bool{w: true})
		usersTh := detector.UsersThreshold(counters.UserCountsDistribution(), detector.EstimatorMean)
		for user := range counters.DomainsPerUserAd {
			hasMin := counters.ActiveDomains(user) >= 4
			domTh := detector.EstimatorMean.Threshold(counters.DomainCountsDistribution(user))
			for _, ad := range counters.AdsSeenBy(user) {
				k := pairKey{user, ad}
				if !hasMin {
					if _, ok := verdicts[k]; !ok {
						verdicts[k] = detector.Unknown
					}
					continue
				}
				if float64(counters.DomainCount(user, ad)) >= domTh &&
					float64(counters.UserCount(ad)) <= usersTh {
					verdicts[k] = detector.Targeted
				} else {
					verdicts[k] = detector.NonTargeted
				}
			}
		}
	}

	// Build observations in an order drawn from rng: (user, ad) sorted,
	// then shuffled. The order fixes which F8 label each pair draws and
	// which UNKNOWNs ResolveUnknowns inspects, so map order would make
	// the figure vary under one LabelSeed, and sorted order alone would
	// inspect only the lowest user IDs.
	pairs := make([]pairKey, 0, len(verdicts))
	for k := range verdicts {
		pairs = append(pairs, k)
	}
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		return a.user < b.user || a.user == b.user && a.ad < b.ad
	})
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	out := &Fig4Result{}
	var obs []eval.Observation
	for _, k := range pairs {
		class := verdicts[k]
		camp := sim.Campaign(k.ad)
		out.TotalAds++
		if camp.Kind.IsTargeted() {
			out.TargetedAds++
		} else {
			out.StaticAds++
		}
		truth := camp.Kind.IsTargeted()
		labeled := rng.Float64() < cfg.F8Coverage
		label := truth
		if labeled && rng.Float64() > cfg.F8Accuracy {
			label = !truth
		}
		obs = append(obs, eval.Observation{
			User:            k.user,
			AdKey:           camp.LandingURL(),
			Class:           class,
			SeenByCrawler:   crSeen[k.ad],
			SemanticOverlap: cb.HasSemanticOverlap(profiles[k.user], camp.Category),
			F8Labeled:       labeled,
			F8Targeted:      label,
		})
	}

	out.Tree = eval.BuildTree(obs)
	out.Rates = out.Tree.Rates()

	resolver := &simResolver{
		sim:       sim,
		counters:  allCounters,
		interests: interests,
		users:     cfg.Sim.Users,
		accuracy:  cfg.InspectionAccuracy,
		rng:       rng,
	}
	out.Resolution = eval.ResolveUnknowns(obs, resolver, cfg.InspectionSample)
	out.Summary = eval.Summarize(out.Tree, out.Resolution)
	return out, nil
}

// simResolver backs the Section 7.3.3 analyses with their simulation
// analogues: the retargeting repeatability test reduces to checking
// whether the campaign is genuinely a retargeting campaign (the re-visit
// experiment reproduces exactly for those); the indirect-OBA test is the
// real correlation analysis over the ad's audience; manual inspection is
// a noisy ground-truth oracle.
type simResolver struct {
	sim       *adsim.Simulator
	counters  *adsim.Counters
	interests map[int][]taxonomy.Topic
	users     int
	accuracy  float64
	rng       *rand.Rand
}

func (r *simResolver) campaignByLanding(adKey string) *adsim.Campaign {
	for _, c := range r.sim.Campaigns() {
		if c.LandingURL() == adKey {
			return c
		}
	}
	return nil
}

func (r *simResolver) IsRetargeted(adKey string) bool {
	c := r.campaignByLanding(adKey)
	return c != nil && c.Kind == adsim.KindRetargeted
}

func (r *simResolver) IsIndirectOBA(adKey string, user int) bool {
	c := r.campaignByLanding(adKey)
	if c == nil {
		return false
	}
	var receivers []int
	for u := range r.counters.UsersPerAd[c.ID] {
		receivers = append(receivers, u)
	}
	return eval.TopicEnrichment(receivers, r.interests, r.users, c.Category, 0.01)
}

func (r *simResolver) InspectNonTargeted(adKey string, user int) bool {
	c := r.campaignByLanding(adKey)
	if c == nil {
		return false
	}
	correct := !c.Kind.IsTargeted()
	if r.rng.Float64() > r.accuracy {
		return !correct
	}
	return correct
}
