package campaign

import (
	"eyewnder/internal/addetect"
	"eyewnder/internal/contentbased"
	"eyewnder/internal/taxonomy"
)

// Mapper routes detected ads to campaigns: a campaign whose name is a
// taxonomy topic receives every ad whose landing page classifies under
// that topic (contentbased.LandingCategory, the same classifier the
// detection-baseline evaluation uses). Ads with no landing URL (content
// fingerprints only) or with a category no campaign claims are dropped
// — they still count toward campaign 0 in deployments that run the
// legacy campaign, but the mapper itself never invents a destination.
type Mapper struct {
	byTopic map[taxonomy.Topic]uint32
}

// NewMapper builds a mapper over the campaigns; entries whose Name is
// not a taxonomy topic are ignored (they are reachable only by explicit
// campaign tagging, not by detection).
func NewMapper(campaigns []Campaign) *Mapper {
	m := &Mapper{byTopic: make(map[taxonomy.Topic]uint32)}
	for _, c := range campaigns {
		if topic, ok := taxonomy.ByName(c.Name); ok {
			m.byTopic[topic] = c.ID
		}
	}
	return m
}

// Map returns the campaign the detected ad belongs to. ok is false when
// the ad carries no classifiable landing URL or no campaign claims its
// category — the caller drops the ad (or routes it to campaign 0).
func (m *Mapper) Map(ad *addetect.Ad) (id uint32, ok bool) {
	if ad == nil || ad.LandingURL == "" {
		return 0, false
	}
	topic, ok := contentbased.LandingCategory(ad.LandingURL)
	if !ok {
		return 0, false
	}
	id, ok = m.byTopic[topic]
	return id, ok
}
