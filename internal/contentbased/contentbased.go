// Package contentbased implements the topic-based detection baseline the
// paper evaluates against (Section 7.3.2, footnote 8): the methodology of
// Carrascosa et al. [16] adapted to real users.
//
// For each user, the profile is the set of content categories that appear
// at least T times across DISTINCT websites the user visited (the paper
// uses T = 20, favouring precision over recall). An ad is classified
// targeted iff the main category of its landing page matches a profile
// category.
//
// The same machinery provides the "semantic overlap" test of the Figure 4
// evaluation tree: whether the ad's category overlaps the user profile
// under the taxonomy's relatedness relation.
//
// Content-based detection can only see DIRECT interest targeting: an
// indirect campaign (no semantic overlap between audience and offering)
// is invisible to it by construction — which is the gap eyeWnder closes.
package contentbased

import (
	"strings"

	"eyewnder/internal/taxonomy"
)

// Profile accumulates one user's browsing categories.
type Profile struct {
	// sites[topic] = set of distinct domains of that topic the user
	// visited.
	sites map[taxonomy.Topic]map[string]bool
}

// NewProfile returns an empty profile.
func NewProfile() *Profile {
	return &Profile{sites: make(map[taxonomy.Topic]map[string]bool)}
}

// VisitSite records a visit to a domain categorized under topic.
func (p *Profile) VisitSite(domain string, topic taxonomy.Topic) {
	m := p.sites[topic]
	if m == nil {
		m = make(map[string]bool)
		p.sites[topic] = m
	}
	m[domain] = true
}

// Categories returns the profile: topics backed by at least T distinct
// websites.
func (p *Profile) Categories(T int) []taxonomy.Topic {
	var out []taxonomy.Topic
	for topic, domains := range p.sites {
		if len(domains) >= T {
			out = append(out, topic)
		}
	}
	return out
}

// Classifier is the content-based baseline.
type Classifier struct {
	// T is the significance threshold on distinct-site counts (paper: 20).
	T int
}

// New returns a classifier with the given threshold; t <= 0 selects the
// paper's T = 20.
func New(t int) *Classifier {
	if t <= 0 {
		t = 20
	}
	return &Classifier{T: t}
}

// IsTargeted classifies an ad: targeted iff the landing-page category
// matches a significant profile category exactly.
func (c *Classifier) IsTargeted(p *Profile, adCategory taxonomy.Topic) bool {
	for _, cat := range p.Categories(c.T) {
		if cat == adCategory {
			return true
		}
	}
	return false
}

// HasSemanticOverlap reports whether the ad category is semantically
// related to any significant profile category — the evaluation tree's
// overlap test (methodology of [45], here backed by the taxonomy).
func (c *Classifier) HasSemanticOverlap(p *Profile, adCategory taxonomy.Topic) bool {
	return taxonomy.OverlapAny(p.Categories(c.T), adCategory)
}

// LandingCategory extracts the main category from a landing-page URL. Our
// simulated shops embed the category as the first path segment
// (https://shopN.example/<category>/offer-M), standing in for the AdWords
// lookup the paper uses. ok is false when no taxonomy category is found.
func LandingCategory(landingURL string) (taxonomy.Topic, bool) {
	s := landingURL
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	parts := strings.Split(s, "/")
	for _, part := range parts[1:] { // parts[0] is the host
		if t, ok := taxonomy.ByName(part); ok {
			return t, true
		}
	}
	return 0, false
}
