package contentbased

import (
	"fmt"
	"testing"

	"eyewnder/internal/taxonomy"
)

func profileWith(topic taxonomy.Topic, nSites int) *Profile {
	p := NewProfile()
	for i := 0; i < nSites; i++ {
		p.VisitSite(fmt.Sprintf("www.%s-%d.example", topic, i), topic)
	}
	return p
}

func TestProfileThreshold(t *testing.T) {
	p := profileWith(taxonomy.Cars, 19)
	c := New(20)
	if got := p.Categories(c.T); len(got) != 0 {
		t.Fatalf("19 sites should be below T=20, got %v", got)
	}
	p.VisitSite("www.cars-extra.example", taxonomy.Cars)
	if got := p.Categories(c.T); len(got) != 1 || got[0] != taxonomy.Cars {
		t.Fatalf("categories = %v", got)
	}
}

func TestDistinctSitesOnly(t *testing.T) {
	p := NewProfile()
	for i := 0; i < 50; i++ {
		p.VisitSite("www.same.example", taxonomy.Travel) // repeat visits
	}
	if got := len(p.sites[taxonomy.Travel]); got != 1 {
		t.Fatalf("%d distinct travel sites, want 1", got)
	}
	if got := p.Categories(2); len(got) != 0 {
		t.Fatalf("repeat visits inflated the profile: %v", got)
	}
}

func TestIsTargetedExactMatch(t *testing.T) {
	p := profileWith(taxonomy.Fishing, 25)
	c := New(20)
	if !c.IsTargeted(p, taxonomy.Fishing) {
		t.Fatal("direct match missed")
	}
	// Related-but-different category is NOT an exact match: the CB
	// baseline classifies non-targeted.
	if c.IsTargeted(p, taxonomy.Sports) {
		t.Fatal("CB should require exact category match")
	}
}

func TestIndirectTargetingInvisibleToCB(t *testing.T) {
	// A computers-profiled user receiving a dating ad: indirect targeting
	// by construction — the CB baseline must miss it, and the overlap
	// test must be false.
	p := profileWith(taxonomy.Computers, 25)
	c := New(20)
	if c.IsTargeted(p, taxonomy.Dating) {
		t.Fatal("CB detected an indirect ad — taxonomy overlap is broken")
	}
	if c.HasSemanticOverlap(p, taxonomy.Dating) {
		t.Fatal("semantic overlap claimed for computers/dating")
	}
}

func TestSemanticOverlapRelatedCategory(t *testing.T) {
	p := profileWith(taxonomy.Fitness, 25)
	c := New(20)
	if !c.HasSemanticOverlap(p, taxonomy.Health) {
		t.Fatal("fitness~health overlap missed")
	}
}

func TestDefaultThreshold(t *testing.T) {
	if New(0).T != 20 {
		t.Fatal("default T should be 20")
	}
	if New(-3).T != 20 {
		t.Fatal("negative T should fall back to 20")
	}
	if New(5).T != 5 {
		t.Fatal("explicit T ignored")
	}
}

func TestLandingCategory(t *testing.T) {
	cases := []struct {
		url   string
		topic taxonomy.Topic
		ok    bool
	}{
		{"https://shop3.example/seafood/offer-12", taxonomy.Seafood, true},
		{"https://shop0.example/real-estate/offer-1", taxonomy.RealEstate, true},
		{"https://shop1.example/unknown-cat/x", 0, false},
		{"not a url at all", 0, false},
		{"https://host.example/", 0, false},
	}
	for _, c := range cases {
		got, ok := LandingCategory(c.url)
		if ok != c.ok || (ok && got != c.topic) {
			t.Errorf("LandingCategory(%q) = %v, %v; want %v, %v", c.url, got, ok, c.topic, c.ok)
		}
	}
}

func TestMultiTopicProfile(t *testing.T) {
	p := NewProfile()
	for i := 0; i < 22; i++ {
		p.VisitSite(fmt.Sprintf("a%d.example", i), taxonomy.Computers)
	}
	for i := 0; i < 21; i++ {
		p.VisitSite(fmt.Sprintf("b%d.example", i), taxonomy.Cars)
	}
	for i := 0; i < 3; i++ {
		p.VisitSite(fmt.Sprintf("c%d.example", i), taxonomy.Pets)
	}
	cats := p.Categories(20)
	if len(cats) != 2 {
		t.Fatalf("categories = %v", cats)
	}
	c := New(20)
	if !c.IsTargeted(p, taxonomy.Computers) || !c.IsTargeted(p, taxonomy.Cars) {
		t.Fatal("significant categories not targeted")
	}
	if c.IsTargeted(p, taxonomy.Pets) {
		t.Fatal("insignificant category targeted")
	}
}
