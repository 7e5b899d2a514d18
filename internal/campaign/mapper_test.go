package campaign

import (
	"fmt"
	"testing"

	"eyewnder/internal/addetect"
)

func testDirectory(t *testing.T) []Campaign {
	t.Helper()
	return []Campaign{
		{ID: 1, Name: "cars"},
		{ID: 2, Name: "travel"},
		{ID: 3, Name: "fast-food"},
		{ID: 9, Name: "brand-halo"}, // not a taxonomy topic: detection never routes here
	}
}

// TestMapperRouting drives the detector→campaign path table-style: each
// classified ad must land in exactly the campaign claiming its landing
// category, and the unmapped cases must take the drop path.
func TestMapperRouting(t *testing.T) {
	m := NewMapper(testDirectory(t))
	cases := []struct {
		name   string
		ad     *addetect.Ad
		wantID uint32
		wantOK bool
	}{
		{"cars landing", &addetect.Ad{LandingURL: "https://shop1.example/cars/offer-1"}, 1, true},
		{"travel landing", &addetect.Ad{LandingURL: "https://shop2.example/travel/offer-9"}, 2, true},
		{"hyphenated topic", &addetect.Ad{LandingURL: "https://shop3.example/fast-food/offer-2"}, 3, true},
		{"unclaimed topic drops", &addetect.Ad{LandingURL: "https://shop4.example/fishing/offer-3"}, 0, false},
		{"no taxonomy segment drops", &addetect.Ad{LandingURL: "https://shop5.example/checkout"}, 0, false},
		{"content-only ad drops", &addetect.Ad{ContentID: "deadbeef"}, 0, false},
		{"nil ad drops", nil, 0, false},
	}
	for _, tc := range cases {
		id, ok := m.Map(tc.ad)
		if id != tc.wantID || ok != tc.wantOK {
			t.Errorf("%s: Map() = (%d, %v), want (%d, %v)", tc.name, id, ok, tc.wantID, tc.wantOK)
		}
	}
}

// TestMapperFromDetectorScan runs real pages through the addetect
// detector and asserts the detected ads deterministically land in the
// right campaign — the end-to-end classification path the pipeline sim
// uses.
func TestMapperFromDetectorScan(t *testing.T) {
	m := NewMapper(testDirectory(t))
	det := addetect.New(nil)
	page := func(landing string) string {
		return fmt.Sprintf(`<html><body>
<div class="ad-slot"><a href=%q><img src="https://cdn.example/ads/creative-1.png" width="300" height="250"></a></div>
</body></html>`, landing)
	}
	for _, tc := range []struct {
		landing string
		wantID  uint32
		wantOK  bool
	}{
		{"https://shop1.example/cars/offer-7", 1, true},
		{"https://shop2.example/travel/offer-1", 2, true},
		{"https://shop9.example/pets/offer-4", 0, false}, // no campaign claims pets
	} {
		ads := det.Scan(page(tc.landing))
		if len(ads) != 1 {
			t.Fatalf("landing %s: detected %d ads, want 1", tc.landing, len(ads))
		}
		id, ok := m.Map(ads[0])
		if id != tc.wantID || ok != tc.wantOK {
			t.Errorf("landing %s: Map() = (%d, %v), want (%d, %v)", tc.landing, id, ok, tc.wantID, tc.wantOK)
		}
	}
}
