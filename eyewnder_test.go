package eyewnder

import (
	"fmt"
	"testing"
	"time"

	"eyewnder/internal/privacy"
)

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(SystemConfig{Users: 1}); err == nil {
		t.Fatal("single-user system accepted (blinding needs peers)")
	}
	if _, err := NewSystem(SystemConfig{Users: 2, RSABits: 512}); err == nil {
		t.Fatal("tiny RSA key accepted")
	}
}

func TestSystemEndToEnd(t *testing.T) {
	params := Params{Epsilon: 0.01, Delta: 0.01, IDSpace: 5000, Suite: DefaultParams().Suite}
	sys, err := NewSystem(SystemConfig{Users: 4, Params: &params, RSABits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2019, 3, 4, 10, 0, 0, 0, time.UTC)
	// A chasing ad follows user 0 across 6 domains; a broad ad reaches
	// everyone everywhere. The OPRF key is fresh per system, so two fixed
	// landing URLs would share one ad ID with probability 1/|A|; the
	// chasing ad's URL is picked so its ID differs from the broad one's.
	const broad = "https://shopX.example/broad/1"
	ids := privacy.NewClient(sys.Backend.CurrentConfig(), nil, sys.OPRF.PublicKey(), sys.OPRF) // ad URL → ad ID only
	broadID, err := ids.ObserveAd(broad)
	if err != nil {
		t.Fatal(err)
	}
	var chasing string
	for i := 2; chasing == ""; i++ {
		url := fmt.Sprintf("https://shopY.example/follow/%d", i)
		id, err := ids.ObserveAd(url)
		if err != nil {
			t.Fatal(err)
		}
		if id != broadID {
			chasing = url
		}
	}
	page := func(chases bool, site int) string {
		html := `<html><body><div class="ad-slot"><a href="` + broad + `"><img src="https://ads.adx0.example/creative/1"></a></div>`
		if chases {
			html += `<div class="ad-slot"><a href="` + chasing + `"><img src="https://ads.adx1.example/creative/2"></a></div>`
		}
		return html + "</body></html>"
	}
	for site := 0; site < 6; site++ {
		domain := fmt.Sprintf("www.site-%d.example", site)
		for i, ext := range sys.Extensions {
			if _, err := ext.VisitPage(domain, page(i == 0, site), t0.Add(time.Duration(site)*time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const round = 1
	if err := sys.SubmitAllReports(round); err != nil {
		t.Fatal(err)
	}
	th, ads, err := sys.CloseRound(round)
	if err != nil {
		t.Fatal(err)
	}
	if ads < 2 {
		t.Fatalf("distinct ads = %d", ads)
	}
	if th <= 0 {
		t.Fatalf("Users_th = %v", th)
	}
	now := t0.Add(7 * time.Hour)
	v, err := sys.Extensions[0].AuditAd(chasing, round, now)
	if err != nil {
		t.Fatal(err)
	}
	if v.Class != Targeted {
		t.Fatalf("chasing ad = %v (%+v), want targeted", v.Class, v)
	}
	v, err = sys.Extensions[0].AuditAd(broad, round, now)
	if err != nil {
		t.Fatal(err)
	}
	if v.Class != NonTargeted {
		t.Fatalf("broad ad = %v (%+v), want non-targeted", v.Class, v)
	}
}

func TestSystemServeTCP(t *testing.T) {
	sys, err := NewSystem(SystemConfig{Users: 2, RSABits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	be, op, err := sys.ServeTCP("127.0.0.1:0", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	defer op.Close()
	if be.Addr() == "" || op.Addr() == "" {
		t.Fatal("empty listen addresses")
	}
}
