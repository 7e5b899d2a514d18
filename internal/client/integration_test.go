package client_test

import (
	"crypto/rand"
	"crypto/rsa"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"eyewnder/internal/adsim"
	"eyewnder/internal/backend"
	"eyewnder/internal/client"
	"eyewnder/internal/crawler"
	"eyewnder/internal/detector"
	"eyewnder/internal/group"
	"eyewnder/internal/obs"
	"eyewnder/internal/oprf"
	"eyewnder/internal/privacy"
	"eyewnder/internal/taxonomy"
	"eyewnder/internal/wire"
)

var (
	keyOnce sync.Once
	rsaKey  *rsa.PrivateKey
)

func testRSAKey() *rsa.PrivateKey {
	keyOnce.Do(func() {
		k, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
		rsaKey = k
	})
	return rsaKey
}

func testParams() privacy.Params {
	return privacy.Params{Epsilon: 0.01, Delta: 0.01, IDSpace: 2000, Suite: group.P256()}
}

// TestFullSystemOverTCP runs the complete Figure 1 deployment over real
// TCP sockets: 3 extensions observe ads on rendered HTML pages, report
// blinded sketches through the wire protocol, the back-end closes the
// round, and a real-time audit classifies a chasing ad as targeted and a
// broad ad as non-targeted.
func TestFullSystemOverTCP(t *testing.T) {
	params := testParams()
	const nUsers = 3

	// Servers.
	osrv, err := oprf.NewServerFromKey(testRSAKey())
	if err != nil {
		t.Fatal(err)
	}
	oprfWire, err := backend.ServeOPRF("127.0.0.1:0", osrv)
	if err != nil {
		t.Fatal(err)
	}
	defer oprfWire.Close()

	be, err := backend.New(backend.Config{
		Params: params, Users: nUsers, UsersEstimator: detector.EstimatorMean,
	})
	if err != nil {
		t.Fatal(err)
	}
	beWire, err := be.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer beWire.Close()

	// Extensions.
	exts := make([]*client.Extension, nUsers)
	for i := 0; i < nUsers; i++ {
		beConn, err := wire.Dial(beWire.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer beConn.Close()
		oConn, err := wire.Dial(oprfWire.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer oConn.Close()
		pub, err := client.FetchOPRFPublicKey(oConn)
		if err != nil {
			t.Fatal(err)
		}
		cfg := detector.DefaultConfig()
		ext, err := client.New(client.Options{
			User: i, Detector: cfg, Params: params,
		}, &client.WireBackend{C: beConn}, &client.WireEvaluator{C: oConn}, pub)
		if err != nil {
			t.Fatal(err)
		}
		if err := ext.Register(); err != nil {
			t.Fatal(err)
		}
		exts[i] = ext
	}
	for _, ext := range exts {
		if err := ext.Join(); err != nil {
			t.Fatal(err)
		}
	}

	// Browsing: a targeted campaign chases user 0 across 6 sites; a broad
	// static campaign appears everywhere for everyone.
	chasing := &adsim.Campaign{ID: 500, Kind: adsim.KindTargeted, Category: taxonomy.Fishing, ProductSite: -1}
	broad := &adsim.Campaign{ID: 501, Kind: adsim.KindStatic, Category: taxonomy.News, ProductSite: -1}
	t0 := adsim.SimStart
	var chasingKey, broadKey string
	for site := 0; site < 6; site++ {
		s := &adsim.Site{ID: site, Domain: fmt.Sprintf("www.site-%d.example", site), Topic: taxonomy.News}
		// User 0 sees both ads; users 1 and 2 see only the broad one.
		pageWithBoth := adsim.RenderPage(s, []*adsim.Campaign{chasing, broad}, int64(site))
		pageBroad := adsim.RenderPage(s, []*adsim.Campaign{broad}, int64(site))
		ads, err := exts[0].VisitPage(s.Domain, pageWithBoth, t0.Add(time.Duration(site)*time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if len(ads) != 2 {
			t.Fatalf("site %d: detected %d ads, want 2", site, len(ads))
		}
		for _, ad := range ads {
			if ad.LandingURL == chasing.LandingURL() {
				chasingKey = ad.Key()
			}
			if ad.LandingURL == broad.LandingURL() {
				broadKey = ad.Key()
			}
		}
		for _, ext := range exts[1:] {
			if _, err := ext.VisitPage(s.Domain, pageBroad, t0.Add(time.Duration(site)*time.Hour)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if chasingKey == "" || broadKey == "" {
		t.Fatal("landing keys not recovered from rendered pages")
	}

	// Weekly report + round close.
	const round = 1
	for _, ext := range exts {
		if err := ext.SubmitReport(round); err != nil {
			t.Fatal(err)
		}
	}
	ctl, err := wire.Dial(beWire.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	var closeResp wire.CloseRoundResp
	if err := ctl.Do(wire.TypeCloseRound, wire.CloseRoundReq{Round: round}, &closeResp); err != nil {
		t.Fatal(err)
	}
	if closeResp.DistinctAds < 2 {
		t.Fatalf("distinct ads = %d", closeResp.DistinctAds)
	}

	// Real-time audits.
	now := t0.Add(24 * time.Hour)
	v, err := exts[0].AuditAd(chasingKey, round, now)
	if err != nil {
		t.Fatal(err)
	}
	if v.Class != detector.Targeted {
		t.Fatalf("chasing ad verdict = %+v, want targeted", v)
	}
	v, err = exts[0].AuditAd(broadKey, round, now)
	if err != nil {
		t.Fatal(err)
	}
	if v.Class != detector.Unknown && v.Class != detector.NonTargeted {
		t.Fatalf("broad ad verdict = %+v", v)
	}
	if v.Class != detector.NonTargeted {
		t.Fatalf("broad ad verdict = %v, want non-targeted", v.Class)
	}
}

// TestAdjustmentFlowOverTCP exercises the two-round fault tolerance over
// the wire: one extension never reports; the others adjust; the round
// closes with exact counts.
func TestAdjustmentFlowOverTCP(t *testing.T) {
	params := testParams()
	const nUsers = 3
	osrv, err := oprf.NewServerFromKey(testRSAKey())
	if err != nil {
		t.Fatal(err)
	}
	be, err := backend.New(backend.Config{Params: params, Users: nUsers, UsersEstimator: detector.EstimatorMean})
	if err != nil {
		t.Fatal(err)
	}
	beWire, err := be.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer beWire.Close()

	exts := make([]*client.Extension, nUsers)
	for i := 0; i < nUsers; i++ {
		beConn, err := wire.Dial(beWire.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer beConn.Close()
		ext, err := client.New(client.Options{
			User: i, Detector: detector.DefaultConfig(), Params: params,
		}, &client.WireBackend{C: beConn}, osrv, osrv.PublicKey())
		if err != nil {
			t.Fatal(err)
		}
		if err := ext.Register(); err != nil {
			t.Fatal(err)
		}
		exts[i] = ext
	}
	for _, ext := range exts {
		if err := ext.Join(); err != nil {
			t.Fatal(err)
		}
	}
	const round = 2
	t0 := adsim.SimStart
	for _, ext := range exts {
		if err := ext.ObserveAdDirect("https://ads.example/shared", "www.a.example", t0); err != nil {
			t.Fatal(err)
		}
	}
	// Only users 0 and 1 report.
	for _, ext := range exts[:2] {
		if err := ext.SubmitReport(round); err != nil {
			t.Fatal(err)
		}
	}
	for _, ext := range exts[:2] {
		missing, err := ext.SubmitAdjustmentIfNeeded(round)
		if err != nil {
			t.Fatal(err)
		}
		if len(missing) != 1 || missing[0] != 2 {
			t.Fatalf("missing = %v", missing)
		}
	}
	th, ads, err := be.CloseRound(0, round, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ads < 1 {
		t.Fatalf("ads = %d", ads)
	}
	// One ad seen by exactly the two reporters.
	if th < 1.5 || th > 2.5 {
		t.Fatalf("Users_th = %v, want ~2", th)
	}
}

// TestLocalAndWireBackendsAgree drives the same observations through one
// round twice — once with every extension on the in-process adapter,
// once over TCP — including one duplicate report each. Both adapters
// hand the back-end the same frame through the same admission body, so
// the published counts and Users_th must be identical and the
// accepted/rejected counters must have moved once per report on both.
func TestLocalAndWireBackendsAgree(t *testing.T) {
	params := testParams()
	const nUsers, round = 3, 5
	osrv, err := oprf.NewServerFromKey(testRSAKey())
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		counts  map[uint64]uint64
		th      float64
		reports map[string]float64
	}
	run := func(overWire bool) outcome {
		reg := obs.New()
		be, err := backend.New(backend.Config{
			Params: params, Users: nUsers, UsersEstimator: detector.EstimatorMean, Metrics: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer be.Close()
		var api client.BackendAPI = &client.LocalBackend{B: be}
		if overWire {
			srv, err := be.Serve("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			conn, err := wire.Dial(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			api = &client.WireBackend{C: conn}
		}
		exts := make([]*client.Extension, nUsers)
		for i := range exts {
			exts[i], err = client.New(client.Options{User: i, Detector: detector.DefaultConfig()}, api, osrv, osrv.PublicKey())
			if err != nil {
				t.Fatal(err)
			}
			if err := exts[i].Register(); err != nil {
				t.Fatal(err)
			}
		}
		for i, ext := range exts {
			if err := ext.Join(); err != nil {
				t.Fatal(err)
			}
			for a := 0; a <= i; a++ { // ad a is seen by users a..nUsers-1
				if err := ext.ObserveAdDirect(fmt.Sprintf("https://ads.example/%d", a), "www.a.example", adsim.SimStart); err != nil {
					t.Fatal(err)
				}
			}
			if err := ext.SubmitReport(round); err != nil {
				t.Fatal(err)
			}
		}
		if err := exts[0].SubmitReport(round); err == nil {
			t.Fatal("duplicate report accepted")
		}
		if _, _, err := be.CloseRound(0, round, 0); err != nil {
			t.Fatal(err)
		}
		out := outcome{reports: make(map[string]float64)}
		if out.counts, err = be.UserCounts(0, round); err != nil {
			t.Fatal(err)
		}
		if out.th, err = be.Threshold(0, round); err != nil {
			t.Fatal(err)
		}
		for k, v := range reg.Snapshot() {
			if strings.HasPrefix(k, "eyewnder_reports_") {
				out.reports[k] = v
			}
		}
		return out
	}
	local, wired := run(false), run(true)
	if len(local.counts) == 0 || !reflect.DeepEqual(local.counts, wired.counts) {
		t.Fatalf("counts differ: in-process %v, wire %v", local.counts, wired.counts)
	}
	if local.th != wired.th {
		t.Fatalf("Users_th differs: in-process %v, wire %v", local.th, wired.th)
	}
	if !reflect.DeepEqual(local.reports, wired.reports) {
		t.Fatalf("report counters differ: in-process %v, wire %v", local.reports, wired.reports)
	}
	if local.reports["eyewnder_reports_accepted_total"] != nUsers ||
		local.reports[`eyewnder_reports_rejected_total{reason="duplicate"}`] != 1 {
		t.Fatalf("report counters = %v, want %d accepted and 1 duplicate", local.reports, nUsers)
	}
}

// TestCrawlerIntegration runs the crawler against simulator-rendered
// clean-profile pages, over the wire protocol.
func TestCrawlerIntegration(t *testing.T) {
	cfg := adsim.DefaultConfig()
	cfg.Users = 20
	cfg.Sites = 40
	cfg.Campaigns = 30
	cfg.AvgVisitsPerWeek = 20
	cfg.StaticSitesMin, cfg.StaticSitesMax = 3, 10
	sim, err := adsim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fetch := crawler.FetcherFunc(func(site int) (string, error) {
		ids := sim.CrawlerVisit(site, 3)
		camps := make([]*adsim.Campaign, len(ids))
		for i, id := range ids {
			camps[i] = sim.Campaign(id)
		}
		return adsim.RenderPage(sim.Sites()[site], camps, int64(site)), nil
	})
	cr := crawler.New(fetch, nil)
	srv, err := cr.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctl, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	totalKeys := 0
	for site := 0; site < cfg.Sites; site++ {
		var resp wire.CrawlVisitResp
		if err := ctl.Do(wire.TypeCrawlVisit, wire.CrawlVisitReq{Site: site}, &resp); err != nil {
			t.Fatal(err)
		}
		totalKeys += len(resp.AdKeys)
	}
	if cr.Visits() != cfg.Sites {
		t.Fatalf("visits = %d", cr.Visits())
	}
	if totalKeys == 0 {
		t.Fatal("crawler found no ads")
	}
	// Every ad the crawler saw must be non-targeted ground truth.
	ds := cr.Dataset()
	if len(ds) == 0 {
		t.Fatal("empty CR dataset")
	}
	for key := range ds {
		if !cr.Seen(key) {
			t.Fatalf("Seen(%q) = false for dataset member", key)
		}
		found := false
		for _, c := range sim.Campaigns() {
			if c.LandingURL() == key {
				found = true
				if c.Kind.IsTargeted() {
					t.Fatalf("crawler saw targeted campaign %d", c.ID)
				}
			}
		}
		if !found {
			t.Fatalf("crawler key %q matches no campaign", key)
		}
	}
}
