// Command eyewnder-client is a simulated browser-extension user: it
// connects to a running eyewnder-server pair, negotiates the round
// config, registers its blinding key, browses simulator-rendered pages
// for a week, uploads its blinded report, and audits the ads it saw
// once the round is closed.
//
// The client carries ZERO protocol flags: the sketch geometry, ad-ID
// space, blinding-keystream suite, roster size, and ack policy all
// arrive in the server's Welcome handshake, so operators cannot
// misconfigure a client into corrupting a round. A server that does not
// speak the handshake (an older release) is reported cleanly.
//
// Run one process per user, then close the round with -close once every
// user has reported:
//
//	eyewnder-client -user 0 &
//	eyewnder-client -user 1 &
//	eyewnder-client -user 2 -close
package main

import (
	"flag"
	"log"
	"time"

	"eyewnder/internal/adsim"
	"eyewnder/internal/client"
	"eyewnder/internal/detector"
	"eyewnder/internal/wire"
)

func main() {
	var (
		backendAddr = flag.String("backend", "127.0.0.1:7001", "back-end address")
		oprfAddr    = flag.String("oprf", "127.0.0.1:7002", "oprf-server address")
		user        = flag.Int("user", 0, "this user's roster index")
		visits      = flag.Int("visits", 40, "page visits to simulate")
		round       = flag.Uint64("round", 1, "reporting round")
		closeRound  = flag.Bool("close", false, "close the round after reporting and audit")
		seed        = flag.Int64("seed", 1, "browsing seed")
	)
	flag.Parse()

	beConn, err := wire.Dial(*backendAddr)
	if err != nil {
		log.Fatalf("dial back-end: %v", err)
	}
	defer beConn.Close()
	opConn, err := wire.Dial(*oprfAddr)
	if err != nil {
		log.Fatalf("dial oprf-server: %v", err)
	}
	defer opConn.Close()
	pub, err := client.FetchOPRFPublicKey(opConn)
	if err != nil {
		log.Fatalf("fetch oprf key: %v", err)
	}

	// client.New negotiates the round config from the back-end
	// (Hello/Welcome) before doing anything else.
	ext, err := client.New(client.Options{
		User: *user, Detector: detector.DefaultConfig(),
	}, &client.WireBackend{C: beConn}, &client.WireEvaluator{C: opConn}, pub)
	if err != nil {
		log.Fatalf("negotiate config: %v", err)
	}
	cfg := ext.Config()
	total := cfg.RosterSize
	log.Printf("negotiated config v%d: ε=%g δ=%g |A|=%d keystream=%s roster v%d (%d users)",
		cfg.Version, cfg.Params.Epsilon, cfg.Params.Delta, cfg.Params.IDSpace,
		cfg.Params.Keystream, cfg.RosterVersion, total)

	if err := ext.Register(); err != nil {
		log.Fatalf("register: %v", err)
	}
	log.Printf("user %d registered; waiting for full roster of %d", *user, total)
	for {
		if err := ext.Join(); err == nil {
			break
		}
		time.Sleep(300 * time.Millisecond)
	}
	log.Printf("user %d joined the roster (config v%d)", *user, ext.Config().Version)

	// Browse simulator-generated pages.
	simCfg := adsim.DefaultConfig()
	simCfg.Users = total
	simCfg.Sites = 200
	simCfg.Campaigns = 400
	simCfg.Seed = *seed
	sim, err := adsim.New(simCfg)
	if err != nil {
		log.Fatal(err)
	}
	res := sim.Run()
	t0 := adsim.SimStart
	seen := map[string]bool{}
	n := 0
	for _, imp := range res.Impressions {
		if imp.User != *user || n >= *visits {
			continue
		}
		n++
		site := sim.Sites()[imp.Site]
		camp := sim.Campaign(imp.Campaign)
		page := adsim.RenderPage(site, []*adsim.Campaign{camp}, int64(n))
		ads, err := ext.VisitPage(site.Domain, page, imp.Time)
		if err != nil {
			log.Fatalf("visit: %v", err)
		}
		for _, ad := range ads {
			seen[ad.Key()] = true
		}
	}
	log.Printf("user %d browsed %d pages, observed %d distinct ads", *user, n, len(seen))

	if err := ext.SubmitReport(*round); err != nil {
		log.Fatalf("report: %v", err)
	}
	// SubmitReport re-Joins by itself when the roster moved under it (a
	// re-enrolled user bumps the config version), so the version the
	// report went out under may be newer than the one joined above.
	log.Printf("user %d submitted blinded report for round %d (config v%d)", *user, *round, ext.Config().Version)

	if !*closeRound {
		return
	}
	// Wait until everyone reported, then close and audit.
	for {
		reported, _, _, err := (&client.WireBackend{C: beConn}).RoundStatus(*round)
		if err != nil {
			log.Fatal(err)
		}
		if reported >= total {
			break
		}
		time.Sleep(300 * time.Millisecond)
	}
	var resp wire.CloseRoundResp
	if err := beConn.Do(wire.TypeCloseRound, wire.CloseRoundReq{Round: *round}, &resp); err != nil {
		log.Fatalf("close round: %v", err)
	}
	log.Printf("round %d closed: Users_th=%.2f over %d distinct ads", *round, resp.UsersTh, resp.DistinctAds)
	now := t0.Add(6 * 24 * time.Hour)
	for key := range seen {
		v, err := ext.AuditAd(key, *round, now)
		if err != nil {
			log.Fatalf("audit: %v", err)
		}
		log.Printf("audit %-60s → %-12s (#domains=%d th=%.2f  #users=%d th=%.2f)",
			key, v.Class, v.DomainCount, v.DomainsThreshold, v.UserCount, v.UsersThreshold)
	}
}
