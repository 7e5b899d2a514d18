// Privacy walkthrough: the three cryptographic moves of Section 6, shown
// step by step — (1) the oblivious PRF that turns ad URLs into opaque
// IDs, (2) the blinded count-min sketches whose individual cells look
// uniformly random, (3) the aggregation that cancels all blindings and
// reveals only the global #Users counters, including the two-round
// recovery when a client goes missing.
package main

import (
	"crypto/rand"
	"fmt"
	"log"

	"eyewnder/internal/blind"
	"eyewnder/internal/group"
	"eyewnder/internal/oprf"
	"eyewnder/internal/privacy"
)

func main() {
	params := privacy.Params{Epsilon: 0.05, Delta: 0.05, IDSpace: 1000, Suite: group.P256()}
	// A round config normally arrives from the server's Welcome
	// handshake; this single-process walkthrough pins the first one a
	// server would advertise for a 5-user roster.
	rcfg := privacy.RoundConfig{Version: 1, RosterVersion: 1, RosterSize: 5, Params: params}

	// (1) Oblivious PRF: the client learns F(k, url); the server never
	// sees the URL, the client never sees k.
	osrv, err := oprf.NewServer(1024)
	if err != nil {
		log.Fatal(err)
	}
	cli := oprf.NewClient(osrv.PublicKey(), nil)
	url := "https://ads.example/creative/42"
	req, err := cli.Blind([]byte(url))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("blinded request (server sees only this): %x...\n", req.Blinded.Bytes()[:8])
	resp, err := osrv.Evaluate(req.Blinded)
	if err != nil {
		log.Fatal(err)
	}
	out, err := cli.Finalize(req, resp)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ad URL %q → ad ID %d (verified against the server's public key)\n\n",
		url, params.AdID(out))

	// (2) Blinded sketches: 5 users, each reporting one shared ad plus a
	// private one.
	roster, err := blind.NewRoster(params.Suite, 5, rand.Reader)
	if err != nil {
		log.Fatal(err)
	}
	clients := make([]*privacy.Client, 5)
	agg, err := privacy.NewAggregator(rcfg, 1)
	if err != nil {
		log.Fatal(err)
	}
	var sharedID uint64
	for i, p := range roster.Parties {
		clients[i] = privacy.NewClient(rcfg, p, osrv.PublicKey(), osrv)
		sharedID, err = clients[i].ObserveAd("https://ads.example/shared")
		if err != nil {
			log.Fatal(err)
		}
		if _, err := clients[i].ObserveAd(fmt.Sprintf("https://ads.example/private-%d", i)); err != nil {
			log.Fatal(err)
		}
	}
	for i, c := range clients {
		rep, err := c.Report(1)
		if err != nil {
			log.Fatal(err)
		}
		cells := rep.Sketch.FlatCells()
		fmt.Printf("user %d blinded report, first cells: %016x %016x ... (uniform noise)\n",
			i, cells[0], cells[1])
		if err := agg.Add(rep); err != nil {
			log.Fatal(err)
		}
	}

	// (3) Aggregation: blindings cancel; only the multiset union remains.
	final, err := agg.Finalize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\naggregate: #Users(shared ad) = %d (true: 5)\n", privacy.QueryUsers(final, sharedID))

	// Fault tolerance: re-run with user 3 missing; reporters adjust.
	fmt.Println("\n--- round 2, user 3 never reports ---")
	agg2, err := privacy.NewAggregator(rcfg, 2)
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range clients {
		if i == 3 {
			continue
		}
		if _, err := c.ObserveAd("https://ads.example/shared"); err != nil {
			log.Fatal(err)
		}
		rep, err := c.Report(2)
		if err != nil {
			log.Fatal(err)
		}
		if err := agg2.Add(rep); err != nil {
			log.Fatal(err)
		}
	}
	missing := agg2.Missing()
	fmt.Printf("back-end publishes missing list: %v\n", missing)
	cms, _ := params.NewSketch()
	var adjs [][]uint64
	for i, c := range clients {
		if i == 3 {
			continue
		}
		adj, err := c.Adjust(2, cms.Cells(), missing)
		if err != nil {
			log.Fatal(err)
		}
		adjs = append(adjs, adj)
	}
	if err := agg2.ApplyAdjustments(adjs...); err != nil {
		log.Fatal(err)
	}
	final2, err := agg2.Finalize()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 2-round recovery: #Users(shared ad) = %d (true among reporters: 4)\n",
		privacy.QueryUsers(final2, sharedID))
}
