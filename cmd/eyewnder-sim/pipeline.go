package main

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"runtime"
	"sort"
	"time"

	"eyewnder/internal/addetect"
	"eyewnder/internal/adsim"
	"eyewnder/internal/backend"
	"eyewnder/internal/blind"
	"eyewnder/internal/campaign"
	"eyewnder/internal/client"
	"eyewnder/internal/detector"
	"eyewnder/internal/group"
	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
	"eyewnder/internal/taxonomy"
	"eyewnder/internal/vec"
	"eyewnder/internal/wire"
)

// The pipeline demo closes the paper's loop end to end in one process:
// simulated browsing (adsim) renders the HTML pages a user's browser
// would receive, the extension-side detector (addetect) scans them, the
// landing-page classifier routes every detected ad to the counting
// campaign claiming its category (campaign.Mapper over the taxonomy),
// each user folds its detections into per-campaign CMS sketches, blinds
// them under campaign-derived pairwise keys, and streams every
// campaign's population over ONE batched connection to a multi-campaign
// back-end — then byte-compares each campaign's finalized per-ad-ID
// counts against an unblinded oracle built from the same detections.
//
// A fault anywhere — detection, mapping, campaign key derivation, wire
// demultiplexing, per-campaign folding, finalization — breaks the byte
// comparison, so the demo doubles as the strongest end-to-end
// correctness check the repo has.
type pipelineConfig struct {
	users     int
	weeks     int // one reporting round per simulated week
	campaigns int
	seed      int64
}

// pipelineSummary is the machine-readable final stdout line. CI runs
// the demo twice with the same seed and asserts the digests match, and
// jq-checks that every campaign byte-matched its oracle.
type pipelineSummary struct {
	Schema      string  `json:"schema"`
	Users       int     `json:"users"`
	Rounds      int     `json:"rounds"`
	Campaigns   int     `json:"campaigns"`
	Pages       int     `json:"pages"`
	AdsDetected int     `json:"ads_detected"`
	AdsMapped   int     `json:"ads_mapped"`
	AdsDropped  int     `json:"ads_dropped"`
	Reports     int     `json:"reports"`
	Matched     int     `json:"matched_campaigns"`
	VecKernel   string  `json:"vec_kernel"`
	MaxProcs    int     `json:"maxprocs"`
	Seconds     float64 `json:"seconds"`
	Digest      string  `json:"digest"`
}

// pipelineCampaign is one provisioned counting campaign plus the
// client-side state the demo keeps for it.
type pipelineCampaign struct {
	def    campaign.Campaign
	params privacy.Params
	topic  taxonomy.Topic
}

// runPipeline is the -pipeline entry point.
func runPipeline(cfg pipelineConfig) error {
	start := time.Now()

	// 1. Simulate browsing with full ground truth. The scale is small:
	// the demo's value is the path, not the load.
	simCfg := adsim.DefaultConfig()
	simCfg.Seed = cfg.seed
	simCfg.Users = cfg.users
	simCfg.Sites = 8 * cfg.users
	simCfg.Campaigns = 6 * cfg.users
	simCfg.Weeks = cfg.weeks
	sim, err := adsim.New(simCfg)
	if err != nil {
		return err
	}
	res := sim.Run()

	// 2. Pick the counting campaigns: the N ad categories with the most
	// simulated impressions each get a campaign named after their
	// taxonomy topic — that name is what makes the mapper route
	// detections to it. Geometries deliberately differ across campaigns
	// (ε cycles four widths, δ two depths) so the run proves the server
	// folds per-campaign geometry, not one shared layout.
	byTopic := make(map[taxonomy.Topic]int)
	for _, imp := range res.Impressions {
		byTopic[sim.Campaign(imp.Campaign).Category]++
	}
	topics := make([]taxonomy.Topic, 0, len(byTopic))
	for t := range byTopic {
		topics = append(topics, t)
	}
	sort.Slice(topics, func(i, j int) bool {
		if byTopic[topics[i]] != byTopic[topics[j]] {
			return byTopic[topics[i]] > byTopic[topics[j]]
		}
		return topics[i] < topics[j]
	})
	if len(topics) < cfg.campaigns {
		return fmt.Errorf("simulation produced %d ad categories, need %d campaigns", len(topics), cfg.campaigns)
	}
	camps := make([]*pipelineCampaign, cfg.campaigns)
	for i := 0; i < cfg.campaigns; i++ {
		camps[i] = &pipelineCampaign{
			def: campaign.Campaign{
				ID:      uint32(i + 1),
				Name:    topics[i].String(),
				Epsilon: 0.01 * float64(1+i%4),
				Delta:   0.01 / float64(1+i/4%2),
				IDSpace: uint64(20000 + 4000*i),
			},
			topic: topics[i],
		}
	}

	// 3. The multi-campaign back-end, served over the real wire.
	params := privacy.Params{Epsilon: 0.01, Delta: 0.01, IDSpace: 100000, Suite: group.P256()}
	be, err := backend.New(backend.Config{
		Params:         params,
		Users:          cfg.users,
		UsersEstimator: detector.EstimatorMean,
	})
	if err != nil {
		return err
	}
	defer be.Close()
	for _, pc := range camps {
		if err := be.AddCampaign(pc.def); err != nil {
			return fmt.Errorf("provisioning campaign %q: %w", pc.def.Name, err)
		}
	}
	srv, err := be.Serve("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer srv.Close()
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		return err
	}
	defer cli.Close()
	cf, err := cli.Handshake()
	if err != nil {
		return fmt.Errorf("config handshake: %w", err)
	}
	rcfg, err := client.RoundConfigFromFrame(cf)
	if err != nil {
		return err
	}
	params = rcfg.Params

	// The mapper routes by the directory the server advertises, not the
	// local definitions — a provisioning mismatch shows up here.
	dir, err := cli.CampaignDirectory()
	if err != nil {
		return fmt.Errorf("campaign directory: %w", err)
	}
	if len(dir) != len(camps) {
		return fmt.Errorf("directory advertises %d campaigns, provisioned %d", len(dir), len(camps))
	}
	byID := make(map[uint32]*pipelineCampaign, len(camps))
	for _, pc := range camps {
		byID[pc.def.ID] = pc
	}
	for _, c := range dir {
		pc, ok := byID[c.ID]
		if !ok || pc.def.Name != c.Name {
			return fmt.Errorf("directory entry %d/%q does not match provisioning", c.ID, c.Name)
		}
		pc.params = c.Params(params)
	}
	mapper := campaign.NewMapper(dir)

	roster, err := blind.NewRosterKeystream(params.Suite, cfg.users, rand.Reader, params.Keystream)
	if err != nil {
		return err
	}
	det := addetect.New(nil)

	fmt.Printf("pipeline: %d users × %d weeks, %d counting campaigns over one batched stream (seed %d)\n",
		cfg.users, cfg.weeks, len(camps), cfg.seed)
	for _, pc := range camps {
		d, w, err := sketch.Dimensions(pc.params.Epsilon, pc.params.Delta)
		if err != nil {
			return err
		}
		fmt.Printf("  campaign %d %-18s ε=%.2f δ=%.4g idspace=%d (%d×%d sketch) — %d simulated impressions\n",
			pc.def.ID, pc.def.Name, pc.def.Epsilon, pc.def.Delta, pc.def.IDSpace, d, w, byTopic[pc.topic])
	}

	digest := sha256.New()
	sum := pipelineSummary{
		Schema: "eyewnder-pipeline/v1", Users: cfg.users, Rounds: cfg.weeks,
		Campaigns: len(camps), VecKernel: vec.Active(), MaxProcs: runtime.GOMAXPROCS(0),
	}

	// 4. One reporting round per simulated week: render every visit's
	// page, detect, map, fold, blind, stream, close, compare.
	for week := 0; week < cfg.weeks; week++ {
		round := uint64(week + 1)

		// Per-user per-campaign sketches plus the per-campaign unblinded
		// oracle. The oracle is a plain CMS fed the identical update
		// stream — CMS folding is linear, so it equals the sum of the
		// user sketches exactly, which is what the server must recover
		// once the pairwise pads cancel.
		userSketches := make([]map[uint32]*sketch.CMS, cfg.users)
		oracle := make(map[uint32]*sketch.CMS, len(camps))
		sketchFor := func(u int, id uint32) (*sketch.CMS, error) {
			if userSketches[u] == nil {
				userSketches[u] = make(map[uint32]*sketch.CMS)
			}
			if s, ok := userSketches[u][id]; ok {
				return s, nil
			}
			s, err := byID[id].params.NewSketch()
			if err != nil {
				return nil, err
			}
			userSketches[u][id] = s
			return s, nil
		}

		// A visit's impressions are appended consecutively by the
		// simulator and share (user, site, week, day, time) — walk the
		// stream grouping on those to recover page loads.
		seen := make(map[string]bool) // user|campaign|adID dedup: distinct-user counting
		imps := res.Impressions
		for i := 0; i < len(imps); {
			if imps[i].Week != week {
				i++
				continue
			}
			j := i + 1
			for j < len(imps) && imps[j].User == imps[i].User && imps[j].Site == imps[i].Site &&
				imps[j].Week == imps[i].Week && imps[j].Day == imps[i].Day && imps[j].Time.Equal(imps[i].Time) {
				j++
			}
			shown := make([]*adsim.Campaign, 0, j-i)
			for k := i; k < j; k++ {
				shown = append(shown, sim.Campaign(imps[k].Campaign))
			}
			u := imps[i].User
			page := adsim.RenderPage(sim.Sites()[imps[i].Site], shown, cfg.seed+int64(i)*7919)
			sum.Pages++
			for _, ad := range det.Scan(page) {
				sum.AdsDetected++
				cid, ok := mapper.Map(ad)
				if !ok {
					sum.AdsDropped++
					continue
				}
				sum.AdsMapped++
				pc := byID[cid]
				h := fnv.New64a()
				h.Write([]byte(ad.Key()))
				var key [8]byte
				binary.LittleEndian.PutUint64(key[:], h.Sum64()%pc.def.IDSpace)
				dk := fmt.Sprintf("%d|%d|%x", u, cid, key)
				if seen[dk] {
					continue
				}
				seen[dk] = true
				s, err := sketchFor(u, cid)
				if err != nil {
					return err
				}
				s.Update(key[:])
				o, ok := oracle[cid]
				if !ok {
					o, err = pc.params.NewSketch()
					if err != nil {
						return err
					}
					oracle[cid] = o
				}
				o.Update(key[:])
			}
			i = j
		}

		// Every roster member submits one frame per campaign — users
		// with no detections send an empty sketch, because the pairwise
		// pads only cancel when the whole population reports.
		rs, err := cli.OpenReportStream(0)
		if err != nil {
			return err
		}
		for _, pc := range camps {
			for u := 0; u < cfg.users; u++ {
				s, err := sketchFor(u, pc.def.ID)
				if err != nil {
					return err
				}
				cells := append([]uint64(nil), s.FlatCells()...)
				party := roster.Parties[u].ForCampaignKeystream(pc.def.ID, pc.params.Keystream)
				if err := blind.ApplyBlinding(cells, party.Blinding(round, len(cells))); err != nil {
					return err
				}
				if err := rs.Submit(&wire.ReportFrame{
					User: u, Campaign: pc.def.ID, Round: round,
					D: s.Depth(), W: s.Width(), N: s.N(), Seed: s.Seed(),
					Keystream:     byte(pc.params.Keystream),
					ConfigVersion: rcfg.Version,
					Cells:         cells,
				}); err != nil {
					return fmt.Errorf("round %d campaign %d user %d: %w", round, pc.def.ID, u, err)
				}
				sum.Reports++
			}
		}
		if err := rs.Close(); err != nil {
			return err
		}

		// Close each campaign's round and byte-compare its counts with
		// the oracle's.
		for _, pc := range camps {
			var closed wire.CloseRoundResp
			if err := cli.Do(wire.TypeCloseRound, wire.CloseRoundReq{Campaign: pc.def.ID, Round: round}, &closed); err != nil {
				return fmt.Errorf("close campaign %d round %d: %w", pc.def.ID, round, err)
			}
			var counts wire.RoundCountsResp
			if err := cli.Do(wire.TypeRoundCounts, wire.RoundCountsReq{Campaign: pc.def.ID, Round: round}, &counts); err != nil {
				return fmt.Errorf("counts campaign %d round %d: %w", pc.def.ID, round, err)
			}
			want := map[uint64]uint64{}
			if o, ok := oracle[pc.def.ID]; ok {
				want = privacy.UserCounts(o, pc.params)
			}
			if err := compareCounts(counts.Counts, want); err != nil {
				return fmt.Errorf("campaign %d (%s) round %d: %w", pc.def.ID, pc.def.Name, round, err)
			}
			sum.Matched++
			foldCountsDigest(digest, pc.def.ID, round, counts.Counts)
			fmt.Printf("  round %d campaign %d %-18s %d distinct ads, Users_th=%.2f — counts byte-match oracle ✓\n",
				round, pc.def.ID, pc.def.Name, closed.DistinctAds, closed.UsersTh)
		}
	}

	sum.Seconds = time.Since(start).Seconds()
	sum.Digest = hex.EncodeToString(digest.Sum(nil))
	out, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	fmt.Fprintln(os.Stdout, string(out))
	return nil
}

// compareCounts demands exact equality between the server's finalized
// per-ad-ID counts and the oracle's.
func compareCounts(got, want map[uint64]uint64) error {
	if len(got) != len(want) {
		return fmt.Errorf("server returned %d counted ad IDs, oracle has %d", len(got), len(want))
	}
	for id, w := range want {
		if g, ok := got[id]; !ok || g != w {
			return fmt.Errorf("ad ID %d: server count %d, oracle %d", id, got[id], w)
		}
	}
	return nil
}

// foldCountsDigest folds one campaign-round's counts into the run
// digest in sorted order, so the digest is a stable function of the
// finalized results only.
func foldCountsDigest(h hash.Hash, campaign uint32, round uint64, counts map[uint64]uint64) {
	ids := make([]uint64, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(campaign))
	h.Write(buf[:])
	binary.LittleEndian.PutUint64(buf[:], round)
	h.Write(buf[:])
	for _, id := range ids {
		binary.LittleEndian.PutUint64(buf[:], id)
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:], counts[id])
		h.Write(buf[:])
	}
}
