package backend

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"eyewnder/internal/blind"
	"eyewnder/internal/campaign"
	"eyewnder/internal/detector"
	"eyewnder/internal/obs"
	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// testCampaigns returns n campaign definitions with deliberately
// distinct geometries (ε cycles four widths, δ two depths) and ID
// spaces, so multi-campaign tests prove per-campaign layout handling
// rather than one shared shape.
func testCampaigns(n int) []campaign.Campaign {
	out := make([]campaign.Campaign, n)
	for i := range out {
		out[i] = campaign.Campaign{
			ID:      uint32(i + 1),
			Name:    fmt.Sprintf("camp-%d", i+1),
			Epsilon: 0.02 * float64(1+i%4),
			Delta:   0.02 / float64(1+i/4%2),
			IDSpace: uint64(1024 + 512*i),
		}
	}
	return out
}

// buildCampaignFrames blinds one frame per roster member for the given
// campaign and round under the campaign-derived pairwise keys, and
// returns the unblinded oracle aggregate alongside.
func buildCampaignFrames(t *testing.T, roster *blind.Roster, c campaign.Campaign, base privacy.Params, users int, round uint64) ([]*wire.ReportFrame, *sketch.CMS) {
	t.Helper()
	params := c.Params(base)
	oracle, err := params.NewSketch()
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*wire.ReportFrame, users)
	for u := 0; u < users; u++ {
		cms, err := params.NewSketch()
		if err != nil {
			t.Fatal(err)
		}
		var key [8]byte
		for a := 0; a < 5; a++ {
			// Distinct per-campaign ad populations: a mismatch routed to
			// the wrong campaign changes that campaign's counts.
			binary.LittleEndian.PutUint64(key[:], uint64((int(c.ID)*977+u*31+a)%int(params.IDSpace)))
			cms.Update(key[:])
			oracle.Update(key[:])
		}
		cells := append([]uint64(nil), cms.FlatCells()...)
		party := roster.Parties[u].ForCampaignKeystream(c.ID, params.Keystream)
		if err := blind.ApplyBlinding(cells, party.Blinding(round, len(cells))); err != nil {
			t.Fatal(err)
		}
		frames[u] = &wire.ReportFrame{
			User: u, Campaign: c.ID, Round: round,
			D: cms.Depth(), W: cms.Width(), N: cms.N(), Seed: cms.Seed(),
			Keystream:     byte(params.Keystream),
			ConfigVersion: firstConfigVersion,
			Cells:         cells,
		}
	}
	return frames, oracle
}

// Eight concurrent campaigns with distinct geometries over one backend:
// every campaign's finalized counts must byte-match its unblinded
// oracle, campaign 0 must keep working untouched alongside them, and
// the keyed round surfaces must report (campaign, round) correctly.
func TestEightCampaignsDistinctGeometries(t *testing.T) {
	const users = 6
	params := storeTestParams()
	b := newStoreBackend(t, params, users, nil)

	camps := testCampaigns(8)
	for _, c := range camps {
		if err := b.AddCampaign(c); err != nil {
			t.Fatalf("AddCampaign(%d): %v", c.ID, err)
		}
	}
	if got := len(b.Campaigns()); got != len(camps) {
		t.Fatalf("Campaigns() = %d, want %d", got, len(camps))
	}

	roster, err := blind.NewRosterKeystream(params.Suite, users, rand.Reader, params.Keystream)
	if err != nil {
		t.Fatal(err)
	}

	// Campaign 0 runs alongside — the legacy path must be unaffected.
	legacy, legacyOracle := buildCampaignFrames(t, roster, campaign.Campaign{ID: 0, Epsilon: params.Epsilon, Delta: params.Delta, IDSpace: params.IDSpace}, params, users, 1)

	oracles := make(map[uint32]*sketch.CMS)
	oracles[0] = legacyOracle
	frames := legacy
	for _, c := range camps {
		fs, oracle := buildCampaignFrames(t, roster, c, params, users, 1)
		frames = append(frames, fs...)
		oracles[c.ID] = oracle
	}
	// Interleave nothing — submission order across campaigns must not
	// matter, the backend demultiplexes by the frame tag.
	for _, f := range frames {
		if err := b.ConsumeReport(f); err != nil {
			t.Fatalf("campaign %d user %d: %v", f.Campaign, f.User, err)
		}
	}

	for id, oracle := range oracles {
		if _, _, err := b.CloseRound(id, 1, 0); err != nil {
			t.Fatalf("close campaign %d: %v", id, err)
		}
		got, err := b.UserCounts(id, 1)
		if err != nil {
			t.Fatal(err)
		}
		cp := params
		for _, c := range camps {
			if c.ID == id {
				cp = c.Params(params)
			}
		}
		want := privacy.UserCounts(oracle, cp)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("campaign %d counts differ from unblinded oracle", id)
		}
	}

	// The keyed progress surface must list all nine (campaign, round)
	// rounds with their campaign tags.
	snaps := b.RoundsProgress()
	if len(snaps) != len(camps)+1 {
		t.Fatalf("RoundsProgress: %d rounds, want %d", len(snaps), len(camps)+1)
	}
	seen := make(map[uint32]bool)
	for _, rs := range snaps {
		if rs.Round != 1 || !rs.Closed {
			t.Fatalf("snapshot %+v: want round 1 closed", rs)
		}
		seen[rs.Campaign] = true
	}
	if len(seen) != len(camps)+1 {
		t.Fatalf("snapshots cover %d campaigns, want %d", len(seen), len(camps)+1)
	}

	// Unknown campaigns are errors, never implicit state.
	if _, err := b.RoundProgressOf(99, 1); !errors.Is(err, ErrUnknownRound) && !errors.Is(err, ErrUnknownCampaign) {
		t.Fatalf("unknown campaign progress = %v", err)
	}
	if err := b.ConsumeReport(&wire.ReportFrame{User: 0, Campaign: 99, Round: 1, D: 1, W: 8, Cells: make([]uint64, 8)}); err == nil {
		t.Fatal("report for unprovisioned campaign accepted")
	}
}

// Campaign state must survive a process kill: definitions, per-campaign
// round progress, and counts all recover from the WAL, and the finished
// rounds byte-match an uninterrupted control run.
func TestMultiCampaignKillAndRecover(t *testing.T) {
	const users = 5
	params := storeTestParams()
	camps := testCampaigns(3)
	roster, err := blind.NewRosterKeystream(params.Suite, users, rand.Reader, params.Keystream)
	if err != nil {
		t.Fatal(err)
	}

	type roundData struct {
		frames []*wire.ReportFrame
		oracle *sketch.CMS
	}
	data := make(map[uint32]roundData)
	for _, c := range camps {
		fs, oracle := buildCampaignFrames(t, roster, c, params, users, 1)
		data[c.ID] = roundData{fs, oracle}
	}

	// Control: uninterrupted run.
	control := newStoreBackend(t, params, users, nil)
	for _, c := range camps {
		if err := control.AddCampaign(c); err != nil {
			t.Fatal(err)
		}
		for _, f := range data[c.ID].frames {
			if err := control.ConsumeReport(f); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := control.CloseRound(c.ID, 1, 0); err != nil {
			t.Fatal(err)
		}
	}

	// Crashing run: provision, fold a partial prefix per campaign, then
	// abandon backend and store without closing either.
	dir := t.TempDir()
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1 := newStoreBackend(t, params, users, st1)
	for _, c := range camps {
		if err := b1.AddCampaign(c); err != nil {
			t.Fatal(err)
		}
		for _, f := range data[c.ID].frames[:3] {
			if err := b1.ConsumeReport(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := b1.SyncReports(); err != nil {
		t.Fatal(err)
	}
	// No Close() anywhere: the kill.

	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	b2 := newStoreBackend(t, params, users, st2)

	// Definitions recovered byte-for-byte.
	rec := b2.Campaigns()
	if len(rec) != len(camps) {
		t.Fatalf("recovered %d campaigns, want %d", len(rec), len(camps))
	}
	for i, c := range camps {
		if !reflect.DeepEqual(rec[i], c) {
			t.Fatalf("campaign %d recovered as %+v, want %+v", c.ID, rec[i], c)
		}
	}

	// Per-campaign progress recovered, then finish and compare.
	for _, c := range camps {
		prog, err := b2.RoundProgressOf(c.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if prog.Reported != 3 || prog.Closed {
			t.Fatalf("campaign %d recovered progress %+v", c.ID, prog)
		}
		for _, f := range data[c.ID].frames[3:] {
			if err := b2.ConsumeReport(f); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := b2.CloseRound(c.ID, 1, 0); err != nil {
			t.Fatal(err)
		}
		got, err := b2.UserCounts(c.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := control.UserCounts(c.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("campaign %d: recovered counts differ from control", c.ID)
		}
		oracleCounts := privacy.UserCounts(data[c.ID].oracle, c.Params(params))
		if !reflect.DeepEqual(got, oracleCounts) {
			t.Fatalf("campaign %d: recovered counts differ from unblinded oracle", c.ID)
		}
	}
}

// A replica fed the primary's WAL must mirror multi-campaign state
// byte-identically: campaign directory, per-campaign rounds, and
// per-campaign counts.
func TestReplicaMirrorsMultiCampaignWAL(t *testing.T) {
	const users = 4
	params := storeTestParams()
	camps := testCampaigns(2)
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	primary := newStoreBackend(t, params, users, st)
	roster, err := blind.NewRosterKeystream(params.Suite, users, rand.Reader, params.Keystream)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range camps {
		if err := primary.AddCampaign(c); err != nil {
			t.Fatal(err)
		}
		frames, _ := buildCampaignFrames(t, roster, c, params, users, 1)
		for _, f := range frames {
			if err := primary.ConsumeReport(f); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, err := primary.CloseRound(c.ID, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	replica := newReplica(t, params, users)
	feedWALInChunks(t, replica, dir, 7)

	if !reflect.DeepEqual(replica.Campaigns(), primary.Campaigns()) {
		t.Fatal("replica campaign directory differs from primary")
	}
	for _, c := range camps {
		pc, err := primary.UserCounts(c.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		rc, err := replica.UserCounts(c.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(pc, rc) {
			t.Fatalf("campaign %d: replica counts differ from primary", c.ID)
		}
		pt, err := primary.Threshold(c.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := replica.Threshold(c.ID, 1)
		if err != nil {
			t.Fatal(err)
		}
		if pt != rt {
			t.Fatalf("campaign %d: replica Users_th %v, primary %v", c.ID, rt, pt)
		}
	}
}

// Nothing may hand a round an ID space the close would have to sweep
// and tabulate without limit: the deployment base is checked at
// construction, a provisioned campaign at AddCampaign (in process and
// over the wire), and a recovered campaign directory entry at restore —
// each refused before anything is allocated for it.
func TestIDSpaceBounded(t *testing.T) {
	params := storeTestParams()
	for _, bad := range []uint64{0, privacy.MaxIDSpace + 1, 1 << 60} {
		p := params
		p.IDSpace = bad
		if _, err := New(Config{Params: p, Users: 4, UsersEstimator: detector.EstimatorMean}); !errors.Is(err, privacy.ErrBadIDSpace) {
			t.Errorf("New with IDSpace %d = %v, want ErrBadIDSpace", bad, err)
		}
	}

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := newStoreBackend(t, params, 4, st)
	huge := campaign.Campaign{ID: 5, Name: "huge", IDSpace: 1 << 40}
	if err := b.AddCampaign(huge); !errors.Is(err, campaign.ErrBadCampaign) {
		t.Fatalf("AddCampaign(id space 2^40) = %v, want ErrBadCampaign", err)
	}
	srv, err := b.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	err = cli.Do(wire.TypeCampaignAdd, wire.CampaignAddReq{ID: 5, Name: "huge", IDSpace: 1 << 40}, &wire.CampaignAddResp{})
	if err == nil || !strings.Contains(err.Error(), campaign.ErrBadCampaign.Error()) {
		t.Fatalf("campaign_add(id space 2^40) over the wire = %v, want %v", err, campaign.ErrBadCampaign)
	}
	if got := b.Campaigns(); len(got) != 0 {
		t.Fatalf("refused campaign was provisioned: %+v", got)
	}

	// A directory entry over the limit that is already in the WAL (written
	// by a build without the check, or by hand): the restart refuses it.
	if err := st.AppendCampaign(huge.AppendBinary(nil)); err != nil {
		t.Fatal(err)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := New(Config{Params: params, Users: 4, UsersEstimator: detector.EstimatorMean, Store: st2}); !errors.Is(err, campaign.ErrBadCampaign) {
		t.Fatalf("restart over a directory entry with id space 2^40 = %v, want ErrBadCampaign", err)
	}
}

// scrapeMetrics GETs the admin endpoint's /metrics and returns every
// sample keyed by its rendered name (labels included).
func scrapeMetrics(t *testing.T, addr string) map[string]float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// Campaign 0 and four provisioned campaigns of distinct geometries,
// multiplexed over one batched report stream for two rounds: the
// scraped per-campaign accepted series must count exactly the frames
// sent for each campaign and sum to the global accepted counter, both
// before the rounds close and after every (campaign, round) has.
func TestCampaignCountersOverOneStream(t *testing.T) {
	const (
		users  = 6
		rounds = 2
	)
	params := storeTestParams()
	reg := obs.New()
	b, err := New(Config{Params: params, Users: users, UsersEstimator: detector.EstimatorMean, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	camps := append([]campaign.Campaign{{ID: 0, Epsilon: params.Epsilon, Delta: params.Delta, IDSpace: params.IDSpace}}, testCampaigns(4)...)
	for _, c := range camps[1:] {
		if err := b.AddCampaign(c); err != nil {
			t.Fatalf("AddCampaign(%d): %v", c.ID, err)
		}
	}
	srv, err := b.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	admin, err := obs.ServeAdmin("127.0.0.1:0", obs.AdminOptions{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	roster, err := blind.NewRosterKeystream(params.Suite, users, rand.Reader, params.Keystream)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := wire.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	rs, err := cli.OpenReportStream(0)
	if err != nil {
		t.Fatal(err)
	}
	sent := make(map[uint32]int)
	for round := uint64(1); round <= rounds; round++ {
		for _, c := range camps {
			fs, _ := buildCampaignFrames(t, roster, c, params, users, round)
			for _, f := range fs {
				if err := rs.Submit(f); err != nil {
					t.Fatalf("campaign %d round %d user %d: %v", c.ID, round, f.User, err)
				}
				sent[c.ID]++
			}
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(when string, closed float64) {
		t.Helper()
		m := scrapeMetrics(t, admin.Addr())
		series, sum := 0, 0.0
		for k, v := range m {
			if strings.HasPrefix(k, "eyewnder_campaign_reports_accepted_total{") {
				series++
				sum += v
			}
		}
		if series != len(camps) {
			t.Fatalf("%s: %d per-campaign accepted series, want %d", when, series, len(camps))
		}
		for _, c := range camps {
			k := fmt.Sprintf("eyewnder_campaign_reports_accepted_total{campaign=%q}", strconv.FormatUint(uint64(c.ID), 10))
			if m[k] != float64(sent[c.ID]) {
				t.Fatalf("%s: %s = %v, want %d frames sent", when, k, m[k], sent[c.ID])
			}
		}
		if total := m["eyewnder_reports_accepted_total"]; sum != total {
			t.Fatalf("%s: per-campaign series sum to %v, eyewnder_reports_accepted_total = %v", when, sum, total)
		}
		if got := m["eyewnder_rounds_closed_total"]; got != closed {
			t.Fatalf("%s: eyewnder_rounds_closed_total = %v, want %v", when, got, closed)
		}
	}
	check("after ingest", 0)
	for round := uint64(1); round <= rounds; round++ {
		for _, c := range camps {
			if _, _, err := b.CloseRound(c.ID, round, 0); err != nil {
				t.Fatalf("close campaign %d round %d: %v", c.ID, round, err)
			}
		}
	}
	check("after the closes", rounds*float64(len(camps)))
}
