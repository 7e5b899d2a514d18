package main

// Every call into internal/* that is not the wire client API lives in
// this file: standing the server stack up the way cmd/eyewnder-server
// does, the timing decorators on its two public seams, the client-side
// crypto of a real roster, the unblinded oracle, and the direct timed
// calls into single layers. A change to those packages' APIs is a change
// to this file only.

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"eyewnder/internal/backend"
	"eyewnder/internal/blind"
	"eyewnder/internal/campaign"
	"eyewnder/internal/detector"
	"eyewnder/internal/group"
	"eyewnder/internal/obs"
	"eyewnder/internal/privacy"
	"eyewnder/internal/repl"
	"eyewnder/internal/sketch"
	"eyewnder/internal/store"
	"eyewnder/internal/vec"
	"eyewnder/internal/wire"
)

// Keystream suite bytes, as frames carry them.
const (
	ksHMAC   = byte(blind.KeystreamHMACSHA256)
	ksAESCTR = byte(blind.KeystreamAESCTR)
)

// errAdjustIncompleteText is how a sealing close_round's expected
// refusal reads on the wire.
var errAdjustIncompleteText = backend.ErrAdjustIncomplete.Error()

// vecKernel names the active vec kernel for the run metadata.
func vecKernel() string { return vec.Active() }

// geometry is one campaign's sketch shape and blinding suite.
type geometry struct {
	eps, delta float64
	idSpace    uint64
	keystream  byte
	d, w       int
}

func newGeometry(eps float64, idSpace uint64, keystream byte) (geometry, error) {
	d, w, err := sketch.Dimensions(eps, eps)
	if err != nil {
		return geometry{}, err
	}
	return geometry{eps: eps, delta: eps, idSpace: idSpace, keystream: keystream, d: d, w: w}, nil
}

func (g geometry) cells() int { return g.d * g.w }

func (g geometry) params() privacy.Params {
	return privacy.Params{Epsilon: g.eps, Delta: g.delta, IDSpace: g.idSpace,
		Suite: group.P256(), Keystream: blind.Keystream(g.keystream)}
}

// --- the user's machine ---

// sketchOf encodes a user's ad set into a fresh, unblinded cell vector.
func sketchOf(g geometry, ads []uint64) (cells []uint64, n, seed uint64, err error) {
	cms, err := g.params().NewSketch()
	if err != nil {
		return nil, 0, 0, err
	}
	var key [8]byte
	for _, id := range ads {
		binary.LittleEndian.PutUint64(key[:], id)
		cms.Update(key[:])
	}
	return cms.FlatCells(), cms.N(), cms.Seed(), nil
}

// cryptoRoster is a roster with real P-256 pairwise secrets: every
// user's (newCryptoRoster) or only user 0's (newClientParty).
type cryptoRoster struct {
	r *blind.Roster
}

// newCryptoRoster generates n key pairs and every pairwise secret
// (O(n²) ECDH).
func newCryptoRoster(n int, keystream byte) (*cryptoRoster, error) {
	r, err := blind.NewRosterKeystream(group.P256(), n, crand.Reader, blind.Keystream(keystream))
	if err != nil {
		return nil, err
	}
	return &cryptoRoster{r: r}, nil
}

// newClientParty generates n key pairs but derives only user 0's
// pairwise secrets (O(n) ECDH): one user's machine in a roster of n,
// for timing what it does where the fleet itself uses seeded pads.
func newClientParty(n int, keystream byte) (*cryptoRoster, error) {
	suite := group.P256()
	var priv0 group.PrivateKey
	pubs := make([][]byte, n)
	for i := range pubs {
		k, err := suite.GenerateKey(crand.Reader)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			priv0 = k
		}
		pubs[i] = k.PublicKey()
	}
	p, err := blind.NewPartyKeystream(priv0, pubs, 0, blind.Keystream(keystream))
	if err != nil {
		return nil, err
	}
	return &cryptoRoster{r: &blind.Roster{Suite: suite, Publics: pubs, Parties: []*blind.Party{p}}}, nil
}

func (c *cryptoRoster) publicKey(u int) []byte { return c.r.Publics[u] }

// blindedReport is what user u's machine does once a round: encode the
// ad set, expand the pairwise keystreams, blind.
func (c *cryptoRoster) blindedReport(g geometry, u int, round uint64, ads []uint64) (cells []uint64, n uint64, err error) {
	cells, n, _, err = sketchOf(g, ads)
	if err != nil {
		return nil, 0, err
	}
	if err := blind.ApplyBlinding(cells, c.r.Parties[u].Blinding(round, len(cells))); err != nil {
		return nil, 0, err
	}
	return cells, n, nil
}

// adjustment is user u's second-round share towards the missing users.
func (c *cryptoRoster) adjustment(u int, round uint64, cells int, missing []int) ([]uint64, error) {
	return c.r.Parties[u].Adjustment(round, cells, blind.MissingSet(missing))
}

// --- the oracle ---

// oracleCounts is what the server must publish for a round whose
// reporters' unblinded sketches sum to cells: the per-ad user counts and
// the Users_th derived from them.
func oracleCounts(g geometry, cells []uint64, n uint64) (map[uint64]uint64, float64, error) {
	cms, err := sketch.Restore(g.d, g.w, 0, n, append([]uint64(nil), cells...))
	if err != nil {
		return nil, 0, err
	}
	counts := privacy.UserCounts(cms, g.params())
	sample := make([]float64, 0, len(counts))
	for _, c := range counts {
		sample = append(sample, float64(c))
	}
	return counts, detector.UsersThreshold(sample, detector.EstimatorMean), nil
}

// --- the server stack ---

// campaignSpec is one provisioned campaign beyond the implicit 0.
type campaignSpec struct {
	id  uint32
	geo geometry
}

// deploySpec describes one deployment of the server stack.
type deploySpec struct {
	geo            geometry
	users          int
	campaigns      []campaignSpec
	dir            string // "" = store.Null
	snapshotEvery  int
	retainRounds   int
	retainSegments int
	tr             *tracer // non-nil: serve through the timing decorators
}

// deployment is a running server stack: store → backend → wire server on
// a loopback port, in this process.
type deployment struct {
	spec deploySpec
	reg  *obs.Registry
	disk *store.Disk
	be   *backend.Backend
	srv  *wire.Server
	// openNs and newNs split the start into store.Open and backend.New.
	openNs, newNs int64
}

func (s deploySpec) backendConfig(st store.Store, reg *obs.Registry) backend.Config {
	return backend.Config{
		Params:         s.geo.params(),
		Users:          s.users,
		UsersEstimator: detector.EstimatorMean,
		Store:          st,
		RetainRounds:   s.retainRounds,
		Metrics:        reg,
	}
}

// startDeployment assembles the stack exactly as eyewnder-server does:
// store.Open → backend.New → AddCampaign per provisioned campaign →
// Serve on 127.0.0.1:0. On a directory that already holds state this is
// a restart.
func startDeployment(spec deploySpec) (*deployment, error) {
	d := &deployment{spec: spec, reg: obs.New()}
	var st store.Store = store.Null{}
	t0 := time.Now()
	if spec.dir != "" {
		disk, err := store.Open(spec.dir, store.Options{
			SnapshotEvery: spec.snapshotEvery, RetainSegments: spec.retainSegments, Metrics: d.reg})
		if err != nil {
			return nil, err
		}
		d.disk, st = disk, disk
	}
	d.openNs = int64(time.Since(t0))
	if spec.tr != nil {
		st = timedStore{Store: st, tr: spec.tr}
	}
	t1 := time.Now()
	be, err := backend.New(spec.backendConfig(st, d.reg))
	if err != nil {
		d.stop()
		return nil, err
	}
	d.be = be
	d.newNs = int64(time.Since(t1))
	for _, c := range spec.campaigns {
		if err := be.AddCampaign(campaign.Campaign{
			ID: c.id, Name: fmt.Sprintf("bench-%d", c.id),
			Epsilon: c.geo.eps, Delta: c.geo.delta, IDSpace: c.geo.idSpace,
		}); err != nil {
			d.stop()
			return nil, err
		}
	}
	if spec.tr != nil {
		d.srv, err = wire.ServeWithSinkOpts("127.0.0.1:0", timedHandler(be.Handler(), spec.tr),
			timedSink{be: be, tr: spec.tr},
			wire.StreamOpts{Config: be.WireConfig, Campaigns: be.Campaigns, Metrics: d.reg})
	} else {
		d.srv, err = be.Serve("127.0.0.1:0")
	}
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *deployment) addr() string { return d.srv.Addr() }

// stop shuts the stack down in the order eyewnder-server's defers do.
// backend.Close waits for an in-flight snapshot, so the directory is
// quiescent afterwards.
func (d *deployment) stop() error {
	var first error
	if d.srv != nil {
		first = d.srv.Close()
	}
	if d.be != nil {
		if err := d.be.Close(); err != nil && first == nil {
			first = err
		}
	}
	if d.disk != nil {
		if err := d.disk.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// counters snapshots the deployment's obs registry.
func (d *deployment) counters() map[string]float64 { return d.reg.Snapshot() }

// rejected sums the rejected-report counters over all reasons.
func rejected(snap map[string]float64) float64 {
	var sum float64
	for k, v := range snap {
		if strings.HasPrefix(k, "eyewnder_reports_rejected_total") {
			sum += v
		}
	}
	return sum
}

// recoveredReported reads a store directory without touching it and
// returns, per (campaign, round) it holds, how many users' reports
// recovery finds.
func recoveredReported(dir string) (map[[2]uint64]int, error) {
	rec, err := store.Recover(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[[2]uint64]int)
	for _, rs := range rec.Rounds() {
		n := 0
		for _, r := range rs.Reported {
			if r {
				n++
			}
		}
		out[[2]uint64{uint64(rs.Campaign), rs.Round}] = n
	}
	return out, nil
}

// shipper serves a deployment's store directory to followers.
type shipper struct{ p *repl.Primary }

func startShipper(d *deployment) (*shipper, error) {
	p, err := repl.ServePrimary("127.0.0.1:0", d.disk)
	if err != nil {
		return nil, err
	}
	return &shipper{p: p}, nil
}

func (s *shipper) addr() string { return s.p.Addr() }
func (s *shipper) stop() error  { return s.p.Close() }

// follower is a hot standby mirroring a primary into its own directory,
// with its warm replica served on a loopback port.
type follower struct {
	f      *repl.Follower
	reg    *obs.Registry
	srv    *wire.Server
	syncNs int64 // StartFollower's initial sync
}

// startFollower starts a follower of the shipper at primary into the
// (empty) directory dir.
func startFollower(primary, dir string, spec deploySpec) (*follower, error) {
	fo := &follower{reg: obs.New()}
	t0 := time.Now()
	f, err := repl.StartFollower(repl.Options{Dir: dir, Addr: primary, Metrics: fo.reg},
		spec.backendConfig(nil, fo.reg))
	if err != nil {
		return nil, err
	}
	fo.f = f
	fo.syncNs = int64(time.Since(t0))
	fo.srv, err = wire.ServeWithSinkOpts("127.0.0.1:0",
		func(m *wire.Msg) (string, interface{}, error) { return f.Replica().Handler()(m) }, nil,
		wire.StreamOpts{Config: func() wire.ConfigFrame { return f.Replica().WireConfig() }, Metrics: fo.reg})
	if err != nil {
		f.Stop()
		return nil, err
	}
	return fo, nil
}

// caughtUp reports whether the follower has fetched and applied every
// byte of the primary's manifest; err is a fatal replication stop.
func (fo *follower) caughtUp() (bool, error) {
	s := fo.f.Status()
	return s.CaughtUp, s.Err
}

func (fo *follower) addr() string { return fo.srv.Addr() }

// fetches is the number of chunk fetches the follower has made.
func (fo *follower) fetches() float64 {
	return fo.reg.Snapshot()["eyewnder_repl_fetch_seconds_count"]
}

func (fo *follower) stop() {
	fo.srv.Close()
	fo.f.Stop()
	if r := fo.f.Replica(); r != nil {
		r.Close()
	}
}

// --- timing decorators on the public seams ---

// timedStore times the store calls on the ingest and close paths; every
// other Store method passes through.
type timedStore struct {
	store.Store
	tr *tracer
}

func (s timedStore) AppendReport(c uint32, round uint64, user, d, w int, n, seed uint64, ks byte, cv uint32, cells []uint64) error {
	if !s.tr.on.Load() {
		return s.Store.AppendReport(c, round, user, d, w, n, seed, ks, cv, cells)
	}
	t := s.tr.now()
	err := s.Store.AppendReport(c, round, user, d, w, n, seed, ks, cv, cells)
	s.tr.record(spAppendReport, t, reqOf(c, round, user))
	return err
}

func (s timedStore) AppendAdjust(c uint32, round uint64, user int, cells []uint64) error {
	if !s.tr.on.Load() {
		return s.Store.AppendAdjust(c, round, user, cells)
	}
	t := s.tr.now()
	err := s.Store.AppendAdjust(c, round, user, cells)
	s.tr.record(spAppendAdjust, t, reqOf(c, round, user))
	return err
}

func (s timedStore) AppendClose(c uint32, round uint64) error {
	if !s.tr.on.Load() {
		return s.Store.AppendClose(c, round)
	}
	t := s.tr.now()
	err := s.Store.AppendClose(c, round)
	s.tr.record(spAppendClose, t, 0)
	return err
}

func (s timedStore) Sync() error {
	if !s.tr.on.Load() {
		return s.Store.Sync()
	}
	t := s.tr.now()
	err := s.Store.Sync()
	s.tr.record(spSync, t, 0)
	return err
}

func (s timedStore) Snapshot(capture func() ([]*store.RoundState, error)) error {
	if !s.tr.on.Load() {
		return s.Store.Snapshot(capture)
	}
	t := s.tr.now()
	err := s.Store.Snapshot(capture)
	s.tr.record(spSnapshot, t, 0)
	return err
}

// timedSink is the wire server's ReportSink and ReportDurability with
// the back-end behind it.
type timedSink struct {
	be *backend.Backend
	tr *tracer
}

func (s timedSink) ConsumeReport(f *wire.ReportFrame) error {
	if !s.tr.on.Load() {
		return s.be.ConsumeReport(f)
	}
	kind := spConsume
	if f.Kind == wire.FrameKindAdjust {
		kind = spAdjust
	}
	req := reqOf(f.Campaign, f.Round, f.User) // the frame is recycled after the call
	t := s.tr.now()
	err := s.be.ConsumeReport(f)
	s.tr.record(kind, t, req)
	return err
}

func (s timedSink) SyncReports() error {
	if !s.tr.on.Load() {
		return s.be.SyncReports()
	}
	t := s.tr.now()
	err := s.be.SyncReports()
	s.tr.record(spSyncReports, t, 0)
	return err
}

// timedHandler times every JSON control op.
func timedHandler(h wire.Handler, tr *tracer) wire.Handler {
	return func(m *wire.Msg) (string, interface{}, error) {
		if !tr.on.Load() {
			return h(m)
		}
		t := tr.now()
		typ, resp, err := h(m)
		tr.record(spOp, t, 0)
		return typ, resp, err
	}
}

// discardSink acknowledges frames without looking at them: a wire server
// in front of it measures the wire layer alone.
type discardSink struct{}

func (discardSink) ConsumeReport(*wire.ReportFrame) error { return nil }

// startDiscardServer serves a no-op sink with the deployment's stream
// options.
func startDiscardServer(d *deployment) (*wire.Server, error) {
	return wire.ServeWithSinkOpts("127.0.0.1:0",
		func(m *wire.Msg) (string, interface{}, error) {
			return "", nil, fmt.Errorf("discard server: %s", m.Type)
		},
		discardSink{},
		wire.StreamOpts{Config: d.be.WireConfig, Campaigns: d.be.Campaigns})
}

// --- direct timed calls into single layers ---

// probeBudget bounds each direct probe's measuring loop.
type probeBudget struct {
	minIters int
	minTime  time.Duration
}

// timeLoop runs fn until both the iteration and the time floor are met
// and returns the mean time per call in nanoseconds.
func (b probeBudget) timeLoop(fn func(i int)) float64 {
	t0 := time.Now()
	i := 0
	for ; i < b.minIters || time.Since(t0) < b.minTime; i++ {
		fn(i)
	}
	return float64(time.Since(t0)) / float64(i)
}

type layerProbes struct {
	foldUs, foldContendedUs            float64
	finalizeMs, userCountsMs           float64
	queryUsersNs                       float64
	vecAddNsPerKcell, vecSubNsPerKcell float64
	sketchUpdateNs, sketchQueryNs      float64
	blindingMs, blindAllocKB           float64
	adjustmentMs                       float64
	usersThresholdUs                   float64
	encodeUs                           float64
}

// probeLayers times privacy, vec, sketch, blind, detector and the frame
// encoder directly on the frames (and shares) a workload generated; the
// blind probes run on user 0 of client, the party client_report_ms was
// measured on.
func probeLayers(g geometry, users int, frames []*wire.ReportFrame, shares [][]uint64, merged []uint64, mergedN uint64,
	ads []uint64, client *cryptoRoster, b probeBudget) (layerProbes, error) {
	var p layerProbes
	rcfg := privacy.RoundConfig{Version: 1, RosterVersion: 1, RosterSize: users, Params: g.params()}

	// privacy: reserve + fold, one goroutine, then two into one aggregator.
	fold := func(workers int) (float64, error) {
		var total time.Duration
		folded := 0
		for folded < b.minIters || total < b.minTime {
			agg, err := privacy.NewAggregatorStripes(rcfg, 1, 0)
			if err != nil {
				return 0, err
			}
			var wg sync.WaitGroup
			errs := make([]error, workers)
			t0 := time.Now()
			for k := 0; k < workers; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					for i := k; i < len(frames); i += workers {
						f := frames[i]
						if err := agg.ReserveCells(f.User, f.D, f.W, f.N, f.Seed, blind.Keystream(f.Keystream), 1, len(f.Cells)); err != nil {
							errs[k] = err
							return
						}
						agg.FoldReserved(f.Cells)
					}
				}(k)
			}
			wg.Wait()
			total += time.Since(t0)
			for _, err := range errs {
				if err != nil {
					return 0, err
				}
			}
			folded += len(frames)
		}
		return float64(total) / float64(folded) / 1e3, nil
	}
	var err error
	if p.foldUs, err = fold(1); err != nil {
		return p, err
	}
	if p.foldContendedUs, err = fold(2); err != nil {
		return p, err
	}

	// privacy: finalize with the round's shares, extract, query.
	agg, err := privacy.RestoreAggregatorStripes(rcfg, 1, 0, append([]uint64(nil), merged...), mergedN, 0, allTrue(users))
	if err != nil {
		return p, err
	}
	var final *sketch.CMS
	p.finalizeMs = b.timeLoop(func(int) {
		final, err = agg.FinalizeWithAdjustments(shares...)
	}) / 1e6
	if err != nil {
		return p, err
	}
	plain, err := sketch.Restore(g.d, g.w, 0, mergedN, append([]uint64(nil), merged...))
	if err != nil {
		return p, err
	}
	var counts map[uint64]uint64
	p.userCountsMs = b.timeLoop(func(int) { counts = privacy.UserCounts(plain, g.params()) }) / 1e6
	var sink uint64
	p.queryUsersNs = probeBudget{b.minIters * 1000, b.minTime}.timeLoop(func(i int) {
		sink += privacy.QueryUsers(plain, uint64(i)%g.idSpace)
	})
	_ = final

	// detector: Users_th from the counts.
	sample := make([]float64, 0, len(counts))
	for _, c := range counts {
		sample = append(sample, float64(c))
	}
	var th float64
	p.usersThresholdUs = b.timeLoop(func(int) { th = detector.UsersThreshold(sample, detector.EstimatorMean) }) / 1e3
	_ = th

	// vec: the add and subtract kernels over one frame's cells.
	dst := make([]uint64, g.cells())
	kcells := float64(g.cells()) / 1000
	p.vecAddNsPerKcell = probeBudget{b.minIters * 100, b.minTime}.timeLoop(func(i int) {
		vec.Add(dst, frames[i%len(frames)].Cells)
	}) / kcells
	p.vecSubNsPerKcell = probeBudget{b.minIters * 100, b.minTime}.timeLoop(func(i int) {
		vec.Sub(dst, frames[i%len(frames)].Cells)
	}) / kcells

	// sketch: update and query.
	cms, err := g.params().NewSketch()
	if err != nil {
		return p, err
	}
	var key [8]byte
	p.sketchUpdateNs = probeBudget{b.minIters * 1000, b.minTime}.timeLoop(func(i int) {
		binary.LittleEndian.PutUint64(key[:], ads[i%len(ads)])
		cms.Update(key[:])
	})
	p.sketchQueryNs = probeBudget{b.minIters * 1000, b.minTime}.timeLoop(func(i int) {
		binary.LittleEndian.PutUint64(key[:], ads[i%len(ads)])
		sink += plain.Query(key[:])
	})
	_ = sink

	// blind: one blinding, one adjustment share towards a quarter of the roster.
	party := client.r.Parties[0]
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	iters := 0
	p.blindingMs = b.timeLoop(func(i int) {
		party.Blinding(uint64(i+1), g.cells())
		iters++
	}) / 1e6
	runtime.ReadMemStats(&ms1)
	p.blindAllocKB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(iters) / 1024
	missing := make([]int, 0, party.RosterSize()/4)
	for u := 1; u <= party.RosterSize()/4; u++ {
		missing = append(missing, u)
	}
	p.adjustmentMs = b.timeLoop(func(i int) {
		_, err = party.Adjustment(uint64(i+1), g.cells(), missing)
	}) / 1e6
	if err != nil {
		return p, err
	}

	// wire: frame encode into a writer that keeps nothing.
	p.encodeUs = probeBudget{b.minIters * 10, b.minTime}.timeLoop(func(i int) {
		err = wire.WriteReportFrame(io.Discard, frames[i%len(frames)])
	}) / 1e3
	return p, err
}

// allTrue is a full reported bitmap.
func allTrue(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}
