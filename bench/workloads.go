package main

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"eyewnder/internal/wire"
)

// A workload is one parameterisation of the same lifecycle, because the
// benchmark driver wants every end-to-end metric from every workload
// (README.md, "The driver's contract"):
//
//	set-up (several times, median) → rounds, each uploaded at depth 1
//	and then streamed, closed, checked and audited → sampled client
//	builds → durability check of the data dir → a fixed recovery fixture
//	→ cold restarts of it and cold follower syncs from it.
//
// Every round is closed over the wire and its published counts compared
// with the unblinded oracle. The workloads differ in which layers the
// lifecycle leans on; see README.md for each one's why.
type workload struct {
	name, why string

	eps         float64 // campaign 0 geometry, ε = δ
	idSpace     uint64
	keystream   byte
	campaignEps []float64 // provisioned campaigns 1.. beside campaign 0

	users      int     // roster size of the ingest deployment
	realCrypto bool    // P-256 roster and PRF pads; otherwise seeded zero-sum pads
	dropout    float64 // share of the roster silent in each round
	durable    bool    // ingest deployment on the disk store; otherwise store.Null
	snapEvery  int     // store.Options.SnapshotEvery (0 = the store's default)
	retain     int     // backend RetainRounds

	fix fixture

	smoke bool // set by tiny: one set-up, two repetitions per phase, single-pass probes
}

// fixture is the recovery state restarts and follower syncs are measured
// on: a disk deployment at the workload's geometry that ingests a fixed
// script — closed full rounds, then an open one — so that the directory
// holds the same snapshot and WAL tail on every run.
type fixture struct {
	users     int
	closed    int     // full rounds uploaded and closed
	open      int     // reporters in the final, open round
	shares    int     // of those, how many also store an adjustment share (the round is sealed first)
	dropout   float64 // silent share in the closed rounds (closed through the adjustment path)
	snapEvery int
}

const paperIDSpace = 100000

// The run's two repeated phases — rounds on the ingest deployment, then
// restart + follower-sync cycles on the recovery fixture — are boxed in
// time, so that a run lasts what -seconds says on a slow machine and a
// fast one alike: each phase repeats for its share of -seconds. The rest
// of a run (the set-ups, the fixture, the durability check, the sampled
// client builds) is fixed work of a few seconds.
const (
	roundsShare   = 0.5
	recoveryShare = 0.3

	// minReps is the floor of repetitions per phase: a machine too slow
	// for its share still reports medians of something.
	minReps = 4
	// tracedMinRounds is the floor of rounds in a traced run: span
	// recording is on in every second round, and trace.overhead_pct
	// wants at least eight rounds with it and eight without.
	tracedMinRounds = 16
	// maxRounds caps what a run keeps in memory about its rounds.
	maxRounds = 128
	// maxIngestBytes caps the cell bytes a durable ingest deployment is
	// sent, and so what a run makes the sandbox's disk write and trim.
	maxIngestBytes = 512 << 20
)

// latencyFrames is how many frames of every round are uploaded at depth 1
// (Submit + Flush of one frame, timed as a pair) before the rest of the
// round is streamed.
const latencyFrames = 128

// auditsPerRound is how many audit_ad queries follow every close.
const auditsPerRound = 100

// cryptoUsers is the roster size real key agreement is run at:
// blind.NewRoster is O(n²) ECDH, which bounds a real roster, and a user's
// blinding cost is linear in the roster, so client_report_ms is read at
// this size on every workload.
const cryptoUsers = 96

var workloads = []workload{
	{
		name: "fleet_durable",
		why:  "small frames (eps 0.01, 10.9 KB) into the disk store: per-report costs (WAL append, group commit, ack cadence, snapshots) dominate and per-byte layers do little",
		eps:  0.01, idSpace: paperIDSpace, keystream: ksHMAC,
		users: 1100, durable: true, // not a divisor of the snapshot cadence: snapshots fall all over the rounds
		fix: fixture{users: 2048, closed: 2, open: 1024},
	},
	{
		name: "fleet_mem_paper",
		why:  "paper geometry (eps 0.001, 152 KB frames) into store.Null: socket read, decode, pooling, reserve/fold and vec.Add carry the run and the store does nothing",
		eps:  0.001, idSpace: paperIDSpace, keystream: ksHMAC,
		users: 1024, retain: 4,
		fix: fixture{users: 128, closed: 1, open: 64},
	},
	{
		name: "round_dropouts",
		why:  "the paper's protocol with real P-256 secrets and aes-ctr pads, 25 % of 96 users silent each round: subtract, query and read instead of add and append, plus the client-side blind cost",
		eps:  0.001, idSpace: paperIDSpace, keystream: ksAESCTR,
		users: cryptoUsers, realCrypto: true, dropout: 0.25, durable: true, snapEvery: 512, retain: 4,
		fix: fixture{users: 96, closed: 2, open: 48, shares: 16, dropout: 0.25, snapEvery: 128},
	},
	{
		name: "restart_failover",
		why:  "a multi-campaign state (paper geometry + 3 campaigns) holding a snapshot and a WAL tail: the store's read side (snapshot load, WAL replay, segment shipping) beside the write side",
		eps:  0.001, idSpace: paperIDSpace, keystream: ksHMAC, campaignEps: []float64{0.01, 0.02, 0.03},
		users: 128, durable: true,
		fix: fixture{users: 512, closed: 2, open: 226, shares: 32, snapEvery: 512},
	},
}

// tiny shrinks a workload to a smoke test: a roster of 8 and two
// repetitions per phase, whatever the clock says.
func (wl workload) tiny() workload {
	wl.smoke = true
	wl.users = 8
	wl.snapEvery = 8
	wl.fix.users, wl.fix.closed, wl.fix.open, wl.fix.snapEvery = 8, 2, 4, 8
	wl.fix.shares = min(wl.fix.shares, 2)
	return wl
}

func findWorkload(name string) (workload, bool) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, true
		}
	}
	return workload{}, false
}

// pool is one campaign's generated population: every user's blinded
// frame (seeded pads) or the material to build it per round (real
// crypto), and what the oracle needs.
type pool struct {
	campaign uint32
	geo      geometry
	ads      [][]uint64
	sketches [][]uint64          // unblinded, kept only when rounds have silent users
	frames   []*wire.ReportFrame // blinded; with real crypto rebuilt every round
	lastPad  []uint64
	merged   []uint64 // Σ of all users' unblinded sketches
	seed     uint64   // sketch hash seed

	fullCounts map[uint64]uint64 // oracle of a full-roster round, computed on first use
	fullTh     float64
}

// worldSpec is what buildWorld stands up.
type worldSpec struct {
	deploy     deploySpec
	realCrypto bool
	dropout    float64
}

// world is one deployment with its client fleet and generated inputs.
type world struct {
	spec   worldSpec
	seed   uint64
	dep    *deployment
	fl     *fleet
	ops    *opCounter
	pools  []*pool
	roster *cryptoRoster // the fleet's real roster; nil with seeded pads
	client *cryptoRoster // whose report builds are timed: the roster, or one real party (sampleClientBuilds)

	round       uint64            // last round played
	reports     int               // report frames acknowledged
	reportBytes int64             // their cell bytes
	shares      int               // adjustment shares acknowledged
	acked       map[[2]uint64]int // (campaign, round) → reports acknowledged
	builds      []time.Duration   // per-user time to build one blinded report
	genNs       int64             // time spent generating inputs
	rosterS     float64           // time spent on the client's key agreement
	lastFrame   []*wire.ReportFrame
	lastShare   [][]uint64

	// What the server published for each closed round, for the restart
	// and follower equality checks.
	published map[[2]uint64]publishedRound
}

type publishedRound struct {
	usersTh float64
	counts  map[uint64]uint64
}

func (wl workload) geometries() (geometry, []campaignSpec, error) {
	g0, err := newGeometry(wl.eps, wl.idSpace, wl.keystream)
	if err != nil {
		return g0, nil, err
	}
	var cs []campaignSpec
	for i, eps := range wl.campaignEps {
		g, err := newGeometry(eps, wl.idSpace, wl.keystream)
		if err != nil {
			return g0, nil, err
		}
		cs = append(cs, campaignSpec{id: uint32(i + 1), geo: g})
	}
	return g0, cs, nil
}

// buildWorld generates a population, starts a deployment, connects the
// fleet, and (with real crypto) runs key agreement and registration. Its
// duration is one set-up sample.
func buildWorld(spec worldSpec, seed uint64, ops *opCounter) (*world, error) {
	w := &world{spec: spec, seed: seed, ops: ops,
		acked: make(map[[2]uint64]int), published: make(map[[2]uint64]publishedRound)}
	users := spec.deploy.users
	geos := append([]campaignSpec{{id: 0, geo: spec.deploy.geo}}, spec.deploy.campaigns...)
	g0 := time.Now()
	for _, c := range geos {
		p := &pool{campaign: c.id, geo: c.geo, ads: drawAds(seed, c.id, users, c.geo.idSpace),
			merged: make([]uint64, c.geo.cells())}
		if spec.dropout > 0 || spec.realCrypto {
			p.sketches = make([][]uint64, users)
		}
		if !spec.realCrypto {
			p.frames = make([]*wire.ReportFrame, users)
			p.lastPad = make([]uint64, c.geo.cells())
		}
		for u := 0; u < users; u++ {
			cells, n, sseed, err := sketchOf(c.geo, p.ads[u])
			if err != nil {
				return nil, err
			}
			addVec(p.merged, cells)
			p.seed = sseed
			if p.sketches != nil {
				p.sketches[u] = append([]uint64(nil), cells...)
			}
			if spec.realCrypto {
				continue
			}
			addPad(seed, c.id, u, users, cells, p.lastPad)
			p.frames[u] = &wire.ReportFrame{User: u, Campaign: c.id, D: c.geo.d, W: c.geo.w,
				N: n, Seed: sseed, Keystream: c.geo.keystream, Cells: cells}
		}
		w.pools = append(w.pools, p)
	}
	w.genNs = int64(time.Since(g0))
	if spec.realCrypto {
		t0 := time.Now()
		r, err := newCryptoRoster(users, spec.deploy.geo.keystream)
		if err != nil {
			return nil, err
		}
		w.roster, w.client, w.rosterS = r, r, time.Since(t0).Seconds()
	}
	dep, err := startDeployment(spec.deploy)
	if err != nil {
		return nil, err
	}
	w.dep = dep
	if w.fl, err = dialFleet(dep.addr(), ops); err != nil {
		w.close()
		return nil, err
	}
	if spec.realCrypto {
		for u := 0; u < users; u++ {
			if err := w.fl.register(u, w.roster.publicKey(u)); err != nil {
				w.close()
				return nil, err
			}
		}
		// Every registration bumped the config version: adopt the final one.
		if err := w.fl.handshake(); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

// close disconnects the fleet and stops the deployment.
func (w *world) close() error {
	if w.fl != nil {
		w.fl.close()
		w.fl = nil
	}
	if w.dep == nil {
		return nil
	}
	err := w.dep.stop()
	w.dep = nil
	return err
}

// roundSample is what playing one round measured.
type roundSample struct {
	streamed int             // frames uploaded windowed, and
	up       uploadStats     // what that upload measured
	acks     []time.Duration // depth-1 Submit+Flush times
	closeMs  float64         // first close_round request → successful close_round response, all campaigns
	finalMs  float64         // the successful close_round ops alone
}

// framesFor returns the report frames of one round: every pool's frame
// for every user that is not silent. With real crypto the users'
// machines build them now, two at a time, and each build is timed.
func (w *world) framesFor(round uint64, silent []bool) ([]*wire.ReportFrame, error) {
	var frames []*wire.ReportFrame
	for _, p := range w.pools {
		if w.roster != nil {
			built := make([]*wire.ReportFrame, len(silent))
			times := make([]time.Duration, len(silent))
			err := inParallel(len(silent), func(u int) error {
				if silent[u] {
					return nil
				}
				t0 := time.Now()
				cells, n, err := w.roster.blindedReport(p.geo, u, round, p.ads[u])
				if err != nil {
					return err
				}
				built[u] = &wire.ReportFrame{User: u, Campaign: p.campaign, D: p.geo.d, W: p.geo.w,
					N: n, Seed: p.seed, Keystream: p.geo.keystream, Cells: cells}
				times[u] = time.Since(t0)
				return nil
			})
			if err != nil {
				return nil, err
			}
			p.frames = built
			for u, d := range times {
				if !silent[u] {
					w.builds = append(w.builds, d)
				}
			}
		}
	}
	// User by user, each user's frame for every campaign: any stretch of
	// the upload carries the same mix of geometries.
	for u := range silent {
		if silent[u] {
			continue
		}
		for _, p := range w.pools {
			frames = append(frames, p.frames[u])
		}
	}
	return frames, nil
}

// newClient gives a world whose fleet uses seeded pads the one real
// party its client_report_ms is taken on: user 0 of a roster of
// rosterSize P-256 keys, at campaign 0's keystream suite.
func (w *world) newClient(rosterSize int) error {
	t0 := time.Now()
	c, err := newClientParty(rosterSize, w.pools[0].geo.keystream)
	if err != nil {
		return err
	}
	w.client, w.rosterS = c, time.Since(t0).Seconds()
	return nil
}

// clientBuild times what a user's machine does once a round — encode the
// ad set, expand the pairwise keystreams, blind — on the world's one real
// party, at campaign 0's geometry. ingest calls it once a round, so the
// samples are spread over the phase like every other metric's; with a
// real roster every survivor's build is timed instead (framesFor).
func (w *world) clientBuild(round uint64) error {
	p := w.pools[0]
	t0 := time.Now()
	if _, _, err := w.client.blindedReport(p.geo, 0, round, p.ads[int(round)%len(p.ads)]); err != nil {
		return err
	}
	w.builds = append(w.builds, time.Since(t0))
	return nil
}

// roundBytes is the cell bytes one round sends the deployment: every
// reporter's report and, when users are silent, its share.
func (w *world) roundBytes() int {
	frames := w.spec.deploy.users - int(w.spec.dropout*float64(w.spec.deploy.users))
	if w.spec.dropout > 0 {
		frames *= 2
	}
	total := 0
	for _, p := range w.pools {
		total += frames * 8 * p.geo.cells()
	}
	return total
}

// playRound uploads one round — its first depth1 frames (at most half
// of it) one at a time, the rest windowed — closes every campaign's
// round, through the adjustment path when users were silent, and checks
// what the server publishes against the oracle.
func (w *world) playRound(depth1 int) (roundSample, error) {
	w.round++
	round := w.round
	users := w.spec.deploy.users
	silent := dropouts(w.seed, round, users, w.spec.dropout)
	frames, err := w.framesFor(round, silent)
	if err != nil {
		return roundSample{}, err
	}
	depth1 = min(depth1, len(frames)/2)
	rs := roundSample{streamed: len(frames) - depth1}
	if depth1 > 0 {
		st, err := w.fl.upload(frames[:depth1], round, true)
		if err != nil {
			return rs, err
		}
		rs.acks = st.acks
	}
	if rs.up, err = w.fl.upload(frames[depth1:], round, false); err != nil {
		return rs, err
	}
	w.reports += len(frames)
	for _, f := range frames {
		w.acked[[2]uint64{uint64(f.Campaign), round}]++
		w.reportBytes += int64(8 * len(f.Cells))
	}
	w.lastFrame = frames

	var survivors, missing []int
	for u, s := range silent {
		if s {
			missing = append(missing, u)
		} else {
			survivors = append(survivors, u)
		}
	}
	resps := make([]wire.CloseRoundResp, len(w.pools))
	t0 := time.Now()
	for i, p := range w.pools {
		if len(missing) > 0 {
			if err := w.adjust(p, round, survivors, missing); err != nil {
				return rs, err
			}
		}
		f0 := time.Now()
		if resps[i], _, err = w.fl.closeRound(p.campaign, round, false); err != nil {
			return rs, err
		}
		rs.finalMs += float64(time.Since(f0)) / 1e6
	}
	rs.closeMs = float64(time.Since(t0)) / 1e6
	for i, p := range w.pools {
		if err := w.verify(p, round, missing, resps[i]); err != nil {
			return rs, err
		}
	}
	return rs, nil
}

// adjust runs the paper's second round for one campaign: a deadline
// close seals the round, the survivors read the frozen missing set,
// compute their shares and stream them up.
func (w *world) adjust(p *pool, round uint64, survivors, missing []int) error {
	if _, sealed, err := w.fl.closeRound(p.campaign, round, true); err != nil {
		return err
	} else if !sealed {
		w.ops.fail("round %d closed with %d users missing and no shares", round, len(missing))
		return fmt.Errorf("round %d: sealing close succeeded with users missing", round)
	}
	st, err := w.fl.roundStatus(p.campaign, round)
	if err != nil {
		return err
	}
	if !st.Sealed || !slices.Equal(st.Missing, missing) {
		w.ops.fail("round %d status: sealed=%v missing=%d, want %d", round, st.Sealed, len(st.Missing), len(missing))
		return fmt.Errorf("round %d: round_status disagrees with the silent set", round)
	}
	shares, err := w.sharesFor(p, round, survivors, st.Missing)
	if err != nil {
		return err
	}
	return w.uploadShares(p, round, survivors, shares)
}

// sharesFor computes every survivor's adjustment share.
func (w *world) sharesFor(p *pool, round uint64, survivors, missing []int) ([][]uint64, error) {
	if w.roster == nil {
		return synthShares(w.seed, p.campaign, round, w.spec.deploy.users, p.lastPad, survivors, missing), nil
	}
	shares := make([][]uint64, len(survivors))
	err := inParallel(len(survivors), func(i int) (err error) {
		shares[i], err = w.roster.adjustment(survivors[i], round, p.geo.cells(), missing)
		return err
	})
	return shares, err
}

// inParallel runs fn(0) … fn(n−1) on two goroutines — the users'
// machines of a real-crypto roster, as many at once as the sandbox has
// cores — and returns the first error.
func inParallel(n int, fn func(i int) error) error {
	var errs [2]error
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < n && errs[k] == nil; i += len(errs) {
				errs[k] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs[:]...)
}

// uploadShares streams shares[i] as survivor i's adjustment frame.
func (w *world) uploadShares(p *pool, round uint64, survivors []int, shares [][]uint64) error {
	frames := make([]*wire.ReportFrame, len(shares))
	for i, sh := range shares {
		frames[i] = wire.AdjustFrame(survivors[i], round, p.geo.d, p.geo.w, p.geo.keystream, 0, sh)
		frames[i].Campaign = p.campaign
	}
	if _, err := w.fl.upload(frames, round, false); err != nil {
		return err
	}
	w.shares += len(frames)
	w.lastShare = shares
	return nil
}

// oracle returns what a round with the given silent users must publish.
func (w *world) oracle(p *pool, missing []int) (map[uint64]uint64, float64, error) {
	users := w.spec.deploy.users
	if len(missing) == 0 {
		if p.fullCounts == nil {
			var err error
			if p.fullCounts, p.fullTh, err = oracleCounts(p.geo, p.merged, uint64(users*adsPerUser)); err != nil {
				return nil, 0, err
			}
		}
		return p.fullCounts, p.fullTh, nil
	}
	cells := append([]uint64(nil), p.merged...)
	for _, m := range missing {
		subVec(cells, p.sketches[m])
	}
	return oracleCounts(p.geo, cells, uint64((users-len(missing))*adsPerUser))
}

// verify compares one closed round's published counts and threshold with
// the oracle. Users_th is compared at 1e-9 relative: the server sums
// float64s in map order, which is allowed to differ in the last place.
func (w *world) verify(p *pool, round uint64, missing []int, resp wire.CloseRoundResp) error {
	want, wantTh, err := w.oracle(p, missing)
	if err != nil {
		return err
	}
	got, err := w.fl.roundCounts(p.campaign, round)
	if err != nil {
		return err
	}
	switch {
	case !maps.Equal(got, want):
		w.ops.fail("campaign %d round %d: round_counts differ from the oracle (%d vs %d ads)", p.campaign, round, len(got), len(want))
	case !closeTo(resp.UsersTh, wantTh):
		w.ops.fail("campaign %d round %d: Users_th %v, oracle %v", p.campaign, round, resp.UsersTh, wantTh)
	case resp.DistinctAds != len(want):
		w.ops.fail("campaign %d round %d: %d distinct ads, oracle %d", p.campaign, round, resp.DistinctAds, len(want))
	default:
		w.ops.ok(1)
	}
	w.published[[2]uint64{uint64(p.campaign), round}] = publishedRound{usersTh: resp.UsersTh, counts: got}
	return nil
}

// closeTo compares two thresholds at 1e-9 relative.
func closeTo(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// checkPublished asks a (restarted or replica) server for every closed
// round the primary published and compares thresholds and, when full is
// set, the whole count maps.
func checkPublished(fl *fleet, published map[[2]uint64]publishedRound, full bool) {
	for key, want := range published {
		c, r := uint32(key[0]), key[1]
		th, err := fl.threshold(c, r)
		if err != nil {
			continue
		}
		if !closeTo(th, want.usersTh) {
			fl.ops.fail("campaign %d round %d: threshold %v after recovery, %v before", c, r, th, want.usersTh)
			continue
		}
		if !full {
			continue
		}
		got, err := fl.roundCounts(c, r)
		if err != nil {
			continue
		}
		if !maps.Equal(got, want.counts) {
			fl.ops.fail("campaign %d round %d: counts differ after recovery", c, r)
			continue
		}
		fl.ops.ok(1)
	}
}

// phase repeats fn until budget has passed, but at least lo and at most
// hi times.
func phase(budget time.Duration, lo, hi int, fn func(i int) error) error {
	t0 := time.Now()
	for i := 0; i < lo || (i < hi && time.Since(t0) < budget); i++ {
		if err := fn(i); err != nil {
			return err
		}
	}
	return nil
}

// procStats is a reading of the process's resource counters.
type procStats struct {
	cpu                 time.Duration
	allocBytes, mallocs uint64
	gcPause             time.Duration
	maxRSSKB            int64
}

func readProc() procStats {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procStats{
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs,
		gcPause:  time.Duration(ms.PauseTotalNs),
		maxRSSKB: ru.Maxrss,
	}
}

// diskWrittenMB is what the process has sent to the block layer so far
// (write_bytes minus cancelled_write_bytes of /proc/self/io); 0 where
// that file is not readable.
func diskWrittenMB() float64 {
	raw, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	var written, cancelled float64
	for _, line := range strings.Split(string(raw), "\n") {
		fmt.Sscanf(line, "write_bytes: %f", &written)
		fmt.Sscanf(line, "cancelled_write_bytes: %f", &cancelled)
	}
	return (written - cancelled) / (1 << 20)
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind the value
}

// result is one run of one workload.
type result struct {
	workload           string
	seed               uint64
	traced             bool
	attempted, failed  int64
	failures           []string
	endToEnd, perLayer []metric
}

// setupReps is how many times a run sets the ingest deployment up; the
// set-up time it reports is their median.
const setupReps = 7

// runWorkload runs the lifecycle once. tmp is a directory of its own for
// the run's data dirs; traced serves the ingest deployment through the
// timing decorators and adds the direct layer probes.
func runWorkload(wl workload, seed uint64, seconds float64, traced bool, tmp, outDir string) (*result, error) {
	// Flush what earlier processes left dirty (the sandbox's disk trims
	// deleted extents at journal commit), so that every run starts against
	// the same quiet disk.
	syscall.Sync()

	ops := &opCounter{}
	g0, camps, err := wl.geometries()
	if err != nil {
		return nil, err
	}
	reps := setupReps
	if wl.smoke {
		reps = 1
	}
	var tr *tracer
	if traced {
		tr = newTracer(1 << 20)
	}

	// Set-up, several times over; the last one is the deployment the
	// workload runs on.
	var w *world
	var setups []float64
	for i := 0; i < reps; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
			os.RemoveAll(w.spec.deploy.dir)
		}
		spec := worldSpec{realCrypto: wl.realCrypto, dropout: wl.dropout,
			deploy: deploySpec{geo: g0, users: wl.users, campaigns: camps,
				snapshotEvery: wl.snapEvery, retainRounds: wl.retain, tr: tr}}
		if wl.durable {
			spec.deploy.dir = filepath.Join(tmp, fmt.Sprintf("ingest-%d", i))
		}
		t0 := time.Now()
		if w, err = buildWorld(spec, seed, ops); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer func() { w.close() }()

	in, err := w.ingest(wl, seconds, tr)
	if err != nil {
		return nil, err
	}

	// The wire-only and direct layer probes want the live deployment and
	// the frames it was fed, so they run before it stops.
	var lp layerProbes
	var wp wireProbes
	if traced {
		tr.on.Store(false)
		probes := probeBudget{minIters: 3, minTime: 150 * time.Millisecond}
		if wl.smoke {
			probes = probeBudget{minIters: 1}
		}
		if wp, err = probeWire(w, probes); err != nil {
			return nil, err
		}
		p := w.pools[0]
		var frames0 []*wire.ReportFrame
		for _, f := range w.lastFrame {
			if f.Campaign == 0 {
				frames0 = append(frames0, f)
			}
		}
		if lp, err = probeLayers(p.geo, wl.users, frames0, w.lastShare, p.merged, uint64(wl.users*adsPerUser),
			p.ads[0], w.client, probes); err != nil {
			return nil, err
		}
	}

	// Accounting: the server accepted exactly what the fleet submitted.
	final := w.dep.counters()
	if got := final["eyewnder_reports_accepted_total"]; got != float64(w.reports) {
		ops.fail("server accepted %v reports, fleet submitted %d", got, w.reports)
	} else if got := final["eyewnder_adjust_shares_total"]; got != float64(w.shares) {
		ops.fail("server stored %v shares, fleet submitted %d", got, w.shares)
	} else {
		ops.ok(1)
	}
	in.diskLiveMB = float64(dirBytes(w.spec.deploy.dir)) / (1 << 20)
	if err := w.close(); err != nil {
		return nil, err
	}
	if wl.durable {
		if err := w.checkDurable(wl.retain == 0); err != nil {
			return nil, err
		}
		os.RemoveAll(w.spec.deploy.dir)
	}

	rc, err := runRecovery(wl, seed+1, seconds, tmp, ops)
	if err != nil {
		return nil, err
	}

	ackMs := toUnit(in.acks, time.Millisecond)
	res := &result{workload: wl.name, seed: seed, traced: traced,
		attempted: ops.attempted.Load(), failed: ops.failed.Load(), failures: ops.first}
	res.endToEnd = []metric{
		{"setup_s", median(setups), "s", len(setups)},
		{"reports_per_s", median(append(in.rps, in.rpsOff...)), "1/s", len(in.rps) + len(in.rpsOff)},
		{"ack_p50_ms", median(ackMs), "ms", len(ackMs)},
		{"round_close_ms", median(in.closes), "ms", len(in.closes)},
		{"client_report_ms", median(toUnit(w.builds, time.Millisecond)), "ms", len(w.builds)},
		{"audit_p50_us", median(toUnit(in.audits, time.Microsecond)), "us", len(in.audits)},
		{"recover_ms", median(rc.recoverMs), "ms", len(rc.recoverMs)},
		{"follower_sync_ms", median(rc.followerMs), "ms", len(rc.followerMs)},
	}
	if !traced {
		return res, nil
	}
	spans := tr.resolve()
	if err := writeSpans(filepath.Join(outDir, "trace-"+wl.name+".jsonl"), spans); err != nil {
		return nil, err
	}
	res.perLayer = perLayerMetrics(w, in, rc, lp, wp, spans, final, float64(tr.dropped.Load()))
	return res, nil
}

// ingestStats is what the rounds on the ingest deployment measured.
type ingestStats struct {
	rps, rpsOff    []float64 // per round, streamed frames ÷ wall; rpsOff: rounds of a traced run with recording off
	closes, finals []float64 // per round, ms
	acks, audits   []time.Duration
	wall, blocked  time.Duration
	before, after  map[string]float64 // the deployment's counters around the rounds
	reports        int
	reportBytes    int64
	proc0, proc1   procStats
	diskLiveMB     float64
}

// ingest plays rounds on the world's deployment for the rounds' share of
// the run. Every round uploads its first latencyFrames frames at depth 1
// and streams the rest over the lanes (one throughput sample), is closed,
// checked against the oracle and audited, and then one client build is
// timed. So every metric's samples are spread over the whole phase, and a
// burst of interference — on this sandbox, stretches of a tenth of a
// second to seconds in which one of the two cores is as good as gone —
// moves none of the medians far.
//
// In a traced run span recording is on in every second round, and the
// rounds with it off give the baseline tracing overhead is measured
// against.
func (w *world) ingest(wl workload, seconds float64, tr *tracer) (ingestStats, error) {
	in := ingestStats{before: w.dep.counters(), proc0: readProc()}
	ids := auditIDs(w.seed, 1<<14, w.spec.deploy.geo.idSpace)
	lo, hi := minReps, maxRounds
	if tr != nil {
		lo = tracedMinRounds
	}
	if wl.durable {
		hi = max(lo, min(hi, maxIngestBytes/w.roundBytes()))
	}
	if wl.smoke {
		lo, hi = 2, 2
	}
	if w.roster == nil {
		if err := w.newClient(min(cryptoUsers, wl.users)); err != nil {
			return in, err
		}
	}
	err := phase(time.Duration(roundsShare*seconds*float64(time.Second)), lo, hi, func(i int) error {
		recording := tr != nil && i%2 == 0
		if tr != nil {
			tr.on.Store(recording)
		}
		rs, err := w.playRound(latencyFrames)
		if err != nil {
			return err
		}
		if w.roster == nil {
			if err := w.clientBuild(w.round); err != nil {
				return err
			}
		}
		v := float64(rs.streamed) / rs.up.wall.Seconds()
		if tr != nil && !recording {
			in.rpsOff = append(in.rpsOff, v)
		} else {
			in.rps = append(in.rps, v)
		}
		in.wall += rs.up.wall
		in.blocked += rs.up.blocked
		in.acks = append(in.acks, rs.acks...)
		in.closes, in.finals = append(in.closes, rs.closeMs), append(in.finals, rs.finalMs)
		// Audits on the round just closed, campaign 0.
		k := (i * auditsPerRound) % (len(ids) - auditsPerRound)
		in.audits = append(in.audits, w.fl.audit(0, w.round, ids[k:k+auditsPerRound],
			w.published[[2]uint64{0, w.round}].counts)...)
		return nil
	})
	in.after, in.proc1 = w.dep.counters(), readProc()
	return in, err
}

// checkDurable holds acked ⇒ durable ⇒ recovered on a stopped world's
// data dir: every report acknowledged into a round the directory still
// holds is in that round's recovered bitmap, and with no retention every
// round is still there.
func (w *world) checkDurable(allRounds bool) error {
	rec, err := recoveredReported(w.spec.deploy.dir)
	if err != nil {
		return err
	}
	bad := 0
	for key, n := range rec {
		if n != w.acked[key] {
			bad++
		}
	}
	if bad > 0 || (allRounds && len(rec) != len(w.acked)) {
		w.ops.fail("recovery of the ingest dir: %d rounds disagree with the acks, %d of %d rounds present", bad, len(rec), len(w.acked))
	} else {
		w.ops.ok(1)
	}
	return nil
}

// perLayerMetrics assembles a traced run's per-layer metrics: span
// totals from the decorators, counter deltas from the deployment's obs
// registry, the direct probes, and the recovery phase's split timings.
func perLayerMetrics(w *world, in ingestStats, rc recovery, lp layerProbes, wp wireProbes,
	spans []span, final map[string]float64, dropped float64) []metric {
	tot := selfTimes(spans)
	delta := func(name string) float64 { return in.after[name] - in.before[name] }
	per := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	consume, syncRep := tot[spConsume], tot[spSyncReports]
	consumeSelfUs := per(float64(consume.selfNs), float64(consume.count)) / 1e3
	syncPerReportUs := per(float64(syncRep.totalNs), float64(consume.count)) / 1e3
	medOn, medOff := median(in.rps), median(in.rpsOff)
	ackMs := toUnit(in.acks, time.Millisecond)
	reports := float64(w.reports)
	cpu := (in.proc1.cpu - in.proc0.cpu).Seconds()
	return []metric{
		{"wire.encode_us", lp.encodeUs, "us", 0},
		{"wire.discard_roundtrip_us", wp.discardRoundtripUs, "us", wp.n},
		{"wire.depth1_discard_us", wp.depth1DiscardUs, "us", wp.n},
		{"wire.frames_per_ack", per(delta("eyewnder_wire_report_frames_total"), delta("eyewnder_wire_ack_batches_total")), "count", 0},
		{"wire.control_op_us", wp.controlOpUs, "us", wp.ops},
		{"wire.handshake_us", wp.handshakeUs, "us", wp.ops},
		{"backend.consume_us", consume.meanUs(), "us", consume.count},
		{"backend.consume_self_us", consumeSelfUs, "us", consume.count},
		{"backend.sync_reports_us", syncRep.meanUs(), "us", syncRep.count},
		{"backend.sync_calls_per_kreport", per(float64(syncRep.count), float64(consume.count)) * 1000, "count", syncRep.count},
		{"backend.adjust_us", tot[spAdjust].meanUs(), "us", tot[spAdjust].count},
		{"backend.close_op_ms", median(in.finals), "ms", len(in.finals)},
		{"backend.restore_ms", median(rc.newMs), "ms", len(rc.newMs)},
		{"backend.rejected", rejected(final), "count", 0},
		{"store.append_report_us", tot[spAppendReport].meanUs(), "us", tot[spAppendReport].count},
		{"store.sync_us", tot[spSync].meanUs(), "us", tot[spSync].count},
		{"store.fsyncs_per_kreport", per(delta("eyewnder_store_fsyncs_total"), reports) * 1000, "count", 0},
		{"store.wal_bytes_per_report_byte", per(delta("eyewnder_store_wal_bytes_total"), float64(w.reportBytes)), "count", 0},
		{"store.snapshot_ms", per(final["eyewnder_store_snapshot_seconds_sum"], final["eyewnder_store_snapshot_seconds_count"]) * 1e3, "ms", int(final["eyewnder_store_snapshots_total"])},
		{"store.snapshots", final["eyewnder_store_snapshots_total"], "count", 0},
		{"store.append_adjust_us", tot[spAppendAdjust].meanUs(), "us", tot[spAppendAdjust].count},
		{"store.close_sync_us", closeSyncUs(spans), "us", tot[spAppendClose].count},
		{"store.open_ms", median(rc.openMs), "ms", len(rc.openMs)},
		{"store.replay_mb_per_s", per(rc.fixtureMB, median(rc.replayMs)/1e3), "MB/s", len(rc.replayMs)},
		{"store.disk_live_mb", in.diskLiveMB, "MB", 0},
		{"privacy.fold_us", lp.foldUs, "us", 0},
		{"privacy.fold_contended_us", lp.foldContendedUs, "us", 0},
		{"privacy.finalize_ms", lp.finalizeMs, "ms", 0},
		{"privacy.user_counts_ms", lp.userCountsMs, "ms", 0},
		{"privacy.query_users_ns", lp.queryUsersNs, "ns", 0},
		{"vec.add_ns_per_kcell", lp.vecAddNsPerKcell, "ns", 0},
		{"vec.sub_ns_per_kcell", lp.vecSubNsPerKcell, "ns", 0},
		{"sketch.update_ns", lp.sketchUpdateNs, "ns", 0},
		{"sketch.query_ns", lp.sketchQueryNs, "ns", 0},
		{"blind.blinding_ms", lp.blindingMs, "ms", 0},
		{"blind.alloc_kb_per_blinding", lp.blindAllocKB, "KB", 0},
		{"blind.adjustment_ms", lp.adjustmentMs, "ms", 0},
		{"blind.roster_setup_s", w.rosterS, "s", 0},
		{"detector.users_threshold_us", lp.usersThresholdUs, "us", 0},
		{"repl.initial_sync_ms", median(rc.initialSyncMs), "ms", len(rc.initialSyncMs)},
		{"repl.bytes_shipped_mb", rc.shippedMB, "MB", 0},
		{"repl.fetches", rc.fetches, "count", 0},
		{"client.ack_p99_ms", percentile(ackMs, 99), "ms", len(ackMs)},
		{"client.submit_blocked_share", per(in.blocked.Seconds(), lanes*in.wall.Seconds()), "count", 0},
		{"client.gen_us_per_report", per(float64(w.genNs)/1e3, float64(len(w.pools)*w.spec.deploy.users)), "us", 0},
		{"client.fixture_build_s", rc.buildS, "s", 0},
		{"proc.cpu_s_per_kreport", per(cpu, reports) * 1000, "s", 0},
		{"proc.alloc_bytes_per_report", per(float64(in.proc1.allocBytes-in.proc0.allocBytes), reports), "B", 0},
		{"proc.allocs_per_report", per(float64(in.proc1.mallocs-in.proc0.mallocs), reports), "count", 0},
		{"proc.gc_pause_ms", float64(in.proc1.gcPause-in.proc0.gcPause) / 1e6, "ms", 0},
		{"proc.peak_rss_mb", float64(readProc().maxRSSKB) / 1024, "MB", 0},
		{"proc.disk_written_mb", diskWrittenMB(), "MB", 0},
		{"trace.coverage", per(wp.discardRoundtripUs+consume.meanUs()+syncPerReportUs, lanes*1e6/medOn), "count", 0},
		{"trace.overhead_pct", 100 * per(medOff-medOn, medOff), "%", len(in.rps) + len(in.rpsOff)},
		{"trace.spans_dropped", dropped, "count", 0},
	}
}

// closeSyncUs is the mean store time inside a close: AppendClose plus
// the Sync that makes it durable, both children of a control-op span.
func closeSyncUs(spans []span) float64 {
	closes := make(map[int32]bool)
	for _, s := range spans {
		if s.kind == spAppendClose && s.parent >= 0 {
			closes[s.parent] = true
		}
	}
	var ns int64
	for _, s := range spans {
		if (s.kind == spAppendClose || s.kind == spSync) && s.parent >= 0 && closes[s.parent] {
			ns += s.end - s.start
		}
	}
	if len(closes) == 0 {
		return 0
	}
	return float64(ns) / float64(len(closes)) / 1e3
}

// wireProbes are the measurements taken over the wire beside the
// workload's own traffic.
type wireProbes struct {
	discardRoundtripUs, depth1DiscardUs float64
	controlOpUs, handshakeUs            float64
	n, ops                              int
}

// probeWire times the wire layer alone — the workload's frames streamed
// into a no-op sink served with the same stream options — and two
// control-plane round trips against the live deployment.
func probeWire(w *world, b probeBudget) (wireProbes, error) {
	var wp wireProbes
	srv, err := startDiscardServer(w.dep)
	if err != nil {
		return wp, err
	}
	defer srv.Close()
	fl, err := dialFleet(srv.Addr(), &opCounter{})
	if err != nil {
		return wp, err
	}
	defer fl.close()
	frames := w.lastFrame
	if len(frames) > 2048 {
		frames = frames[:2048]
	}
	wp.n = len(frames)
	var walls []float64
	for i := 0; i < b.minIters; i++ {
		st, err := fl.upload(frames, 1, false)
		if err != nil {
			return wp, err
		}
		walls = append(walls, float64(st.wall)/1e3/float64(len(frames))*lanes)
	}
	wp.discardRoundtripUs = median(walls)
	d1 := frames
	if len(d1) > 512 {
		d1 = d1[:512]
	}
	st, err := fl.upload(d1, 1, true)
	if err != nil {
		return wp, err
	}
	wp.depth1DiscardUs = median(toUnit(st.acks, time.Microsecond))

	wp.ops = 100 * b.minIters
	if wp.controlOpUs, err = timeOp(wp.ops, func() error {
		_, err := w.fl.roundStatus(0, w.round)
		return err
	}); err != nil {
		return wp, err
	}
	wp.handshakeUs, err = timeOp(wp.ops, func() error {
		_, err := w.fl.ctrl.Handshake()
		return err
	})
	return wp, err
}

// recovery is what the restarts and follower syncs measured.
type recovery struct {
	buildS, fixtureMB         float64
	recoverMs, openMs, newMs  []float64
	replayMs                  []float64 // open + restore: the directory is read in the first, replayed in the second
	followerMs, initialSyncMs []float64
	shippedMB, fetches        float64
}

// runRecovery builds the workload's recovery fixture, then alternates
// cold restarts of its directory with cold follower syncs from it. A
// restart is store.Open + backend.New + Serve until a Handshake and a
// threshold query answer; a follower sync is StartFollower into an empty
// directory until it has caught up and its replica answers the same
// threshold. Every count and threshold a restarted server or a replica
// publishes must equal the one published before the crash.
func runRecovery(wl workload, seed uint64, seconds float64, tmp string, ops *opCounter) (recovery, error) {
	var rc recovery
	g0, camps, err := wl.geometries()
	if err != nil {
		return rc, err
	}
	spec := worldSpec{dropout: wl.fix.dropout, deploy: deploySpec{geo: g0, users: wl.fix.users, campaigns: camps,
		dir: filepath.Join(tmp, "fixture"), snapshotEvery: wl.fix.snapEvery, retainSegments: 2}}
	t0 := time.Now()
	w, err := buildWorld(spec, seed, ops)
	if err != nil {
		return rc, err
	}
	defer func() { w.close() }()
	for i := 0; i < wl.fix.closed; i++ {
		if _, err := w.playRound(0); err != nil {
			return rc, err
		}
	}
	if err := w.openRound(wl.fix.open, wl.fix.shares); err != nil {
		return rc, err
	}
	if err := w.close(); err != nil {
		return rc, err
	}
	rc.buildS = time.Since(t0).Seconds()
	rc.fixtureMB = float64(dirBytes(spec.deploy.dir)) / (1 << 20)
	lastClosed := uint64(wl.fix.closed)
	wantTh := w.published[[2]uint64{0, lastClosed}].usersTh

	// answers dials a restarted server or a replica and waits for its
	// first answered query; the equality checks behind it are not timed.
	answers := func(addr string, t0 time.Time, what string, full bool) (float64, error) {
		fl, err := dialFleet(addr, ops)
		if err != nil {
			return 0, err
		}
		defer fl.close()
		th, err := fl.threshold(0, lastClosed)
		if err != nil {
			return 0, err
		}
		ms := float64(time.Since(t0)) / 1e6
		if !closeTo(th, wantTh) {
			ops.fail("%s: threshold %v, before the crash %v", what, th, wantTh)
		}
		checkPublished(fl, w.published, full)
		return ms, nil
	}
	// One cycle: the crashed primary restarts on its directory (timed),
	// then a new follower syncs from it into an empty directory (timed).
	lo, hi := minReps, math.MaxInt
	if wl.smoke {
		lo, hi = 2, 2
	}
	err = phase(time.Duration(recoveryShare*seconds*float64(time.Second)), lo, hi, func(i int) error {
		t0 := time.Now()
		dep, err := startDeployment(spec.deploy)
		if err != nil {
			return err
		}
		defer dep.stop()
		ms, err := answers(dep.addr(), t0, "restart", i == 0)
		if err != nil {
			return err
		}
		rc.recoverMs = append(rc.recoverMs, ms)
		rc.openMs = append(rc.openMs, float64(dep.openNs)/1e6)
		rc.newMs = append(rc.newMs, float64(dep.newNs)/1e6)
		rc.replayMs = append(rc.replayMs, float64(dep.openNs+dep.newNs)/1e6)

		ship, err := startShipper(dep)
		if err != nil {
			return err
		}
		defer ship.stop()
		fdir := filepath.Join(tmp, "follower")
		defer os.RemoveAll(fdir)
		t0 = time.Now()
		fo, err := startFollower(ship.addr(), fdir, spec.deploy)
		if err != nil {
			return err
		}
		defer fo.stop()
		for {
			ok, err := fo.caughtUp()
			if err != nil {
				return err
			}
			if ok {
				break
			}
			if time.Since(t0) > 30*time.Second {
				return fmt.Errorf("follower not caught up after 30 s")
			}
			time.Sleep(200 * time.Microsecond)
		}
		if ms, err = answers(fo.addr(), t0, "follower", i == 0); err != nil {
			return err
		}
		rc.followerMs = append(rc.followerMs, ms)
		rc.initialSyncMs = append(rc.initialSyncMs, float64(fo.syncNs)/1e6)
		rc.shippedMB = float64(dirBytes(fdir)) / (1 << 20)
		rc.fetches = fo.fetches()
		return nil
	})
	return rc, err
}

// openRound leaves the world with one more round open: its first
// `reporters` users report, and when shares > 0 the round is sealed and
// the first `shares` reporters store their adjustment shares.
func (w *world) openRound(reporters, shares int) error {
	w.round++
	round := w.round
	var frames []*wire.ReportFrame
	for u := 0; u < reporters; u++ {
		for _, p := range w.pools {
			frames = append(frames, p.frames[u])
		}
	}
	if _, err := w.fl.upload(frames, round, false); err != nil {
		return err
	}
	w.reports += len(frames)
	if shares == 0 {
		return nil
	}
	users := w.spec.deploy.users
	survivors, missing := make([]int, reporters), make([]int, 0, users-reporters)
	for u := range survivors {
		survivors[u] = u
	}
	for u := reporters; u < users; u++ {
		missing = append(missing, u)
	}
	for _, p := range w.pools {
		if _, sealed, err := w.fl.closeRound(p.campaign, round, true); err != nil {
			return err
		} else if !sealed {
			return fmt.Errorf("fixture round %d closed with %d users missing", round, len(missing))
		}
		some := make([][]uint64, shares)
		for i := range some {
			some[i] = randomShare(w.seed, p.campaign, round, survivors[i], p.geo.cells())
		}
		if err := w.uploadShares(p, round, survivors[:shares], some); err != nil {
			return err
		}
	}
	return nil
}

// dirBytes sums the sizes of the regular files under dir ("" is empty).
func dirBytes(dir string) int64 {
	if dir == "" {
		return 0
	}
	var total int64
	filepath.WalkDir(dir, func(_ string, e os.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return nil
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
