// Command eyewnder-server runs the two server-side components of the
// eyeWnder deployment: the back-end (bulletin board, blinded-report
// aggregation, threshold publication, audits) and the oprf-server (which
// holds the ad-ID mapping key the back-end must never see).
//
// Usage:
//
//	eyewnder-server -backend 127.0.0.1:7001 -oprf 127.0.0.1:7002 -users 100
//
// With -data-dir the back-end's rounds are durable: every round event
// is write-ahead logged (fsynced at acknowledgement barriers, see
// -fsync) and snapshotted, and a restart on the same directory recovers
// every round — reported bitmaps, adjustment shares, closed results —
// exactly where the previous process left them.
//
// With -repl the primary additionally serves segment shipping: a second
// listener followers pull WAL segments and snapshots from. A follower
// runs the same binary with -follow pointed at that listener; it
// mirrors the primary's store into its own -data-dir, keeps a warm
// read-only replica answering queries, and is promoted to the writable
// primary by SIGUSR1 or a repl.promote message — taking over mid-round
// with exactly the state the dead primary had acknowledged. See
// OPERATIONS.md for the full runbook.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"sync"
	"time"

	"eyewnder/internal/backend"
	"eyewnder/internal/blind"
	"eyewnder/internal/campaign"
	"eyewnder/internal/detector"
	"eyewnder/internal/group"
	"eyewnder/internal/obs"
	"eyewnder/internal/oprf"
	"eyewnder/internal/privacy"
	"eyewnder/internal/repl"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

func main() {
	var (
		backendAddr = flag.String("backend", "127.0.0.1:7001", "back-end listen address")
		oprfAddr    = flag.String("oprf", "127.0.0.1:7002", "oprf-server listen address")
		users       = flag.Int("users", 100, "roster size (number of enrolled users)")
		rsaBits     = flag.Int("rsa-bits", 2048, "oprf RSA modulus size")
		epsilon     = flag.Float64("epsilon", 0.01, "CMS epsilon")
		delta       = flag.Float64("delta", 0.01, "CMS delta")
		idSpace     = flag.Uint64("id-space", 100000, "ad-ID space size |A| (overestimate; 1 to 2^24 — closing a round sweeps and tabulates the whole space)")
		ackBatch    = flag.Int("ack-batch", 0, "streamed-report ack batch k for batched-ack connections: at most one ack request per k frames, coalesced while an ack is in flight (0 = adaptive per connection, 1 = request an ack for every frame)")
		keystream   = flag.String("keystream", "hmac-sha256", "blinding keystream suite, advertised to clients in the config handshake: hmac-sha256 or aes-ctr")
		retain      = flag.Int("retain-rounds", 0, "age a closed round out of memory and snapshots once its Users_th has been served for N newer closed rounds (0 = keep forever)")
		dataDir     = flag.String("data-dir", "", "durable round store directory: WAL + snapshots, crash recovery on restart (empty = in-memory rounds only)")
		fsync       = flag.String("fsync", "batch", "WAL fsync policy with -data-dir: batch (group-committed at ack barriers), off (OS page cache only)")
		snapEvery   = flag.Int("snapshot-every", 0, "reports between WAL-compacting snapshots with -data-dir (0 = default, negative = never)")
		replAddr    = flag.String("repl", "", "segment-shipping listen address: serve WAL segments and snapshots to followers (requires -data-dir)")
		follow      = flag.String("follow", "", "run as a hot-standby follower of the primary's -repl address, mirroring into -data-dir (promote with SIGUSR1 or a repl.promote message)")
		replPoll    = flag.Duration("repl-poll", repl.DefaultPoll, "follower manifest poll interval with -follow (how far the warm replica may trail the primary)")
		replChunk   = flag.Int("repl-chunk", repl.DefaultChunk, "replication fetch chunk size in bytes with -follow")
		replRetain  = flag.Int("repl-retain", 2, "sealed WAL segments kept across snapshot pruning with -repl, so a briefly-lagging follower avoids a full snapshot resync")
		adminAddr   = flag.String("admin", "", "admin HTTP listen address serving /metrics (Prometheus text), /metrics.json, /statusz, /healthz, and /debug/pprof (empty = off)")
		campaigns   = flag.String("campaigns", "", "counting campaigns to provision at startup, as semicolon-separated specs: \"id=1,name=autos,eps=0.02,delta=0.01,idspace=4096,keystream=aes-ctr,retain=4,cadence=600;id=2,...\" — zero fields inherit the deployment base; re-provisioning an existing ID is last-write-wins and applies to future rounds only")
		replStatus  = flag.Duration("repl-status-every", 30*time.Second, "interval between follower replication status log lines with -follow (0 disables; the same state is always live on -admin's /statusz)")
	)
	flag.Parse()

	ks, err := blind.KeystreamByName(*keystream)
	if err != nil {
		log.Fatalf("keystream: %v", err)
	}
	if err := privacy.CheckIDSpace(*idSpace); err != nil {
		log.Fatalf("-id-space: %v", err)
	}
	var mode store.SyncMode
	switch *fsync {
	case "batch":
		mode = store.SyncBatch
	case "off":
		mode = store.SyncOff
	default:
		log.Fatalf("-fsync %q: want batch or off", *fsync)
	}
	// One registry for the whole process: every layer registers its
	// instruments here, and the admin endpoint (when enabled) serves the
	// same registry — so /metrics, /statusz, and the log lines are views
	// over one set of counters. Registration is idempotent by name, so a
	// promotion (which builds a fresh back-end and store) continues the
	// same counters.
	reg := obs.New()
	storeOpts := store.Options{Sync: mode, SnapshotEvery: *snapEvery, Metrics: reg}
	if *replAddr != "" {
		storeOpts.RetainSegments = *replRetain
	}
	params := privacy.Params{Epsilon: *epsilon, Delta: *delta, IDSpace: *idSpace, Suite: group.P256(), Keystream: ks}
	beCfg := backend.Config{
		Params:         params,
		Users:          *users,
		UsersEstimator: detector.EstimatorMean,
		AckBatch:       *ackBatch,
		RetainRounds:   *retain,
		Metrics:        reg,
	}
	osrv, err := oprf.NewServer(*rsaBits)
	if err != nil {
		log.Fatalf("oprf key generation: %v", err)
	}

	if *follow != "" {
		runFollower(followerConfig{
			primary: *follow, backendAddr: *backendAddr, oprfAddr: *oprfAddr,
			replAddr: *replAddr, adminAddr: *adminAddr,
			statusEvery: *replStatus, fsync: mode, reg: reg,
		}, osrv, beCfg, repl.Options{
			Dir: *dataDir, Addr: *follow,
			Poll: *replPoll, Chunk: *replChunk,
			StoreOpts: storeOpts,
			Logf:      log.Printf,
			Metrics:   reg,
		})
		return
	}

	var disk *store.Disk
	var st store.Store
	if *dataDir != "" {
		disk, err = store.Open(*dataDir, storeOpts)
		if err != nil {
			log.Fatalf("round store: %v", err)
		}
		defer disk.Close()
		st = disk
	}
	beCfg.Store = st
	be, err := backend.New(beCfg)
	if err != nil {
		log.Fatalf("back-end: %v", err)
	}
	defer be.Close()
	if disk != nil {
		keys, _, _ := be.Roster()
		registered := 0
		for _, k := range keys {
			if k != nil {
				registered++
			}
		}
		log.Printf("round store in %s (fsync=%s, %d rounds and %d registrations recovered)",
			*dataDir, *fsync, len(be.RoundsProgress()), registered)
	}
	if *campaigns != "" {
		list, err := campaign.ParseSpec(*campaigns)
		if err != nil {
			log.Fatalf("-campaigns: %v", err)
		}
		for _, c := range list {
			if err := be.AddCampaign(c); err != nil {
				log.Fatalf("-campaigns: provisioning campaign %d: %v", c.ID, err)
			}
		}
		log.Printf("provisioned %d campaigns (directory now %d entries)", len(list), len(be.Campaigns()))
	}
	beSrv, err := be.Serve(*backendAddr)
	if err != nil {
		log.Fatalf("back-end listen: %v", err)
	}
	defer beSrv.Close()
	opSrv, err := backend.ServeOPRF(*oprfAddr, osrv)
	if err != nil {
		log.Fatalf("oprf listen: %v", err)
	}
	defer opSrv.Close()
	if *replAddr != "" {
		if disk == nil {
			log.Fatal("-repl requires -data-dir (there is no WAL to ship without one)")
		}
		rp, err := repl.ServePrimary(*replAddr, disk)
		if err != nil {
			log.Fatalf("replication listen: %v", err)
		}
		defer rp.Close()
		log.Printf("segment shipping on %s (retaining %d sealed segments across snapshots)", rp.Addr(), *replRetain)
	}
	if *adminAddr != "" {
		admin, err := obs.ServeAdmin(*adminAddr, obs.AdminOptions{
			Registry: reg,
			Status: func() any {
				return primaryStatusz(be, disk, mode)
			},
			Health: func() obs.Health {
				return obs.Health{OK: true, Role: "primary", Detail: "serving"}
			},
		})
		if err != nil {
			log.Fatalf("admin listen: %v", err)
		}
		defer admin.Close()
		log.Printf("admin endpoint on %s (/metrics, /statusz, /healthz, /debug/pprof)", admin.Addr())
	}

	cfg := be.CurrentConfig()
	log.Printf("back-end on %s (config v%d, roster v%d with %d users, ε=%g δ=%g |A|=%d, streamed reports on, ack batch=%d, keystream=%s, durable=%v, retain=%d)",
		beSrv.Addr(), cfg.Version, cfg.RosterVersion, *users, *epsilon, *delta, *idSpace,
		*ackBatch, ks, *dataDir != "", *retain)
	log.Printf("oprf-server on %s (RSA-%d)", opSrv.Addr(), *rsaBits)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	log.Print("shutting down")
}

// statusz is the one consistent process-state snapshot /statusz
// serves: role, negotiated versions, per-round progress, and (when
// present) durable-store and replication state. Every field is read
// from the same live objects the serving path uses, so the page can
// never drift from reality.
type statusz struct {
	Role          string                  `json:"role"`
	ConfigVersion uint32                  `json:"config_version"`
	RosterVersion uint32                  `json:"roster_version"`
	Campaigns     []campaignStatusz       `json:"campaigns,omitempty"`
	Rounds        []backend.RoundSnapshot `json:"rounds"`
	Store         *storeStatusz           `json:"store,omitempty"`
	Repl          *replStatusz            `json:"repl,omitempty"`
}

// campaignStatusz is one provisioned campaign as /statusz renders it:
// the directory entry plus the number of live rounds keyed to it.
type campaignStatusz struct {
	ID         uint32  `json:"id"`
	Name       string  `json:"name,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	IDSpace    uint64  `json:"id_space,omitempty"`
	Keystream  byte    `json:"keystream,omitempty"`
	Retain     int     `json:"retain_rounds,omitempty"`
	CadenceSec uint32  `json:"cadence_sec,omitempty"`
	Rounds     int     `json:"rounds"`
}

// campaignStatuszOf renders the back-end's campaign directory with
// per-campaign live-round counts from the same progress snapshot the
// rounds section shows.
func campaignStatuszOf(be *backend.Backend, rounds []backend.RoundSnapshot) []campaignStatusz {
	byCampaign := make(map[uint32]int)
	for _, r := range rounds {
		byCampaign[r.Campaign]++
	}
	list := be.Campaigns()
	out := make([]campaignStatusz, len(list))
	for i, c := range list {
		out[i] = campaignStatusz{
			ID: c.ID, Name: c.Name,
			Epsilon: c.Epsilon, Delta: c.Delta, IDSpace: c.IDSpace,
			Keystream:  byte(c.Keystream),
			Retain:     c.RetainRounds,
			CadenceSec: c.CadenceSec,
			Rounds:     byCampaign[c.ID],
		}
	}
	return out
}

// storeStatusz is the durable-store section of /statusz.
type storeStatusz struct {
	Generation uint64 `json:"generation"`
	Fsync      string `json:"fsync"`
}

// replStatusz is the replication section of a follower's /statusz —
// repl.Status rendered for JSON.
type replStatusz struct {
	Connected bool   `json:"connected"`
	CaughtUp  bool   `json:"caught_up"`
	TailGen   uint64 `json:"tail_gen"`
	TailOff   int64  `json:"tail_off"`
	RemoteGen uint64 `json:"remote_gen"`
	RemoteOff int64  `json:"remote_off"`
	Events    uint64 `json:"events"`
	Resyncs   uint64 `json:"resyncs"`
	Err       string `json:"error,omitempty"`
}

// primaryStatusz snapshots a primary's state for /statusz.
func primaryStatusz(be *backend.Backend, disk *store.Disk, mode store.SyncMode) statusz {
	cfg := be.CurrentConfig()
	rounds := be.RoundsProgress()
	st := statusz{
		Role:          "primary",
		ConfigVersion: cfg.Version,
		RosterVersion: cfg.RosterVersion,
		Campaigns:     campaignStatuszOf(be, rounds),
		Rounds:        rounds,
	}
	if disk != nil {
		st.Store = &storeStatusz{Generation: disk.Generation(), Fsync: mode.String()}
	}
	return st
}

// replStatuszOf renders a follower's replication status for /statusz.
func replStatuszOf(s repl.Status) *replStatusz {
	out := &replStatusz{
		Connected: s.Connected, CaughtUp: s.CaughtUp,
		TailGen: s.TailGen, TailOff: s.TailOff,
		RemoteGen: s.RemoteGen, RemoteOff: s.RemoteOff,
		Events: s.Events, Resyncs: s.Resyncs,
	}
	if s.Err != nil {
		out.Err = s.Err.Error()
	}
	return out
}

// node is the follower front-end: one wire server whose handler and
// report sink route to whichever back-end is current — the warm
// read-only replica while following, the writable promoted back-end
// afterwards. The listener never restarts across promotion, so clients
// keep one address for the standby through its whole life.
type node struct {
	mu       sync.Mutex
	follower *repl.Follower
	promoted *backend.Backend
	disk     *store.Disk
	repl     *repl.Primary
	rounds   int // recovered rounds at promotion (repl.promote's sanity answer)

	replAddr  string // serve segment shipping here after promotion ("" = don't)
	replRet   int
	storeOpts store.Options
}

// backend returns the back-end currently serving this node.
func (n *node) backend() *backend.Backend {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promoted != nil {
		return n.promoted
	}
	return n.follower.Replica()
}

// ConsumeReport implements wire.ReportSink against the current
// back-end (a replica refuses with ErrReadOnlyReplica until promotion).
func (n *node) ConsumeReport(f *wire.ReportFrame) error { return n.backend().ConsumeReport(f) }

// SyncReports implements wire.ReportDurability against the current
// back-end, so acknowledgements become fsync barriers the moment the
// node is promoted onto a writable store.
func (n *node) SyncReports() error { return n.backend().SyncReports() }

// handler answers promotion requests itself and routes everything else
// to the current back-end's handler.
func (n *node) handler() wire.Handler {
	return func(m *wire.Msg) (string, interface{}, error) {
		if m.Type == wire.TypePromote {
			rounds, err := n.promote()
			if err != nil {
				return "", nil, err
			}
			return wire.TypePromoteOK, wire.PromoteResp{Rounds: rounds}, nil
		}
		return n.backend().Handler()(m)
	}
}

// promote performs the takeover exactly once: stop tailing, re-open
// the mirror through crash recovery, swap the writable back-end in,
// and start shipping segments to the next generation of followers if
// configured. Repeat calls are idempotent (an operator retrying the
// trigger must not fail).
func (n *node) promote() (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.promoted != nil {
		return n.rounds, nil
	}
	b, disk, err := n.follower.Promote()
	if err != nil {
		return 0, err
	}
	n.promoted, n.disk = b, disk
	n.rounds = len(b.RoundsProgress())
	log.Printf("promoted: %d rounds recovered from the mirror, now writable", n.rounds)
	if n.replAddr != "" {
		rp, err := repl.ServePrimary(n.replAddr, disk)
		if err != nil {
			log.Printf("segment shipping after promotion: %v", err)
		} else {
			n.repl = rp
			log.Printf("segment shipping on %s (retaining %d sealed segments across snapshots)", rp.Addr(), n.replRet)
		}
	}
	return n.rounds, nil
}

// followerConfig bundles runFollower's flag-derived settings.
type followerConfig struct {
	primary     string
	backendAddr string
	oprfAddr    string
	replAddr    string
	adminAddr   string
	statusEvery time.Duration
	fsync       store.SyncMode
	reg         *obs.Registry
}

// runFollower is the -follow main loop: start the follower, serve the
// warm replica on the ordinary back-end address, and wait for a
// promotion trigger or shutdown.
func runFollower(fc followerConfig, osrv *oprf.Server, beCfg backend.Config, opts repl.Options) {
	if opts.Dir == "" {
		log.Fatal("-follow requires -data-dir (the local mirror promotion re-opens)")
	}
	f, err := repl.StartFollower(opts, beCfg)
	if err != nil {
		log.Fatalf("follower: %v", err)
	}
	n := &node{
		follower:  f,
		replAddr:  fc.replAddr,
		replRet:   opts.StoreOpts.RetainSegments,
		storeOpts: opts.StoreOpts,
	}
	srv, err := wire.ServeWithSinkOpts(fc.backendAddr, n.handler(), n, wire.StreamOpts{
		AckBatch:  beCfg.AckBatch,
		Config:    func() wire.ConfigFrame { return n.backend().WireConfig() },
		Campaigns: func() []campaign.Campaign { return n.backend().Campaigns() },
		Metrics:   fc.reg,
	})
	if err != nil {
		log.Fatalf("follower listen: %v", err)
	}
	defer srv.Close()
	if fc.adminAddr != "" {
		admin, err := obs.ServeAdmin(fc.adminAddr, obs.AdminOptions{
			Registry: fc.reg,
			Status:   func() any { return n.statusz(f, fc.fsync) },
			Health:   func() obs.Health { return n.health(f) },
		})
		if err != nil {
			log.Fatalf("admin listen: %v", err)
		}
		defer admin.Close()
		log.Printf("admin endpoint on %s (/metrics, /statusz, /healthz, /debug/pprof)", admin.Addr())
	}
	// The follower runs its own oprf-server with a fresh key: the OPRF
	// key is per-process and never persisted (by design — it maps ad
	// IDs, not round state). After promotion, clients re-fetch the
	// public key; see OPERATIONS.md for what that means for audits.
	opSrv, err := backend.ServeOPRF(fc.oprfAddr, osrv)
	if err != nil {
		log.Fatalf("oprf listen: %v", err)
	}
	defer opSrv.Close()
	s := f.Status()
	log.Printf("following %s into %s (poll %s, tail gen %d, %d events applied, serving warm replica on %s)",
		fc.primary, opts.Dir, opts.Poll, s.TailGen, s.Events, srv.Addr())
	log.Printf("oprf-server on %s", opSrv.Addr())

	interrupt := make(chan os.Signal, 1)
	signal.Notify(interrupt, os.Interrupt)
	promoteCh := notifyPromote()
	// -repl-status-every 0 disables the periodic line: a nil channel
	// never fires. The line renders the same repl.Status snapshot the
	// /statusz page and the registry gauges read, so the views cannot
	// disagree.
	var statusC <-chan time.Time
	if fc.statusEvery > 0 {
		statusTick := time.NewTicker(fc.statusEvery)
		defer statusTick.Stop()
		statusC = statusTick.C
	}
	for {
		select {
		case <-interrupt:
			log.Print("shutting down")
			n.mu.Lock()
			if n.promoted != nil {
				if n.repl != nil {
					n.repl.Close()
				}
				n.promoted.Close()
				n.disk.Close()
			}
			n.mu.Unlock()
			if n.backendIsReplica() {
				f.Stop()
			}
			return
		case <-promoteCh:
			if _, err := n.promote(); err != nil {
				log.Printf("promotion failed: %v", err)
			}
		case <-statusC:
			if n.backendIsReplica() {
				s := f.Status()
				if s.Err != nil {
					log.Printf("replication stopped: %v (warm replica still serving; promotion refused)", s.Err)
				} else {
					log.Printf("replication: connected=%v caught_up=%v tail=%d@%d remote=%d@%d events=%d resyncs=%d",
						s.Connected, s.CaughtUp, s.TailGen, s.TailOff, s.RemoteGen, s.RemoteOff, s.Events, s.Resyncs)
				}
			}
		}
	}
}

// statusz snapshots the node's state for /statusz: the replication
// view while following, the store view after promotion — always over
// whichever back-end is currently serving.
func (n *node) statusz(f *repl.Follower, mode store.SyncMode) statusz {
	b := n.backend()
	cfg := b.CurrentConfig()
	rounds := b.RoundsProgress()
	st := statusz{
		Role:          "follower",
		ConfigVersion: cfg.Version,
		RosterVersion: cfg.RosterVersion,
		Campaigns:     campaignStatuszOf(b, rounds),
		Rounds:        rounds,
	}
	n.mu.Lock()
	promoted, disk := n.promoted != nil, n.disk
	n.mu.Unlock()
	if promoted {
		st.Role = "primary"
		if disk != nil {
			st.Store = &storeStatusz{Generation: disk.Generation(), Fsync: mode.String()}
		}
		return st
	}
	st.Repl = replStatuszOf(f.Status())
	return st
}

// health answers /healthz: a promoted node is a serving primary; a
// follower is healthy while replication runs (reporting warm-replica
// vs caught-up) and unhealthy only once replication has fatally
// stopped — the state in which promotion would be refused.
func (n *node) health(f *repl.Follower) obs.Health {
	if !n.backendIsReplica() {
		return obs.Health{OK: true, Role: "primary", Detail: "promoted"}
	}
	s := f.Status()
	switch {
	case s.Err != nil:
		return obs.Health{OK: false, Role: "follower", Detail: "replication stopped: " + s.Err.Error()}
	case s.CaughtUp:
		return obs.Health{OK: true, Role: "follower", Detail: "caught-up"}
	}
	return obs.Health{OK: true, Role: "follower", Detail: "warm-replica"}
}

// backendIsReplica reports whether the node is still in standby mode.
func (n *node) backendIsReplica() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.promoted == nil
}
