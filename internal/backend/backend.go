// Package backend implements eyeWnder's back-end server (Figure 1): it
// hosts the bulletin board of blinding public keys, collects blinded CMS
// reports, runs the missing-client adjustment round, unblinds the weekly
// aggregate, computes the global Users_th threshold, and answers
// real-time ad audits. It also exposes the oprf-server as a separate
// network endpoint with its own key, preserving the paper's trust split:
// the back-end never holds the OPRF secret.
package backend

import (
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"sync"
	"time"

	"eyewnder/internal/blind"
	"eyewnder/internal/campaign"
	"eyewnder/internal/detector"
	"eyewnder/internal/obs"
	"eyewnder/internal/oprf"
	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
	"eyewnder/internal/store"
	"eyewnder/internal/vec"
	"eyewnder/internal/wire"
)

// Errors returned by the package.
var (
	ErrRoundClosed    = errors.New("backend: round already closed")
	ErrRoundNotClosed = errors.New("backend: round not closed yet")
	ErrUnknownRound   = errors.New("backend: unknown round")
	ErrBadUser        = errors.New("backend: user index out of range")
	// ErrRoundSealed rejects a report into a round that a deadline close
	// (CloseRound, wait > 0) has sealed: the missing set is frozen so
	// reporters can compute adjustment shares against it, and a late
	// report would invalidate every share already computed.
	ErrRoundSealed = errors.New("backend: round sealed for closing")
	// ErrAdjustIncomplete is a deadline close giving up: the wait expired
	// with reporters' second-round shares still outstanding. The round
	// stays open (and sealed) — stragglers can still upload shares and
	// the close can be retried.
	ErrAdjustIncomplete = errors.New("backend: adjustment shares still outstanding")
	// ErrAdjustConflict rejects a second adjustment share from a user
	// whose stored share differs: an identical re-upload is an idempotent
	// retry, but two different shares for the same round mean the client
	// computed against two different missing sets, and silently keeping
	// either would be a coin flip on correctness.
	ErrAdjustConflict = errors.New("backend: conflicting adjustment share already stored")
	// ErrAdjustNotReporter rejects an adjustment share from a user whose
	// report is not in the aggregate: a share is the sum of the
	// submitter's pairwise blinding terms toward the missing users, so
	// without the submitter's blinded report there is nothing for it to
	// cancel — subtracting it would corrupt the round.
	ErrAdjustNotReporter = errors.New("backend: adjustment share from a user who has not reported")
	// ErrUnknownCampaign rejects traffic tagged with a campaign ID the
	// deployment has not provisioned: reports, adjustments, and round
	// queries for an unprovisioned campaign can never be meaningful, and
	// silently opening rounds for one would let a typo'd ID accumulate
	// state forever.
	ErrUnknownCampaign = errors.New("backend: unknown campaign")
	// ErrReadOnlyReplica rejects every mutating operation on a replica
	// back-end (Config.Replica): a follower's state is defined entirely
	// by the primary's WAL stream, and a local write would fork it. The
	// follower answers reads (thresholds, audits, round status) and
	// turns writable only through promotion — which builds a fresh,
	// non-replica back-end over the same data directory.
	ErrReadOnlyReplica = errors.New("backend: read-only replica")
)

// Config fixes the back-end's parameters.
type Config struct {
	// Params is the shared protocol geometry.
	Params privacy.Params
	// Users is the roster size.
	Users int
	// UsersEstimator derives Users_th from the per-ad user counts.
	UsersEstimator detector.Estimator
	// MergeStripes sets the intra-round merge striping: 0 picks the
	// default (2×GOMAXPROCS), 1 degenerates to a single merge lock.
	MergeStripes int
	// AckBatch sets the streamed-report ack batch k for connections that
	// negotiate batched acknowledgements: one binary ack per k frames.
	// 0 (the default) lets the server adapt k per connection from the
	// observed in-flight depth; 1 acknowledges every frame.
	AckBatch int
	// Store is the durable round store. nil (or store.Null{}) keeps all
	// round state in memory — the original behavior. A store.Disk makes
	// every round event — open, report, adjustment, close, registration
	// — crash-recoverable: New replays the store's recovered state into
	// live rounds, and the wire layer's acknowledgements double as
	// group-committed fsync barriers (SyncReports), so a report is
	// durable before its ack and the batched-ack window amortizes the
	// fsyncs.
	Store store.Store
	// RetainRounds bounds closed-round retention: once a round's
	// Users_th has been served for RetainRounds newer closed rounds, the
	// round ages out of memory (and out of subsequent snapshots) — its
	// threshold and audits answer ErrUnknownRound afterwards. 0 keeps
	// every closed round forever (the original behavior). Retention also
	// applies at recovery, so a restart does not resurrect aged-out
	// rounds.
	RetainRounds int
	// Replica puts the back-end in hot-standby mode: every mutating
	// operation (registrations, reports, adjustments, closes) is refused
	// with ErrReadOnlyReplica, rounds are never created on lookup, and
	// state changes arrive exclusively through ApplyEvent — the
	// replication follower feeding it the primary's decoded WAL stream.
	// Reads (thresholds, audits, round status, roster) serve normally,
	// so a follower answers queries from its warm copy. See
	// internal/repl.
	Replica bool
	// Metrics is the observability registry the back-end's instruments
	// (reports accepted/rejected by reason, round lifecycle counters,
	// adjustment shares and failures, config/roster version gauges)
	// register in. nil means a private registry: the instrumented paths
	// run identically, nothing is exported. Instrument registration is
	// idempotent by name, so a promoted back-end constructed over the
	// same registry as the replica it replaces continues the same
	// counters and repoints the gauges at itself.
	Metrics *obs.Registry
}

// Backend is the server state. All methods are safe for concurrent use.
//
// Locking is three-level: Backend.mu guards only the roster and the round
// map; each round carries an RWMutex whose read side admits any number of
// concurrent reporters while the write side (close, adjustments, status)
// excludes them; and within a round the aggregator's merge is striped
// across row ranges (vec.Striped), so reporters into the *same* round
// fold disjoint stripes in parallel. Folding a report merges a full cell
// vector (tens of KB) — under the earlier single round lock one hot
// round's ingestion serialized even on many-core hosts.
type Backend struct {
	cfg   Config
	cells int             // sketch cell count implied by Params, for share validation
	m     *backendMetrics // pre-registered instrument handles, always non-nil
	// refinalize is how long restore spent re-finalizing the recovered
	// closed rounds (eyewnder_restore_refinalize_seconds); written once,
	// before New returns.
	refinalize time.Duration

	// store is the durability sink (store.Null when Config.Store is
	// nil); durable is false for the null store, gating the snapshot
	// machinery.
	store   store.Store
	durable bool
	// snapC wakes the snapshot goroutine; snapQuit (closed by Close)
	// tells it to exit — snapC itself is never closed, because reporters
	// send on it concurrently and a send racing a close would panic;
	// snapDone closes when the goroutine exits; snapErr holds the last
	// snapshot failure (surfaced by Close). All nil/unused when not
	// durable.
	snapC     chan struct{}
	snapQuit  chan struct{}
	snapDone  chan struct{}
	snapErrMu sync.Mutex
	snapErr   error
	closing   sync.Once

	mu     sync.Mutex
	roster [][]byte // bulletin board; nil slot = unregistered
	rounds map[roundKey]*round
	// campaigns is the provisioned-campaign registry (guarded by mu):
	// campaign ID → resolved state. Campaign 0 — the deployment's
	// implicit legacy campaign, defined by Config.Params — is never in
	// the map. Re-provisioning an existing ID replaces its definition
	// (last write wins, like the WAL record); rounds already open keep
	// the config they pinned at their open.
	campaigns map[uint32]*campaignState
	// retiredBelow is the per-campaign retention cutoff (guarded by mu):
	// rounds of campaign c with ID below retiredBelow[c] have had their
	// Users_th served for the full horizon and were dropped. getRound
	// refuses to re-create them — a retired round must answer
	// ErrUnknownRound, not silently reopen with a fresh reported bitmap.
	// Absent key = nothing retired for that campaign.
	retiredBelow map[uint32]uint64
	// configVersion and rosterVersion are the deployment-wide negotiated
	// round-config counters (guarded by mu). The back-end is the single
	// source of truth for them: the wire handshake advertises the
	// current pair, every registration that changes the bulletin board
	// bumps both, rounds pin the pair current at their open, and with a
	// durable store the counters survive restarts (recConfig records +
	// snapshot headers).
	configVersion uint32
	rosterVersion uint32
}

// roundKey identifies one round of one counting campaign — the unit
// every piece of round state keys on. Campaign 0 is the implicit
// legacy campaign, so single-campaign deployments see exactly the old
// behavior.
type roundKey struct {
	campaign uint32
	round    uint64
}

// campaignState is one provisioned campaign's resolved runtime state.
type campaignState struct {
	// def is the provisioned definition and enc its canonical encoding —
	// the bytes the WAL carries, the snapshot stores, and the wire
	// directory serves.
	def campaign.Campaign
	enc []byte
	// params is the campaign's round geometry: def's overrides resolved
	// over the deployment base (campaign.Params).
	params privacy.Params
	// cells is the sketch cell count params implies.
	cells int
	// retain is the campaign's closed-round retention horizon:
	// def.RetainRounds, falling back to Config.RetainRounds when unset.
	retain int
	// accepted is the campaign's pre-registered accepted-report counter
	// (eyewnder_campaign_reports_accepted_total{campaign="<id>"}).
	accepted *obs.Counter
}

type round struct {
	mu      sync.RWMutex
	agg     *privacy.Aggregator
	adjusts map[int][]uint64 // second-round shares by reporter
	// sealed stops report admission without closing: a deadline close
	// (CloseRound, wait > 0) seals first so the missing set is frozen
	// while reporters compute and upload their adjustment shares. Sealing
	// is in-memory only — after a crash the round recovers open, and the
	// retried deadline close simply seals it again.
	sealed bool
	// adjCond (lazily created under mu's write side) wakes deadline
	// closes whenever an adjustment share lands.
	adjCond *sync.Cond
	closed  bool
	final   *sketch.CMS
	usersTh float64
	// counts is the close-time count table — counts[id] is the final
	// sketch's estimate for ad ID id, over the round's whole ID space —
	// and distinct the number of non-zero entries in it.
	counts   []uint64
	distinct int
}

// New constructs a back-end. With a durable Config.Store, the store's
// recovered state — bulletin-board registrations and full round states
// (aggregate cells, reported bitmaps, adjustment shares, closed flags)
// — is replayed into live rounds before the back-end accepts traffic,
// so a restart resumes every round exactly where the crash left it.
func New(cfg Config) (*Backend, error) {
	if cfg.Users < 1 {
		return nil, errors.New("backend: Users must be >= 1")
	}
	d, w, err := sketch.Dimensions(cfg.Params.Epsilon, cfg.Params.Delta)
	if err != nil {
		return nil, err
	}
	if err := privacy.CheckIDSpace(cfg.Params.IDSpace); err != nil {
		return nil, err
	}
	st := cfg.Store
	if st == nil {
		st = store.Null{}
	}
	_, isNull := st.(store.Null)
	b := &Backend{
		cfg:   cfg,
		cells: d * w,
		store: st,
		// A replica is never durable from its own point of view: its
		// store is a read-only recovered view, the primary owns the WAL,
		// and the snapshot machinery must stay off.
		durable:      !isNull && !cfg.Replica,
		roster:       make([][]byte, cfg.Users),
		rounds:       make(map[roundKey]*round),
		campaigns:    make(map[uint32]*campaignState),
		retiredBelow: make(map[uint32]uint64),
	}
	b.m = newBackendMetrics(cfg.Metrics)
	if err := b.restore(); err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		// Gauges read live state through the closure; re-registering
		// (promotion builds a fresh back-end over the same registry)
		// replaces the callback, so the gauges follow the active
		// back-end.
		cfg.Metrics.GaugeFunc("eyewnder_config_version",
			"Deployment-wide negotiated config version.",
			func() float64 {
				b.mu.Lock()
				defer b.mu.Unlock()
				return float64(b.configVersion)
			})
		cfg.Metrics.GaugeFunc("eyewnder_roster_version",
			"Deployment-wide negotiated roster version.",
			func() float64 {
				b.mu.Lock()
				defer b.mu.Unlock()
				return float64(b.rosterVersion)
			})
		cfg.Metrics.GaugeFunc("eyewnder_rounds_live",
			"Rounds currently in memory (open plus retained closed).",
			func() float64 {
				b.mu.Lock()
				defer b.mu.Unlock()
				return float64(len(b.rounds))
			})
		cfg.Metrics.GaugeFunc("eyewnder_campaigns",
			"Campaigns provisioned beyond the implicit campaign 0.",
			func() float64 {
				b.mu.Lock()
				defer b.mu.Unlock()
				return float64(len(b.campaigns))
			})
		cfg.Metrics.GaugeFunc("eyewnder_restore_refinalize_seconds",
			"Time this back-end's startup spent re-finalizing recovered closed rounds.",
			func() float64 { return b.refinalize.Seconds() })
		cfg.Metrics.GaugeFunc("eyewnder_replica",
			"1 when this back-end is a read-only hot-standby replica.",
			func() float64 {
				if b.cfg.Replica {
					return 1
				}
				return 0
			})
	}
	if b.durable {
		b.snapC = make(chan struct{}, 1)
		b.snapQuit = make(chan struct{})
		b.snapDone = make(chan struct{})
		go b.snapshotLoop()
	}
	return b, nil
}

// restore replays the store's recovered state into live rounds. The
// recovered geometry, roster size, and blinding suite must match this
// back-end's configuration: persisted rounds from a different protocol
// configuration could never aggregate correctly, so a mismatch refuses
// to start rather than corrupt rounds silently. The deployment-wide
// config/roster version counters are adopted from the store (floored at
// 1 — version 0 is reserved for the unversioned legacy style — and at
// the highest version any recovered round was opened under), so the
// negotiated state a restart advertises is exactly the one the crash
// interrupted. Closed rounds past the retention horizon are not
// resurrected.
func (b *Backend) restore() error {
	for u, key := range b.store.Roster() {
		if u < 0 || u >= b.cfg.Users {
			return fmt.Errorf("backend: recovered roster entry for user %d, roster size %d — data dir from a different deployment?", u, b.cfg.Users)
		}
		b.roster[u] = append([]byte(nil), key...)
	}
	cv, rv := b.store.ConfigVersions()
	b.configVersion, b.rosterVersion = max32(cv, 1), max32(rv, 1)
	// The campaign directory recovers before the rounds: a recovered
	// round of campaign c needs c's resolved geometry to validate
	// against, exactly as a replayed report needs its round open first.
	for id, def := range b.store.Campaigns() {
		c, _, err := campaign.DecodeBinary(def)
		if err != nil {
			return fmt.Errorf("backend: recovered campaign %d does not decode: %w", id, err)
		}
		if c.ID != id {
			return fmt.Errorf("backend: recovered campaign body claims ID %d under directory key %d", c.ID, id)
		}
		cs, err := b.newCampaignState(c)
		if err != nil {
			return fmt.Errorf("backend: recovered campaign %d (%s): %w", id, c.Name, err)
		}
		b.campaigns[id] = cs
	}
	recovered := b.store.Rounds()
	closedBy := make(map[uint32][]uint64)
	for _, rs := range recovered {
		if rs.Closed {
			closedBy[rs.Campaign] = append(closedBy[rs.Campaign], rs.Round)
		}
	}
	for c, closed := range closedBy {
		if cut := retentionCutoff(closed, b.retainFor(c)); cut > 0 {
			b.retiredBelow[c] = cut
		}
	}
	for _, rs := range recovered {
		params, cells := b.cfg.Params, b.cells
		if rs.Campaign != 0 {
			cs, ok := b.campaigns[rs.Campaign]
			if !ok {
				return fmt.Errorf("backend: recovered round %d belongs to unprovisioned campaign %d — data dir from a different deployment?", rs.Round, rs.Campaign)
			}
			params, cells = cs.params, cs.cells
		}
		if rs.D*rs.W != cells {
			return fmt.Errorf("backend: recovered round %d (campaign %d) has %dx%d cells, config wants %d — data dir from a different geometry?", rs.Round, rs.Campaign, rs.D, rs.W, cells)
		}
		if rs.RosterSize != b.cfg.Users {
			return fmt.Errorf("backend: recovered round %d expects %d users, config says %d", rs.Round, rs.RosterSize, b.cfg.Users)
		}
		if rs.Keystream != byte(params.Keystream) {
			return fmt.Errorf("backend: recovered round %d (campaign %d) used keystream suite %#02x, config says %#02x", rs.Round, rs.Campaign, rs.Keystream, byte(params.Keystream))
		}
		b.configVersion = max32(b.configVersion, rs.ConfigVersion)
		b.rosterVersion = max32(b.rosterVersion, rs.RosterVersion)
		if rs.Closed && rs.Round < b.retiredBelow[rs.Campaign] {
			continue // aged out: its Users_th has been served long enough
		}
		rcfg := privacy.RoundConfig{
			Version:       rs.ConfigVersion,
			RosterVersion: rs.RosterVersion,
			RosterSize:    b.cfg.Users,
			Params:        params,
		}
		agg, err := privacy.RestoreAggregatorStripes(rcfg, rs.Round, b.cfg.MergeStripes,
			rs.Cells, rs.N, rs.Seed, rs.Reported)
		if err != nil {
			return err
		}
		adjusts := rs.Adjusts
		if adjusts == nil {
			adjusts = make(map[int][]uint64)
		}
		r := &round{agg: agg, adjusts: adjusts}
		if rs.Closed {
			// Re-derive the close-time results (final sketch, count
			// table, Users_th) from the recovered aggregate: the inputs
			// are byte-identical, so the counts are too.
			start := time.Now()
			if err := b.finalizeLocked(r); err != nil {
				return fmt.Errorf("backend: re-closing recovered round %d: %w", rs.Round, err)
			}
			b.refinalize += time.Since(start)
			r.closed = true
		}
		b.rounds[roundKey{rs.Campaign, rs.Round}] = r
	}
	return nil
}

// newCampaignState resolves one campaign definition into runtime state:
// validate, resolve the geometry over the deployment base, check the
// geometry actually yields a sketch, pre-register the campaign's
// metric handle.
func (b *Backend) newCampaignState(c campaign.Campaign) (*campaignState, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	params := c.Params(b.cfg.Params)
	d, w, err := sketch.Dimensions(params.Epsilon, params.Delta)
	if err != nil {
		return nil, err
	}
	retain := c.RetainRounds
	if retain == 0 {
		retain = b.cfg.RetainRounds
	}
	return &campaignState{
		def:      c,
		enc:      c.AppendBinary(nil),
		params:   params,
		cells:    d * w,
		retain:   retain,
		accepted: b.m.campaignAccepted(c.ID),
	}, nil
}

// retainFor resolves the retention horizon for a campaign: the
// campaign's own RetainRounds when provisioned and set, else the
// deployment default.
func (b *Backend) retainFor(c uint32) int {
	if c != 0 {
		if cs, ok := b.campaigns[c]; ok && cs.retain != 0 {
			return cs.retain
		}
	}
	return b.cfg.RetainRounds
}

// campaignCells resolves the flat cell count a campaign's reports and
// adjustment shares must carry: the campaign's own geometry when
// provisioned, the deployment default for campaign 0 or (conservatively)
// an unknown ID — the round lookup right behind every caller rejects the
// unknown campaign anyway.
func (b *Backend) campaignCells(c uint32) int {
	if c != 0 {
		b.mu.Lock()
		defer b.mu.Unlock()
		if cs, ok := b.campaigns[c]; ok {
			return cs.cells
		}
	}
	return b.cells
}

// retentionCutoff returns the exclusive round-ID bound below which
// closed rounds age out: with retain > 0 and more than retain closed
// rounds, it is the retain-th newest closed round's ID — every closed
// round older than that has had its Users_th served while retain newer
// closed rounds were published. Counting closed rounds (rather than
// subtracting retain from an ID) keeps the promise independent of the
// round numbering scheme: sparse or date-keyed round IDs retire on the
// same schedule as consecutive ones. 0 means nothing retires. The
// slice is sorted in place.
func retentionCutoff(closed []uint64, retain int) uint64 {
	if retain <= 0 || len(closed) <= retain {
		return 0
	}
	sort.Slice(closed, func(i, j int) bool { return closed[i] > closed[j] })
	return closed[retain-1]
}

// max32 returns the larger of two uint32s.
func max32(a, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

// snapshotLoop runs store snapshots off the hot path: report ingestion
// only pokes snapC (non-blocking) when the store says enough has been
// logged, and this goroutine captures the round states and compacts the
// WAL. Snapshot failures are remembered and surfaced by Close — the WAL
// keeps growing but stays correct.
func (b *Backend) snapshotLoop() {
	defer close(b.snapDone)
	for {
		select {
		case <-b.snapQuit:
			return
		case <-b.snapC:
			if err := b.store.Snapshot(b.captureRoundStates); err != nil {
				b.snapErrMu.Lock()
				b.snapErr = err
				b.snapErrMu.Unlock()
			}
		}
	}
}

// maybeSnapshot pokes the snapshot goroutine when the store wants one.
func (b *Backend) maybeSnapshot() {
	if b.durable && b.store.ShouldSnapshot() {
		select {
		case b.snapC <- struct{}{}:
		default:
		}
	}
}

// captureRoundStates snapshots every round's durable state. Each round
// is captured under its write lock (excluding in-flight reporters), so
// the state is internally consistent; rounds are captured one at a
// time, which is fine because the WAL has already rotated — anything
// folded between two captures is replayed idempotently on top.
func (b *Backend) captureRoundStates() ([]*store.RoundState, error) {
	b.mu.Lock()
	keys := make([]roundKey, 0, len(b.rounds))
	rounds := make([]*round, 0, len(b.rounds))
	for k, r := range b.rounds {
		keys = append(keys, k)
		rounds = append(rounds, r)
	}
	b.mu.Unlock()
	out := make([]*store.RoundState, 0, len(rounds))
	for i, r := range rounds {
		r.mu.Lock()
		d, w, seed, n, ks, cells, reported := r.agg.SnapshotState()
		rcfg := r.agg.Config()
		adjusts := make(map[int][]uint64, len(r.adjusts))
		for u, s := range r.adjusts {
			adjusts[u] = append([]uint64(nil), s...)
		}
		closed := r.closed
		r.mu.Unlock()
		out = append(out, &store.RoundState{
			Campaign: keys[i].campaign,
			Round:    keys[i].round, RosterSize: b.cfg.Users,
			ConfigVersion: rcfg.Version, RosterVersion: rcfg.RosterVersion,
			D: d, W: w, Seed: seed, N: n, Keystream: byte(ks),
			Closed: closed, Cells: cells, Reported: reported, Adjusts: adjusts,
		})
	}
	return out, nil
}

// SyncReports implements wire.ReportDurability: the wire layer calls it
// immediately before acknowledging streamed reports, making the ack a
// durability barrier. The store's group commit coalesces concurrent
// barriers, so one fsync covers a whole batched-ack window.
func (b *Backend) SyncReports() error { return b.store.Sync() }

// Close stops the snapshot goroutine and reports the last snapshot
// failure, if any. It does not close the store — the store's owner
// (whoever called store.Open) does that, after the back-end is done.
func (b *Backend) Close() error {
	if b.durable {
		b.closing.Do(func() { close(b.snapQuit) })
		<-b.snapDone
	}
	b.snapErrMu.Lock()
	defer b.snapErrMu.Unlock()
	return b.snapErr
}

// MergeStripes returns the per-round merge stripe count actually in
// effect for this back-end's sketch geometry (the configured value is a
// request; tiny sketches clamp it).
func (b *Backend) MergeStripes() int {
	return vec.EffectiveStripes(b.cells, b.cfg.MergeStripes)
}

// CurrentConfig returns the negotiated round config the back-end
// currently advertises: the flag-derived protocol geometry stamped with
// the live config/roster versions. This — not any client-side flag set
// — is the deployment's source of truth; the wire handshake serves it
// to every connecting client.
func (b *Backend) CurrentConfig() privacy.RoundConfig {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.currentConfigLocked()
}

// currentConfigLocked is CurrentConfig under b.mu.
func (b *Backend) currentConfigLocked() privacy.RoundConfig {
	return privacy.RoundConfig{
		Version:       b.configVersion,
		RosterVersion: b.rosterVersion,
		RosterSize:    b.cfg.Users,
		Params:        b.cfg.Params,
	}
}

// WireConfig renders the current config as a Welcome-frame payload.
// Serve uses it directly; a follower front-end serving a switchable
// replica/promoted back-end passes its own wire.StreamOpts.Config
// callback that delegates here per request.
func (b *Backend) WireConfig() wire.ConfigFrame { return b.wireConfig() }

// wireConfig renders the current config as a Welcome-frame payload
// (wire.StreamOpts.Config).
func (b *Backend) wireConfig() wire.ConfigFrame {
	cfg := b.CurrentConfig()
	b.mu.Lock()
	campaigns := uint16(len(b.campaigns))
	b.mu.Unlock()
	return wire.ConfigFrame{
		Campaigns:     campaigns,
		ConfigVersion: cfg.Version,
		RosterVersion: cfg.RosterVersion,
		RosterSize:    uint32(cfg.RosterSize),
		Epsilon:       cfg.Params.Epsilon,
		Delta:         cfg.Params.Delta,
		IDSpace:       cfg.Params.IDSpace,
		Keystream:     byte(cfg.Params.Keystream),
		Group:         wire.GroupP256,
		Estimator:     byte(b.cfg.UsersEstimator),
		AckBatch:      uint32(b.cfg.AckBatch),
	}
}

// Register stores a user's blinding public key on the bulletin board
// (durably, when a store is configured: the board must survive restarts
// or recovered rounds would face an empty roster). A registration that
// changes the board — a fresh slot, or a new key over an old one —
// bumps the roster and config versions: the pairwise blinding sets
// every other member derived are now stale, so rounds opened before the
// bump stop admitting new-config reporters and rounds opened after it
// reject old-config ones (privacy.ErrIncompatibleConfig), instead of
// silently breaking blinding cancellation. Re-registering an identical
// key (a client retry) bumps nothing.
//
// The fsync barrier runs after b.mu is released — report ingestion
// (which needs b.mu for round lookup) never stalls behind a
// registration's disk flush, and concurrent registrations group-commit
// onto one fsync. A Sync failure surfaces as the registration's error;
// the client retries and the overwrite is idempotent.
func (b *Backend) Register(user int, publicKey []byte) (rosterSize int, err error) {
	if b.cfg.Replica {
		return 0, ErrReadOnlyReplica
	}
	b.mu.Lock()
	if user < 0 || user >= b.cfg.Users {
		b.mu.Unlock()
		return 0, ErrBadUser
	}
	if len(publicKey) == 0 {
		// An empty key can never be a blinding public key, and accepting
		// one would let a buggy client bump the deployment versions on
		// every retry (empty never compares equal to an absent slot).
		b.mu.Unlock()
		return 0, errors.New("backend: empty public key")
	}
	if err := b.store.AppendRegister(user, publicKey); err != nil {
		b.mu.Unlock()
		return 0, err
	}
	if !bytesEqual(b.roster[user], publicKey) {
		// The version bump is logged in the same critical section as the
		// register record, so recovery can never observe one without the
		// other; the live counters advance only once the record is
		// appended, so a failed append never leaves the backend
		// advertising a version no durable record backs.
		cv, rv := b.configVersion+1, b.rosterVersion+1
		if err := b.store.AppendConfig(cv, rv); err != nil {
			b.mu.Unlock()
			return 0, err
		}
		b.configVersion, b.rosterVersion = cv, rv
	}
	b.roster[user] = append([]byte(nil), publicKey...)
	b.mu.Unlock()
	if err := b.store.Sync(); err != nil {
		return 0, err
	}
	return b.cfg.Users, nil
}

// bytesEqual reports whether a and b hold the same bytes.
func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Roster returns the bulletin board together with the config/roster
// versions it is current at, so a caller deriving pairwise blinding
// secrets can pin the exact negotiated state its reports belong to.
func (b *Backend) Roster() (keys [][]byte, configVersion, rosterVersion uint32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([][]byte, len(b.roster))
	for i, k := range b.roster {
		if k != nil {
			out[i] = append([]byte(nil), k...)
		}
	}
	return out, b.configVersion, b.rosterVersion
}

// getRound returns (creating on first touch) the round's state. Only the
// map access happens under the global lock; callers lock the returned
// round for any state access. Round creation is logged before the round
// becomes visible, so the WAL always carries a round's open record
// ahead of its reports; the record is not fsynced here — every
// acknowledgement barrier that matters (report ack, adjustment upload,
// close) group-commits everything appended before it, open record
// included, and an open that was never followed by an acked event is
// trivially recreated on demand after a crash.
// AddCampaign provisions (or re-provisions) a counting campaign: the
// definition is validated, resolved against the deployment's base
// params, logged durably, and published to the wire directory. Last
// write wins — a re-provision replaces the stored definition — but only
// *future* rounds see the change: every live round pinned its config at
// open. Re-provisioning with a different geometry or keystream is legal
// only once the campaign's old rounds are closed and retired; recovery
// hard-checks recovered rounds against the current definition and
// refuses to start otherwise, so operators change cadence/retention
// freely and change geometry only at a round boundary.
func (b *Backend) AddCampaign(c campaign.Campaign) error {
	if b.cfg.Replica {
		return ErrReadOnlyReplica
	}
	cs, err := b.newCampaignState(c)
	if err != nil {
		return err
	}
	b.mu.Lock()
	if err := b.store.AppendCampaign(cs.enc); err != nil {
		b.mu.Unlock()
		return err
	}
	b.campaigns[c.ID] = cs
	b.mu.Unlock()
	return b.store.Sync()
}

// Campaigns lists the provisioned campaigns in ID order — the wire
// directory's source of truth.
func (b *Backend) Campaigns() []campaign.Campaign {
	b.mu.Lock()
	out := make([]campaign.Campaign, 0, len(b.campaigns))
	for _, cs := range b.campaigns {
		out = append(out, cs.def)
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (b *Backend) getRound(c uint32, id uint64) (*round, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.rounds[roundKey{c, id}]
	if !ok {
		if b.cfg.Replica {
			// A replica's rounds exist exactly when the primary's WAL
			// opened them (ApplyEvent); creating one here would log an
			// open record the primary never wrote.
			return nil, ErrUnknownRound
		}
		if id < b.retiredBelow[c] {
			// The round was retired: its Users_th has already been
			// published and served. Re-creating it here would hand out a
			// fresh reported bitmap (breaking the duplicate invariant
			// for late or replayed reports) and eventually publish a
			// second, different threshold for the same round ID.
			return nil, ErrUnknownRound
		}
		params := b.cfg.Params
		if c != 0 {
			cs, ok := b.campaigns[c]
			if !ok {
				return nil, ErrUnknownCampaign
			}
			params = cs.params
		}
		// The round pins the config current at its open: later version
		// bumps (roster changes, campaign re-provisioning) open *future*
		// rounds under the new config, while this one keeps accepting
		// exactly the cohort that negotiated it.
		rcfg := b.currentConfigLocked()
		rcfg.Params = params
		agg, err := privacy.NewAggregatorStripes(rcfg, id, b.cfg.MergeStripes)
		if err != nil {
			return nil, err
		}
		d, w, seed := agg.Layout()
		if err := b.store.AppendOpen(c, id, b.cfg.Users, d, w, seed, byte(params.Keystream),
			rcfg.Version, rcfg.RosterVersion); err != nil {
			return nil, err
		}
		r = &round{agg: agg, adjusts: make(map[int][]uint64)}
		b.rounds[roundKey{c, id}] = r
		b.m.roundsOpened.Inc()
	}
	return r, nil
}

// lookupRound returns an existing round without creating one.
func (b *Backend) lookupRound(c uint32, id uint64) (*round, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.rounds[roundKey{c, id}]
	return r, ok
}

// campaignAcceptedCounter resolves a campaign's pre-registered
// accepted-report counter (nil for an unprovisioned nonzero ID, which
// can only happen on paths that already rejected the report).
func (b *Backend) campaignAcceptedCounter(c uint32) *obs.Counter {
	if c == 0 {
		return b.m.acceptedC0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if cs, ok := b.campaigns[c]; ok {
		return cs.accepted
	}
	return nil
}

// ConsumeReport implements wire.ReportSink and is the only way a report
// enters the back-end — over TCP and in process alike: the frame's cell
// vector folds straight into the round aggregate, with no intermediate
// []byte or CMS ever materialized. The frame's keystream suite byte is
// enforced against the round's: a report blinded under a different
// suite would not cancel and would silently corrupt the aggregate.
//
// Reporters hold only the round's read lock: the aggregator's own
// bookkeeping lock and striped cell merge admit concurrent submissions
// into the same round, while the write lock (CloseRound) excludes them.
// The sequence is reserve → log → fold: the aggregator first validates
// and reserves the user's slot (so the WAL only ever records reports
// the aggregate will absorb, and records them in acceptance order),
// then the frame is logged while its cells are still the caller's
// buffer, then the cells merge.
//
// Durability: the frame is logged but NOT synced here — the caller
// runs SyncReports before it acknowledges (the wire layer immediately
// before each ack), so one group-committed fsync covers a whole
// batched-ack window instead of every report paying its own.
func (b *Backend) ConsumeReport(f *wire.ReportFrame) error {
	if f.Kind == wire.FrameKindAdjust {
		// A streamed second-round share: same batched connection, same
		// ack slots and durability barrier as reports (the ack's
		// SyncReports covers the share's WAL append), different store.
		// submitAdjustment owns the share/failure accounting (and the
		// replica refusal).
		return b.submitAdjustment(f.Campaign, f.User, f.Round, f.ConfigVersion,
			blind.Keystream(f.Keystream), true, f.Cells, false)
	}
	err := b.consumeReport(f)
	if err != nil {
		b.m.reportReason(err).Inc()
	} else {
		b.m.accepted.Inc()
		if ctr := b.campaignAcceptedCounter(f.Campaign); ctr != nil {
			ctr.Inc()
		}
	}
	return err
}

// consumeReport is ConsumeReport's report-frame body; the wrapper owns
// the accept/reject accounting.
func (b *Backend) consumeReport(f *wire.ReportFrame) error {
	if b.cfg.Replica {
		return ErrReadOnlyReplica
	}
	r, err := b.getRound(f.Campaign, f.Round)
	if err != nil {
		return err
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if r.closed {
		return ErrRoundClosed
	}
	if r.sealed {
		return ErrRoundSealed
	}
	ks := blind.Keystream(f.Keystream)
	if err := r.agg.ReserveCells(f.User, f.D, f.W, f.N, f.Seed, ks, f.ConfigVersion, len(f.Cells)); err != nil {
		return err
	}
	if err := b.store.AppendReport(f.Campaign, f.Round, f.User, f.D, f.W, f.N, f.Seed, f.Keystream, f.ConfigVersion, f.Cells); err != nil {
		r.agg.Unreserve(f.User, f.N)
		return err
	}
	r.agg.FoldReserved(f.Cells)
	b.maybeSnapshot()
	return nil
}

// RoundProgress is one consistent observation of a round's state:
// Reported and Missing come from the same aggregator critical section
// (Reported + len(Missing) equals the roster size, always), and the
// adjusted count, sealed and closed flags are read under the same round
// lock. Separate Reported()/Missing() reads can each be individually
// correct yet disagree when a report folds in between them — the torn
// view a status poll racing submissions used to publish.
type RoundProgress struct {
	Reported int
	Missing  []int
	// Adjusted counts the reporters whose second-round shares are
	// stored.
	Adjusted int
	Sealed   bool
	Closed   bool
}

// RoundProgressOf reports a (campaign, round)'s progress as one
// consistent snapshot. A status query is observation only: asking about
// a round no reports have touched returns ErrUnknownRound instead of
// opening (and logging) fresh round state.
func (b *Backend) RoundProgressOf(c uint32, id uint64) (RoundProgress, error) {
	r, ok := b.lookupRound(c, id)
	if !ok {
		return RoundProgress{}, ErrUnknownRound
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	reported, missing := r.agg.Progress()
	return RoundProgress{
		Reported: reported, Missing: missing,
		Adjusted: len(r.adjusts), Sealed: r.sealed, Closed: r.closed,
	}, nil
}

// RoundSnapshot is one round's progress as /statusz reports it: the
// same consistent observation as RoundProgressOf, with the missing set
// reduced to its size (a status page wants counts, not a roster-sized
// list).
type RoundSnapshot struct {
	Campaign uint32 `json:"campaign"`
	Round    uint64 `json:"round"`
	Reported int    `json:"reported"`
	Missing  int    `json:"missing"`
	Adjusted int    `json:"adjusted"`
	Sealed   bool   `json:"sealed"`
	Closed   bool   `json:"closed"`
}

// RoundsProgress snapshots every live round's progress, sorted by
// campaign then round ID. Like RoundProgressOf it never creates a
// round: it enumerates the existing map under the global lock and then
// reads each round under its own read lock, so a status poll is
// observation only — on a primary, a follower, and everything in
// between.
func (b *Backend) RoundsProgress() []RoundSnapshot {
	b.mu.Lock()
	keys := make([]roundKey, 0, len(b.rounds))
	rounds := make([]*round, 0, len(b.rounds))
	for k, r := range b.rounds {
		keys = append(keys, k)
		rounds = append(rounds, r)
	}
	b.mu.Unlock()
	out := make([]RoundSnapshot, 0, len(rounds))
	for i, r := range rounds {
		r.mu.RLock()
		reported, missing := r.agg.Progress()
		out = append(out, RoundSnapshot{
			Campaign: keys[i].campaign, Round: keys[i].round,
			Reported: reported, Missing: len(missing),
			Adjusted: len(r.adjusts), Sealed: r.sealed, Closed: r.closed,
		})
		r.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Campaign != out[j].Campaign {
			return out[i].Campaign < out[j].Campaign
		}
		return out[i].Round < out[j].Round
	})
	return out
}

// SubmitAdjustment records a reporter's second-round share. Invalid
// shares are rejected here, at upload time, rather than poisoning every
// later CloseRound attempt: the cell count must match the geometry, the
// round must exist and be open, and the submitter must be one of the
// round's reporters — a share is the sum of the submitter's pairwise
// blinding terms toward the missing users, meaningless without the
// submitter's own report in the aggregate. Re-uploading an identical
// share is an idempotent retry; a *different* share for the same round
// is refused (ErrAdjustConflict) — the client computed against two
// different missing sets and the server cannot tell which one is right.
//
// cv is the negotiated config version the share was derived under: 0 is
// "unversioned" and accepted by any round, a stale nonzero version is
// rejected (the share's pairwise terms come from a superseded roster
// and could not cancel), exactly as stale reports are.
func (b *Backend) SubmitAdjustment(c uint32, user int, id uint64, cv uint32, cells []uint64) error {
	return b.submitAdjustment(c, user, id, cv, 0, false, cells, true)
}

// submitAdjustment is the shared adjustment-upload path. checkKS
// enforces ks against the round's blinding suite (the streamed-frame
// path carries the byte; the JSON op never did). syncNow runs the
// fsync barrier before returning — the streamed path passes false and
// lets the wire layer's ack barrier (SyncReports) cover the append, so
// batched adjustment uploads amortize fsyncs exactly like reports.
func (b *Backend) submitAdjustment(c uint32, user int, id uint64, cv uint32, ks blind.Keystream, checkKS bool, cells []uint64, syncNow bool) error {
	err := b.applyAdjustment(c, user, id, cv, ks, checkKS, cells, syncNow)
	if err != nil {
		b.m.adjustReason(err).Inc()
	} else {
		b.m.adjShares.Inc()
	}
	return err
}

// applyAdjustment is submitAdjustment's body; the wrapper owns the
// share/failure accounting so every return path is counted exactly
// once.
func (b *Backend) applyAdjustment(c uint32, user int, id uint64, cv uint32, ks blind.Keystream, checkKS bool, cells []uint64, syncNow bool) error {
	if b.cfg.Replica {
		return ErrReadOnlyReplica
	}
	if user < 0 || user >= b.cfg.Users {
		return ErrBadUser
	}
	if len(cells) != b.campaignCells(c) {
		return fmt.Errorf("%w: adjustment share has %d cells, want %d",
			sketch.ErrDimensionMismatch, len(cells), b.campaignCells(c))
	}
	// Unlike reports, an adjustment never opens a round: a share can
	// only repair a round that reports have already touched.
	r, ok := b.lookupRound(c, id)
	if !ok {
		return ErrUnknownRound
	}
	// The write lock covers only the validation, the append (which must
	// order against a concurrent close), and the map update; the fsync
	// barrier runs after it is released, so the round's reporters
	// (read-lock holders) never stall behind an adjustment's disk flush
	// and concurrent adjustment uploads group-commit onto one fsync. A
	// Sync failure surfaces as this upload's error; a retry overwrites
	// the share idempotently.
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrRoundClosed
	}
	if !r.agg.Config().CompatibleReportVersion(cv) {
		r.mu.Unlock()
		return privacy.ErrIncompatibleConfig
	}
	if checkKS && ks != r.agg.Config().Params.Keystream {
		r.mu.Unlock()
		return privacy.ErrKeystreamMismatch
	}
	if !r.agg.HasReported(user) {
		r.mu.Unlock()
		return ErrAdjustNotReporter
	}
	if prev, dup := r.adjusts[user]; dup && !cellsEqual(prev, cells) {
		r.mu.Unlock()
		return ErrAdjustConflict
	}
	// An identical duplicate still appends and (re-)syncs: the retry may
	// be recovering from a Sync failure, and replay is last-wins.
	if err := b.store.AppendAdjust(c, id, user, cells); err != nil {
		r.mu.Unlock()
		return err
	}
	if len(r.adjusts) == 0 {
		// First share into this round: it has entered the adjustment
		// round.
		b.m.roundsAdjusted.Inc()
	}
	r.adjusts[user] = append([]uint64(nil), cells...)
	if r.adjCond != nil {
		r.adjCond.Broadcast() // wake deadline closes waiting on shares
	}
	r.mu.Unlock()
	if syncNow {
		if err := b.store.Sync(); err != nil {
			return err
		}
	}
	b.maybeSnapshot()
	return nil
}

// cellsEqual reports whether two cell vectors hold the same values.
func cellsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CloseRound unblinds the aggregate (applying any adjustment shares),
// extracts the per-ad user counts, and computes Users_th. The close is
// logged and synced before the round flips to closed, so a crash
// straddling the close either replays it (record durable) or leaves
// the round open and retryable (record lost) — never half-closed. With
// Config.RetainRounds set, a successful close also ages out closed
// rounds whose Users_th has now been served for the retention horizon.
// A close is a query about accumulated state: closing a round no
// reports have touched returns ErrUnknownRound instead of opening (and
// logging) an empty round that could only ever fail with ErrNoReports.
//
// With wait == 0 a round whose reporters still owe adjustment shares is
// refused at once (ErrAdjustIncomplete). wait > 0 makes it the deadline
// close: it first *seals* the round (reports are refused from here on,
// so the missing set is frozen and every reporter can compute its
// adjustment share against the same list), then waits up to wait for
// every reporter's share to land before finalizing. If the deadline
// expires with shares still outstanding it returns ErrAdjustIncomplete
// and leaves the round open (and sealed): stragglers can still upload
// and the close can be retried. This is how a round with
// permanently-lost users closes — the lost users simply stay in the
// missing set, and once the reporters that ARE alive have all adjusted
// for them, the round finalizes without them. A reporter that vanishes
// *between* its report and its share, by contrast, holds the round at
// ErrAdjustIncomplete: its pairwise terms are in the aggregate and
// nobody else can cancel them.
//
// With a full roster (nothing missing) no shares are owed and either
// form proceeds immediately. Sealing is in-memory: a crash recovers the
// round unsealed, and the retried deadline close re-seals it.
func (b *Backend) CloseRound(c uint32, id uint64, wait time.Duration) (usersTh float64, distinctAds int, err error) {
	if b.cfg.Replica {
		return 0, 0, ErrReadOnlyReplica
	}
	r, ok := b.lookupRound(c, id)
	if !ok {
		return 0, 0, ErrUnknownRound
	}
	r.mu.Lock()
	if wait > 0 && !r.closed {
		if !r.sealed {
			r.sealed = true
			b.m.roundsSealed.Inc()
		}
		awaitSharesLocked(r, wait)
	}
	closedNow := !r.closed
	if closedNow {
		if err := b.closeLocked(c, id, r); err != nil {
			r.mu.Unlock()
			return 0, 0, err
		}
	}
	usersTh, distinctAds = r.usersTh, r.distinct
	r.mu.Unlock()
	if closedNow {
		b.retireRounds()
	}
	return usersTh, distinctAds, nil
}

// awaitSharesLocked blocks until no adjustment share is owed, a
// concurrent close wins the race, or wait elapses — whichever is first;
// the caller re-examines the round afterwards. Caller holds r.mu
// (write), which is released while waiting.
func awaitSharesLocked(r *round, wait time.Duration) {
	if len(owedLocked(r)) == 0 {
		return
	}
	if r.adjCond == nil {
		r.adjCond = sync.NewCond(&r.mu)
	}
	// One timer per close call: it grabs the round lock and broadcasts,
	// so a wait with no more shares arriving still wakes up to observe
	// its expired deadline.
	cond, deadline := r.adjCond, time.Now().Add(wait)
	timer := time.AfterFunc(wait, func() {
		r.mu.Lock()
		cond.Broadcast()
		r.mu.Unlock()
	})
	defer timer.Stop()
	for !r.closed && len(owedLocked(r)) > 0 && time.Now().Before(deadline) {
		cond.Wait()
	}
}

// owedLocked lists the reporters whose second-round shares are still
// outstanding — empty when nothing is missing (no adjustment round is
// needed) or when no reports have landed at all (nothing to repair;
// the close will fail on ErrNoReports instead). Caller holds r.mu.
func owedLocked(r *round) []int {
	reported, missing := r.agg.Progress()
	if reported == 0 || len(missing) == 0 {
		return nil
	}
	miss := make(map[int]bool, len(missing))
	for _, m := range missing {
		miss[m] = true
	}
	var owed []int
	for u := 0; u < r.agg.Config().RosterSize; u++ {
		if miss[u] {
			continue
		}
		if _, ok := r.adjusts[u]; !ok {
			owed = append(owed, u)
		}
	}
	return owed
}

// closeLocked runs the close body under r.mu (write): finalize, log,
// sync, flip closed. The close record is durable before the flag flips,
// so a crash straddling the close either replays it or leaves the round
// open and retryable — never half-closed.
//
// A close with users missing requires EVERY reporter's adjustment share
// first: a partial share set subtracts a partial set of pairwise terms
// and would publish corrupted counts that look plausible. A deadline
// close has waited for the stragglers by now; either form refuses here.
func (b *Backend) closeLocked(c uint32, id uint64, r *round) error {
	if owed := owedLocked(r); len(owed) > 0 {
		reported, _ := r.agg.Progress()
		return fmt.Errorf("%w: %d of %d reporters (first: user %d)",
			ErrAdjustIncomplete, len(owed), reported, owed[0])
	}
	if err := b.finalizeLocked(r); err != nil {
		return err
	}
	logged := time.Now()
	if err := b.store.AppendClose(c, id); err != nil {
		return err
	}
	if err := b.store.Sync(); err != nil {
		return err
	}
	b.m.closeLogSync.Observe(time.Since(logged))
	r.closed = true
	b.m.roundsClosed.Inc()
	return nil
}

// retireRounds drops every closed round older than the RetainRounds-th
// newest closed round: its Users_th has been served for the configured
// horizon, so its memory (cells, counts, final sketch) and its slot in
// future snapshots are released, and getRound refuses to resurrect it.
// Open stragglers are never retired — they have not served anything
// yet. Retention is not logged — the WAL may still carry the rounds
// until compaction — because the same cutoff is re-derived at recovery
// (restore), so an aged-out round stays gone across restarts.
func (b *Backend) retireRounds() {
	// Pass 1: snapshot the round map under b.mu only. Checking a
	// round's closed flag takes its lock, and a round mid-close holds
	// its write lock across an fsync — blocking on that while holding
	// b.mu would stall every reporter's round lookup behind a disk
	// flush.
	b.mu.Lock()
	keys := make([]roundKey, 0, len(b.rounds))
	rounds := make([]*round, 0, len(b.rounds))
	for k, r := range b.rounds {
		keys = append(keys, k)
		rounds = append(rounds, r)
	}
	b.mu.Unlock()
	// Retention is per campaign: each campaign ages out its own closed
	// rounds against its own horizon (falling back to the deployment
	// default), so a slow-cadence campaign never loses rounds because a
	// fast one churned through its window.
	closedBy := make(map[uint32][]uint64)
	closedSet := make(map[roundKey]bool)
	for i, r := range rounds {
		r.mu.RLock()
		c := r.closed
		r.mu.RUnlock()
		if c {
			closedBy[keys[i].campaign] = append(closedBy[keys[i].campaign], keys[i].round)
			closedSet[keys[i]] = true
		}
	}
	cutoffs := make(map[uint32]uint64)
	b.mu.Lock()
	for c, rounds := range closedBy {
		if cut := retentionCutoff(rounds, b.retainFor(c)); cut > 0 {
			cutoffs[c] = cut
		}
	}
	if len(cutoffs) == 0 {
		b.mu.Unlock()
		return
	}
	// Pass 2: delete under the same b.mu hold. Rounds are only ever
	// created or deleted, never replaced, and closed is sticky — a
	// round observed closed in pass 1 is still the same closed round
	// now.
	for k := range b.rounds {
		if k.round < cutoffs[k.campaign] && closedSet[k] {
			delete(b.rounds, k)
		}
	}
	for c, cut := range cutoffs {
		if cut > b.retiredBelow[c] {
			b.retiredBelow[c] = cut
		}
	}
	b.mu.Unlock()
}

// finalizeLocked computes a round's close-time results — the unblinded
// final sketch, the per-ad count table, and Users_th — without marking
// it closed: clone the aggregate, subtract the adjustment shares, sweep
// the ID space once, derive the threshold. Shared by CloseRound, the
// recovery path and the replica's close-apply, which re-run it on a
// restored or replicated aggregate: the inputs are byte-identical to the
// original close, and every step reads them in index order, so the
// results are too. Each stage is timed into
// eyewnder_round_close_stage_seconds. Caller holds r.mu (write).
func (b *Backend) finalizeLocked(r *round) error {
	// Adjustments are applied to a clone of the aggregate
	// (FinalizeWithAdjustments), never to the live one: if the close
	// fails (reports still missing, say), a retry must not subtract the
	// same shares twice. With a full roster the shares are skipped
	// entirely — any stored ones were computed against a transient
	// missing view that later reports emptied, and subtracting terms
	// that already cancel pairwise would corrupt the aggregate.
	start := time.Now()
	var shares [][]uint64
	if _, missing := r.agg.Progress(); len(missing) > 0 {
		shares = make([][]uint64, 0, len(r.adjusts))
		for _, s := range r.adjusts {
			shares = append(shares, s)
		}
	}
	final, err := r.agg.FinalizeWithAdjustments(shares...)
	if err != nil {
		return err
	}
	r.final = final
	subtracted := time.Now()
	b.m.closeSubtract.Observe(subtracted.Sub(start))
	// The round's pinned params — not the deployment defaults — scope
	// the count extraction: each campaign queries its own ID space.
	r.counts, r.distinct = privacy.CountTable(final, r.agg.Config().Params)
	extracted := time.Now()
	b.m.closeExtract.Observe(extracted.Sub(subtracted))
	r.usersTh = detector.UsersThreshold(ascendingSample(r.counts, r.distinct), b.cfg.UsersEstimator)
	b.m.closeThreshold.Observe(time.Since(extracted))
	return nil
}

// ascendingSample renders the non-zero entries of a count table (there
// are distinct of them) as the Users_th estimator's sample in ascending
// order: float sums are order-dependent, and every estimator must see
// the same input on the primary, on a follower and after recovery for
// the published Users_th to be bit-identical on all three. A count is a
// number of users, so a counting sort over the small values covers every
// honest round at the cost of one sequential scan of the table; only the
// rest is compared and sorted.
func ascendingSample(table []uint64, distinct int) []float64 {
	var small [1 << 12]int
	var large []uint64
	for _, c := range table {
		if c < uint64(len(small)) {
			small[c]++
		} else {
			large = append(large, c)
		}
	}
	slices.Sort(large)
	sample := make([]float64, 0, distinct)
	for v, n := range small[1:] {
		for ; n > 0; n-- {
			sample = append(sample, float64(v+1))
		}
	}
	for _, c := range large {
		sample = append(sample, float64(c))
	}
	return sample
}

// Threshold returns a closed (campaign, round)'s Users_th (Figure 1,
// arrow 5).
func (b *Backend) Threshold(c uint32, id uint64) (float64, error) {
	r, ok := b.lookupRound(c, id)
	if !ok {
		return 0, ErrUnknownRound
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.closed {
		return 0, ErrRoundNotClosed
	}
	return r.usersTh, nil
}

// AuditAd answers a real-time audit: the estimated #Users for an ad ID in
// a closed (campaign, round).
func (b *Backend) AuditAd(c uint32, id uint64, adID uint64) (uint64, error) {
	r, ok := b.lookupRound(c, id)
	if !ok {
		return 0, ErrUnknownRound
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.closed {
		return 0, ErrRoundNotClosed
	}
	return privacy.QueryUsers(r.final, adID), nil
}

// UserCounts exposes a closed (campaign, round)'s per-ad-ID counts as a
// map holding the IDs with a non-zero count (used by the round_counts
// op, the evaluation harness, the churn oracle check and the Figure 2
// experiment). The round keeps a dense table; the map is built here, per
// call.
func (b *Backend) UserCounts(c uint32, id uint64) (map[uint64]uint64, error) {
	r, ok := b.lookupRound(c, id)
	if !ok {
		return nil, ErrUnknownRound
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if !r.closed {
		return nil, ErrRoundNotClosed
	}
	return privacy.CountMap(r.counts, r.distinct), nil
}

// Handler adapts the back-end to the wire protocol.
func (b *Backend) Handler() wire.Handler {
	return func(m *wire.Msg) (string, interface{}, error) {
		switch m.Type {
		case wire.TypeRegister:
			var req wire.RegisterReq
			if err := m.Decode(&req); err != nil {
				return "", nil, err
			}
			n, err := b.Register(req.User, req.PublicKey)
			if err != nil {
				return "", nil, err
			}
			return wire.TypeRegisterOK, wire.RegisterResp{RosterSize: n}, nil

		case wire.TypeRoster:
			keys, cv, rv := b.Roster()
			return wire.TypeRosterOK, wire.RosterResp{
				PublicKeys: keys, ConfigVersion: cv, RosterVersion: rv,
			}, nil

		case wire.TypeRoundStatus:
			var req wire.CloseRoundReq
			if err := m.Decode(&req); err != nil {
				return "", nil, err
			}
			p, err := b.RoundProgressOf(req.Campaign, req.Round)
			if err != nil {
				return "", nil, err
			}
			return wire.TypeRoundStatusOK, wire.RoundStatusResp{
				Campaign: req.Campaign, Round: req.Round,
				Reported: p.Reported, Missing: p.Missing,
				Closed: p.Closed, Sealed: p.Sealed, Adjusted: p.Adjusted,
			}, nil

		case wire.TypeSubmitAdjust:
			var req wire.SubmitAdjustReq
			if err := m.Decode(&req); err != nil {
				return "", nil, err
			}
			if err := b.SubmitAdjustment(req.Campaign, req.User, req.Round, req.ConfigVersion, req.Cells); err != nil {
				return "", nil, err
			}
			return wire.TypeSubmitAdjustOK, struct{}{}, nil

		case wire.TypeCloseRound:
			var req wire.CloseRoundReq
			if err := m.Decode(&req); err != nil {
				return "", nil, err
			}
			th, ads, err := b.CloseRound(req.Campaign, req.Round, time.Duration(req.AdjustWaitMS)*time.Millisecond)
			if err != nil {
				return "", nil, err
			}
			return wire.TypeCloseRoundOK, wire.CloseRoundResp{
				Campaign: req.Campaign, Round: req.Round, UsersTh: th, DistinctAds: ads,
			}, nil

		case wire.TypeRoundCounts:
			var req wire.RoundCountsReq
			if err := m.Decode(&req); err != nil {
				return "", nil, err
			}
			counts, err := b.UserCounts(req.Campaign, req.Round)
			if err != nil {
				return "", nil, err
			}
			return wire.TypeRoundCountsOK, wire.RoundCountsResp{
				Campaign: req.Campaign, Round: req.Round, Counts: counts,
			}, nil

		case wire.TypeThreshold:
			var req wire.ThresholdReq
			if err := m.Decode(&req); err != nil {
				return "", nil, err
			}
			th, err := b.Threshold(req.Campaign, req.Round)
			if err != nil {
				return "", nil, err
			}
			return wire.TypeThresholdOK, wire.ThresholdResp{Campaign: req.Campaign, Round: req.Round, UsersTh: th}, nil

		case wire.TypeAuditAd:
			var req wire.AuditAdReq
			if err := m.Decode(&req); err != nil {
				return "", nil, err
			}
			users, err := b.AuditAd(req.Campaign, req.Round, req.AdID)
			if err != nil {
				return "", nil, err
			}
			return wire.TypeAuditAdOK, wire.AuditAdResp{Users: users}, nil

		case wire.TypeCampaignAdd:
			var req wire.CampaignAddReq
			if err := m.Decode(&req); err != nil {
				return "", nil, err
			}
			c := campaign.Campaign{
				ID: req.ID, Name: req.Name,
				Epsilon: req.Epsilon, Delta: req.Delta, IDSpace: req.IDSpace,
				Keystream:    blind.Keystream(req.Keystream),
				KeystreamSet: req.KeystreamSet,
				RetainRounds: req.RetainRounds, CadenceSec: req.CadenceSec,
			}
			if err := b.AddCampaign(c); err != nil {
				return "", nil, err
			}
			return wire.TypeCampaignAddOK, wire.CampaignAddResp{
				ID: req.ID, Campaigns: len(b.Campaigns()),
			}, nil

		case wire.TypeCampaigns:
			list := b.Campaigns()
			out := make([]wire.CampaignInfo, len(list))
			for i, c := range list {
				out[i] = wire.CampaignInfo{
					ID: c.ID, Name: c.Name,
					Epsilon: c.Epsilon, Delta: c.Delta, IDSpace: c.IDSpace,
					Keystream:    byte(c.Keystream),
					KeystreamSet: c.KeystreamSet,
					RetainRounds: c.RetainRounds, CadenceSec: c.CadenceSec,
				}
			}
			return wire.TypeCampaignsOK, wire.CampaignsResp{Campaigns: out}, nil
		}
		return "", nil, fmt.Errorf("backend: unknown message %q", m.Type)
	}
}

// Serve starts the back-end on a TCP address, accepting both JSON
// messages and streamed report frames (the back-end is its own
// wire.ReportSink). Connections that negotiate batched acknowledgements
// get one binary ack per Config.AckBatch frames and pipelined
// decode-while-fold ingestion; Hello frames are answered with the
// back-end's current negotiated config, making the server — not any
// operator flag set — the source of truth for protocol state.
func (b *Backend) Serve(addr string) (*wire.Server, error) {
	return wire.ServeWithSinkOpts(addr, b.Handler(), b, wire.StreamOpts{
		AckBatch:  b.cfg.AckBatch,
		Config:    b.wireConfig,
		Campaigns: b.Campaigns,
		Metrics:   b.cfg.Metrics,
	})
}

// OPRFHandler adapts an oprf.Server to the wire protocol.
func OPRFHandler(srv *oprf.Server) wire.Handler {
	return func(m *wire.Msg) (string, interface{}, error) {
		switch m.Type {
		case wire.TypeOPRFPublicKey:
			pub := srv.PublicKey()
			return wire.TypeOPRFPublicKeyOK, wire.OPRFPublicKeyResp{N: pub.N.Bytes(), E: pub.E}, nil
		case wire.TypeOPRFEvaluate:
			var req wire.OPRFEvaluateReq
			if err := m.Decode(&req); err != nil {
				return "", nil, err
			}
			y, err := srv.Evaluate(new(big.Int).SetBytes(req.Blinded))
			if err != nil {
				return "", nil, err
			}
			return wire.TypeOPRFEvaluateOK, wire.OPRFEvaluateResp{Signed: y.Bytes()}, nil
		}
		return "", nil, fmt.Errorf("oprf-server: unknown message %q", m.Type)
	}
}

// ServeOPRF starts the oprf-server on a TCP address.
func ServeOPRF(addr string, srv *oprf.Server) (*wire.Server, error) {
	return wire.Serve(addr, OPRFHandler(srv))
}
