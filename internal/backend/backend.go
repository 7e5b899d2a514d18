// Package backend implements eyeWnder's back-end server (Figure 1): it
// hosts the bulletin board of blinding public keys, collects blinded CMS
// reports, runs the missing-client adjustment round, unblinds the weekly
// aggregate, computes the global Users_th threshold, and answers
// real-time ad audits. It also exposes the oprf-server as a separate
// network endpoint with its own key, preserving the paper's trust split:
// the back-end never holds the OPRF secret.
package backend

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eyewnder/internal/blind"
	"eyewnder/internal/campaign"
	"eyewnder/internal/detector"
	"eyewnder/internal/obs"
	"eyewnder/internal/oprf"
	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
	"eyewnder/internal/store"
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
	// AckBatch sets the streamed-report ack batch k for connections that
	// negotiate batched acknowledgements (wire.StreamOpts.AckBatch): at
	// most one ack request per k frames, coalesced while an ack is in
	// flight. 0 (the default) lets the server adapt k per connection from
	// the observed in-flight depth; 1 requests an ack for every frame.
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
	cells int             // sketch cell count implied by Params, for logged-round validation
	m     *backendMetrics // pre-registered instrument handles, always non-nil
	// refinalize is the time (ns) the WAL applier spent re-finalizing
	// logged closes (eyewnder_restore_refinalize_seconds) — the subtract
	// stage only; the results derive on first read: at startup, and on a
	// replica for every close the primary's stream carries.
	refinalize atomic.Int64

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
	// Users_th served for the full horizon and were dropped. openRound
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

// New constructs a back-end. With a durable Config.Store, the store's
// log — snapshot base plus every later WAL event — is replayed through
// the WAL applier (restore) before the back-end accepts traffic:
// bulletin-board registrations, version counters, campaigns and full
// round states (aggregate cells, reported bitmaps, adjustment shares,
// closed flags), so a restart resumes every round exactly where the
// crash left it. A log from a different deployment (geometry, roster
// size or blinding suite) refuses to start rather than corrupt rounds.
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
	// Versions start at 1 (a zero config version is refused like any
	// stale one); the replay raises the counters to what the log holds.
	b.configVersion, b.rosterVersion = 1, 1
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
			"Time this back-end spent re-finalizing closed rounds from the log, subtract stage only (at startup, and on a replica for every replicated close).",
			func() float64 { return time.Duration(b.refinalize.Load()).Seconds() })
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
	keys, rounds := b.roundList()
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
	if !bytes.Equal(b.roster[user], publicKey) {
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
// or an adjustment share (FrameKindAdjust, see submitAdjustment) enters
// the back-end — over TCP and in process alike: a report frame's cell
// vector folds straight into the round aggregate, with no intermediate
// []byte or CMS ever materialized. The frame's keystream suite byte is
// enforced against the round's: a report blinded under a different
// suite would not cancel and would silently corrupt the aggregate.
//
// Reporters hold only the round's read lock: the aggregator's own
// bookkeeping lock and striped cell merge admit concurrent submissions
// into the same round, while the write lock (CloseRound) excludes them.
// A frame for a round no report has opened yet opens it (openRound) —
// only once the frame passes the admission rule, so a refused frame
// leaves no trace. The sequence is then reserve → log → fold: the
// aggregator first validates and reserves the user's slot (so the WAL
// only ever records reports the aggregate will absorb, and records them
// in acceptance order), then the frame is logged while its cells are
// still the caller's buffer, then the cells merge.
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
			blind.Keystream(f.Keystream), f.Cells)
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
	r, ok := b.lookupRound(f.Campaign, f.Round)
	if !ok {
		var err error
		if r, err = b.openRound(f); err != nil {
			return err
		}
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
// lock. A reported count and a missing list read in two calls can each
// be correct yet disagree when a report folds in between them — the
// torn view a status poll racing submissions would publish.
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
	keys, rounds := b.roundList()
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

// submitAdjustment records a reporter's second-round share, streamed
// as a wire.AdjustFrame into ConsumeReport. Invalid shares are rejected
// here, at upload time, rather than poisoning every later CloseRound
// attempt: the round must exist, the cell count must match the round's
// geometry, the round must be open, the share must be blinded under the
// round's keystream suite, and the submitter must be one of the round's
// reporters — a share is the sum of the submitter's pairwise blinding
// terms toward the missing users, meaningless without the submitter's
// own report in the aggregate. Re-uploading an identical share is an
// idempotent retry; a *different* share for the same round is refused
// (ErrAdjustConflict) — the client computed against two different
// missing sets and the server cannot tell which one is right.
//
// cv is the negotiated config version the share was derived under; any
// version but the round's own is rejected (the share's pairwise terms
// come from another roster and could not cancel), exactly as stale
// reports are.
//
// Like a report, the share is logged but not synced here: the ack's
// SyncReports covers its WAL append, so batched adjustment uploads
// amortize fsyncs exactly like reports. The wrapper owns the
// share/failure accounting so every return path is counted exactly once.
func (b *Backend) submitAdjustment(c uint32, user int, id uint64, cv uint32, ks blind.Keystream, cells []uint64) error {
	err := b.applyAdjustment(c, user, id, cv, ks, cells)
	if err != nil {
		b.m.adjustReason(err).Inc()
	} else {
		b.m.adjShares.Inc()
	}
	return err
}

// applyAdjustment is submitAdjustment's body.
func (b *Backend) applyAdjustment(c uint32, user int, id uint64, cv uint32, ks blind.Keystream, cells []uint64) error {
	if b.cfg.Replica {
		return ErrReadOnlyReplica
	}
	if user < 0 || user >= b.cfg.Users {
		return ErrBadUser
	}
	// Unlike reports, an adjustment never opens a round: a share can
	// only repair a round that reports have already touched.
	r, ok := b.lookupRound(c, id)
	if !ok {
		return ErrUnknownRound
	}
	// The write lock covers only the validation, the append (which must
	// order against a concurrent close), and the map update; the ack's
	// fsync barrier runs after it is released, so the round's reporters
	// (read-lock holders) never stall behind an adjustment's disk flush
	// and concurrent adjustment uploads group-commit onto one fsync. A
	// Sync failure surfaces in place of the ack; a retry overwrites the
	// share idempotently.
	r.mu.Lock()
	if d, w, _ := r.agg.Layout(); len(cells) != d*w {
		r.mu.Unlock()
		return fmt.Errorf("%w: adjustment share has %d cells, want %d",
			sketch.ErrDimensionMismatch, len(cells), d*w)
	}
	if r.closed {
		r.mu.Unlock()
		return ErrRoundClosed
	}
	if cv != r.agg.Config().Version {
		r.mu.Unlock()
		return privacy.ErrIncompatibleConfig
	}
	if ks != r.agg.Config().Params.Keystream {
		r.mu.Unlock()
		return privacy.ErrKeystreamMismatch
	}
	if !r.agg.HasReported(user) {
		r.mu.Unlock()
		return ErrAdjustNotReporter
	}
	if prev, dup := r.adjusts[user]; dup && !slices.Equal(prev, cells) {
		r.mu.Unlock()
		return ErrAdjustConflict
	}
	// An identical duplicate still appends (and its ack re-syncs): the
	// retry may be recovering from a Sync failure, and replay is
	// last-wins.
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
	b.maybeSnapshot()
	return nil
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
		}
		return "", nil, fmt.Errorf("backend: unknown message %q", m.Type)
	}
}

// Serve starts the back-end on a TCP address, accepting both JSON
// messages and streamed report frames (the back-end is its own
// wire.ReportSink). Connections that negotiate batched acknowledgements
// get cumulative binary acks (cadence Config.AckBatch) and pipelined
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
