package backend

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"eyewnder/internal/blind"
	"eyewnder/internal/detector"
	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
	"eyewnder/internal/wire"
)

// A round's life, in one place. A round comes into existence one way
// per source — the live open of its first admitted report (openRound), a
// logged open and a snapshot round (the WAL applier) — and all three
// install through installRoundLocked. After that it changes phase at
// most three times, each written only here: sealed (a deadline close
// freezes the missing set), closed (closeLocked live, refinalizeLocked
// from the log) and retired (retireRounds, once its Users_th has been
// served for the retention horizon). Closing unblinds the final sketch
// (finalizeLocked), the part that can fail; the count table and Users_th
// are derived from it once (results) — by the live close before it
// answers, and by the first read of a round the log closed, so a restart
// or a replica never sweeps a round nobody reads. Closed is sticky, and
// a closed round's results never change, so its readers (closedRound)
// need the round lock only to observe the flag.

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
	// derive guards the results derived from final, written once by
	// results: counts is the count table — counts[id] is the final
	// sketch's estimate for ad ID id, over the round's whole ID space —
	// distinct the number of non-zero entries in it, and usersTh the
	// threshold over them.
	derive   sync.Once
	counts   []uint64
	distinct int
	usersTh  float64
}

// lookupRound returns an existing round without creating one.
func (b *Backend) lookupRound(c uint32, id uint64) (*round, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	r, ok := b.rounds[roundKey{c, id}]
	return r, ok
}

// openRound opens the round a report frame names but no live round
// holds — the only way a primary creates a round. Under b.mu it
// re-checks the map (a concurrent first report may have opened it),
// refuses a retired round and an unprovisioned campaign, pins the
// config current now — later version bumps open *future* rounds under
// the new config, while this one keeps accepting exactly the cohort
// that negotiated it — and runs the frame through the admission rule
// (privacy.RoundConfig.CheckReport) against that config before anything
// is allocated or logged. A refused frame leaves no round, no open
// record and no opened count behind.
//
// The open record is logged before the round becomes visible, so the
// WAL always carries it ahead of the round's reports. It is not fsynced
// here: the barrier of the report's ack covers it, and an open that no
// acked event followed is re-opened by the next admitted report after a
// crash.
func (b *Backend) openRound(f *wire.ReportFrame) (*round, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	k := roundKey{f.Campaign, f.Round}
	if r, ok := b.rounds[k]; ok {
		return r, nil
	}
	if f.Round < b.retiredBelow[f.Campaign] {
		// The round was retired: its Users_th has already been published
		// and served. Re-creating it would hand out a fresh reported
		// bitmap (breaking the duplicate invariant for late or replayed
		// reports) and eventually publish a second, different threshold
		// for the same round ID.
		return nil, ErrUnknownRound
	}
	rcfg := b.currentConfigLocked()
	if f.Campaign != 0 {
		cs, ok := b.campaigns[f.Campaign]
		if !ok {
			return nil, ErrUnknownCampaign
		}
		rcfg.Params = cs.params
	}
	// A round NewAggregator opens has hash-seed base 0.
	if err := rcfg.CheckReport(0, f.User, f.D, f.W, f.Seed, blind.Keystream(f.Keystream), f.ConfigVersion, len(f.Cells)); err != nil {
		return nil, err
	}
	agg, err := privacy.NewAggregator(rcfg, f.Round)
	if err != nil {
		return nil, err
	}
	d, w, seed := agg.Layout()
	if err := b.store.AppendOpen(f.Campaign, f.Round, b.cfg.Users, d, w, seed, byte(rcfg.Params.Keystream),
		rcfg.Version, rcfg.RosterVersion); err != nil {
		return nil, err
	}
	b.m.roundsOpened.Inc()
	return b.installRoundLocked(k, agg, nil), nil
}

// installRoundLocked makes agg the served state of round k, with the
// stored adjustment shares adjusts (nil for none): the one constructor
// behind the live open (openRound), a logged open and a snapshot round
// (the WAL applier). Caller holds b.mu.
func (b *Backend) installRoundLocked(k roundKey, agg *privacy.Aggregator, adjusts map[int][]uint64) *round {
	if adjusts == nil {
		adjusts = make(map[int][]uint64)
	}
	r := &round{agg: agg, adjusts: adjusts}
	b.rounds[k] = r
	return r
}

// roundList copies the round map under b.mu, so the caller can visit the
// rounds one at a time under their own locks without holding b.mu: a
// round mid-close holds its write lock across an fsync, and waiting on
// it under b.mu would stall every reporter's round lookup behind a disk
// flush.
func (b *Backend) roundList() ([]roundKey, []*round) {
	b.mu.Lock()
	defer b.mu.Unlock()
	keys := make([]roundKey, 0, len(b.rounds))
	rounds := make([]*round, 0, len(b.rounds))
	for k, r := range b.rounds {
		keys = append(keys, k)
		rounds = append(rounds, r)
	}
	return keys, rounds
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
	r.mu.Unlock()
	_, distinctAds, usersTh = b.results(r)
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
// sync, flip closed, derive the results. The close record is durable
// before the flag flips, so a crash straddling the close either replays
// it or leaves the round open and retryable — never half-closed. Only a
// logged close derives: a close that fails to log leaves the results
// underived, so its retry publishes them from its own final sketch.
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
	b.results(r)
	return nil
}

// refinalizeLocked re-runs a logged close's finalize on the rebuilt
// aggregate — its inputs are byte-identical to the original close's, so
// the final sketch is too — times it into refinalize, and marks the
// round closed. The results are left to the round's first read
// (results). Caller holds r.mu (write).
func (b *Backend) refinalizeLocked(r *round) error {
	start := time.Now()
	if err := b.finalizeLocked(r); err != nil {
		return err
	}
	b.refinalize.Add(int64(time.Since(start)))
	r.closed = true
	return nil
}

// finalizeLocked unblinds a round's final sketch without marking it
// closed: clone the aggregate and subtract the adjustment shares. Shared
// by CloseRound and the WAL applier's close (restart and replica), which
// re-runs it on a restored or replicated aggregate: the inputs are
// byte-identical to the original close, so the final sketch is too. It
// is the part of a close that can fail, so a log whose close cannot
// finalize is refused as it is applied. Timed into
// eyewnder_round_close_stage_seconds{stage="subtract"}. Caller holds
// r.mu (write).
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
	b.m.closeSubtract.Observe(time.Since(start))
	return nil
}

// results returns a closed round's count table, its number of non-zero
// entries and Users_th, deriving them from the final sketch on the first
// call (deriveResults); every later call, on any goroutine, returns the
// same values. The derivation reads only final and the round's pinned
// params, which are byte-identical on the primary, a follower and a
// recovered node, so all three publish the same numbers whichever read
// comes first. Callers have observed r.closed.
func (b *Backend) results(r *round) (counts []uint64, distinct int, usersTh float64) {
	r.derive.Do(func() { b.deriveResults(r) })
	return r.counts, r.distinct, r.usersTh
}

// deriveResults sweeps the final sketch over the round's ID space once
// and derives the threshold from the table, each stage timed into
// eyewnder_round_close_stage_seconds (extract, threshold). Every step
// reads its input in index order, so the results are a pure function of
// the final sketch.
func (b *Backend) deriveResults(r *round) {
	start := time.Now()
	// The round's pinned params — not the deployment defaults — scope
	// the count extraction: each campaign queries its own ID space.
	r.counts, r.distinct = privacy.CountTable(r.final, r.agg.Config().Params)
	extracted := time.Now()
	b.m.closeExtract.Observe(extracted.Sub(start))
	r.usersTh = detector.UsersThreshold(ascendingSample(r.counts, r.distinct), b.cfg.UsersEstimator)
	b.m.closeThreshold.Observe(time.Since(extracted))
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

// retireRounds drops every closed round older than the retention
// cutoff (retireBelowLocked): its Users_th has been served for the
// configured horizon, so its memory (cells, counts, final sketch) and
// its slot in future snapshots are released, and openRound refuses to
// resurrect it. Open stragglers are never retired — they have not served
// anything yet. Retention is not logged — the WAL may still carry the
// rounds until compaction — because the same cutoff is re-derived at
// recovery (loadBase, and the applier's closes), so an aged-out round
// stays gone across restarts.
func (b *Backend) retireRounds() {
	keys, rounds := b.roundList()
	closedBy := make(map[uint32][]uint64)
	var closed []roundKey
	for i, r := range rounds {
		r.mu.RLock()
		c := r.closed
		r.mu.RUnlock()
		if c {
			closedBy[keys[i].campaign] = append(closedBy[keys[i].campaign], keys[i].round)
			closed = append(closed, keys[i])
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	cutoffs := b.retireBelowLocked(closedBy)
	// Closed is sticky and a round below its campaign's cutoff is never
	// re-created, so a round observed closed above is still that closed
	// round now (or already gone).
	for _, k := range closed {
		if k.round < cutoffs[k.campaign] {
			delete(b.rounds, k)
		}
	}
}

// retireBelowLocked derives each campaign's retention cutoff from its
// closed round IDs and raises retiredBelow to it, returning the cutoffs
// (absent: nothing retires). Retention is per campaign — each campaign
// ages out its own closed rounds against its own horizon (its resolved
// RetainRounds, else the deployment's), so a slow-cadence campaign never
// loses rounds because a fast one churned through its window. With
// retain > 0 and more than retain closed rounds, the cutoff is the
// retain-th newest closed round's ID: every closed round older than
// that has had its Users_th served while retain newer closed rounds were
// published. Counting closed rounds (rather than subtracting retain from
// an ID) keeps the promise independent of the round numbering scheme:
// sparse or date-keyed round IDs retire on the same schedule as
// consecutive ones. The slices are sorted in place. Caller holds b.mu.
func (b *Backend) retireBelowLocked(closedBy map[uint32][]uint64) map[uint32]uint64 {
	cutoffs := make(map[uint32]uint64)
	for c, ids := range closedBy {
		retain := b.cfg.RetainRounds
		if cs, ok := b.campaigns[c]; ok {
			retain = cs.retain
		}
		if retain <= 0 || len(ids) <= retain {
			continue
		}
		slices.Sort(ids)
		cut := ids[len(ids)-retain]
		cutoffs[c] = cut
		b.retiredBelow[c] = max(b.retiredBelow[c], cut)
	}
	return cutoffs
}

// closedRound returns a closed round for the closed readers. Its final
// sketch was written before the flag flipped under the write lock and
// never changes afterwards, so the caller reads it — and the results
// derived from it, through results — without the round lock.
func (b *Backend) closedRound(c uint32, id uint64) (*round, error) {
	r, ok := b.lookupRound(c, id)
	if !ok {
		return nil, ErrUnknownRound
	}
	r.mu.RLock()
	closed := r.closed
	r.mu.RUnlock()
	if !closed {
		return nil, ErrRoundNotClosed
	}
	return r, nil
}

// Threshold returns a closed (campaign, round)'s Users_th (Figure 1,
// arrow 5).
func (b *Backend) Threshold(c uint32, id uint64) (float64, error) {
	r, err := b.closedRound(c, id)
	if err != nil {
		return 0, err
	}
	_, _, usersTh := b.results(r)
	return usersTh, nil
}

// AuditAd answers a real-time audit: the estimated #Users for an ad ID in
// a closed (campaign, round).
func (b *Backend) AuditAd(c uint32, id uint64, adID uint64) (uint64, error) {
	r, err := b.closedRound(c, id)
	if err != nil {
		return 0, err
	}
	return privacy.QueryUsers(r.final, adID), nil
}

// UserCounts exposes a closed (campaign, round)'s per-ad-ID counts as a
// map holding the IDs with a non-zero count (used by the round_counts
// op, the evaluation harness, the churn oracle check and the Figure 2
// experiment). The round keeps a dense table; the map is built here, per
// call.
func (b *Backend) UserCounts(c uint32, id uint64) (map[uint64]uint64, error) {
	r, err := b.closedRound(c, id)
	if err != nil {
		return nil, err
	}
	counts, distinct, _ := b.results(r)
	return privacy.CountMap(counts, distinct), nil
}
