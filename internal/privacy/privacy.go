// Package privacy composes the three cryptographic building blocks of
// Section 6 — the RSA OPRF (package oprf), the count-min sketch (package
// sketch), and additive shares of zero (package blind) — into eyeWnder's
// complete privacy-preserving distributed-counting protocol:
//
//  1. For each newly seen ad URL the client engages in an OPRF exchange
//     with the oprf-server and obtains an ad ID in [0, IDSpace). Without
//     the oprf key nobody can map an ID back to a URL.
//  2. The client encodes the *set* of ad IDs seen during the reporting
//     round into a CMS, blinds every cell with its share of zero, and
//     sends the blinded sketch to the back-end.
//  3. The back-end sums all blinded sketches cell-wise; the blindings
//     cancel and the aggregate CMS encodes the multiset union. Because
//     each client inserted each distinct ad at most once, querying the
//     aggregate for ad ID y estimates #Users(y) — the global counter the
//     count-based detector needs.
//  4. If some clients fail to report, the back-end publishes the missing
//     list and reporters answer with adjustment shares that restore
//     cancellation (two extra messages, as in the paper).
//
// The package also accounts for protocol overhead (report bytes, bulletin
// traffic) so the Section 7.1 experiments can be regenerated.
package privacy

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"eyewnder/internal/blind"
	"eyewnder/internal/group"
	"eyewnder/internal/oprf"
	"eyewnder/internal/sketch"
	"eyewnder/internal/vec"
)

// Errors returned by the package.
var (
	ErrRoundMismatch     = errors.New("privacy: report for a different round")
	ErrDuplicate         = errors.New("privacy: duplicate report from user")
	ErrNoReports         = errors.New("privacy: no reports to aggregate")
	ErrNotFinalizable    = errors.New("privacy: missing adjustments not yet supplied")
	ErrKeystreamMismatch = errors.New("privacy: report blinded under a different keystream suite")
	// ErrIncompatibleConfig rejects a report (or a negotiated handshake)
	// whose round-config version differs from the round's. A stale
	// version means the reporter derived its blinding from an outdated
	// roster or protocol state; folding it in would silently break
	// blinding cancellation, so it is refused the way suite mismatches
	// are.
	ErrIncompatibleConfig = errors.New("privacy: report under an incompatible round-config version")
)

// Params fixes the protocol geometry shared by all participants.
type Params struct {
	// Epsilon and Delta size the CMS (w = ⌈e/ε⌉, d = ⌈ln(1/δ)⌉).
	Epsilon, Delta float64
	// IDSpace is the (over)estimated size of the global ad set |A|. Ad
	// IDs are OPRF outputs reduced into [0, IDSpace).
	IDSpace uint64
	// Suite is the DH group for blinding-key agreement.
	Suite group.Suite
	// Keystream selects how pairwise keys expand into blinding factors
	// (blind.KeystreamHMACSHA256 or blind.KeystreamAESCTR). It is
	// protocol state like the sketch geometry: every participant must
	// use the same suite, reports carry the byte, and the aggregator
	// rejects mismatches. The zero value is the original HMAC expansion.
	Keystream blind.Keystream
}

// DefaultParams mirrors the paper's configuration: ε = δ = 0.001 and a
// 100k ad-ID space, P-256 blinding keys.
func DefaultParams() Params {
	return Params{Epsilon: 0.001, Delta: 0.001, IDSpace: 100000, Suite: group.P256()}
}

// RoundConfig is the negotiated, versioned protocol state every roster
// member must agree on for aggregation to stay correct: the sketch
// geometry and blinding suite (Params), the roster the blindings cancel
// over (RosterVersion, RosterSize), and the config Version that names
// this exact combination. The server is the single source of truth — it
// advertises the current config in the wire-layer Welcome handshake and
// bumps Version whenever any component changes (in particular whenever a
// registration changes the roster) — and every report carries the
// version it was built under, so the aggregator can reject a stale
// reporter (ErrIncompatibleConfig) instead of silently corrupting the
// round.
//
// A RoundConfig is an immutable value: rounds pin the config they were
// opened under and never observe later bumps.
type RoundConfig struct {
	// Version is the config version. A report folds into a round only
	// when it was built under exactly the round's version.
	Version uint32
	// RosterVersion counts bulletin-board changes. Two reporters whose
	// roster versions differ derived different pairwise blinding sets;
	// their reports must never fold into the same round.
	RosterVersion uint32
	// RosterSize is the enrolled-user count (0 = unknown, client side
	// only — aggregators require it).
	RosterSize int
	// Params is the protocol geometry the config freezes.
	Params Params
}

// NewSketch allocates a CMS with the params' geometry.
func (p Params) NewSketch() (*sketch.CMS, error) {
	return sketch.New(p.Epsilon, p.Delta)
}

// AdID reduces a raw OPRF output into the ad-ID space.
func (p Params) AdID(oprfOutput []byte) uint64 {
	if len(oprfOutput) < 8 {
		panic("privacy: OPRF output too short")
	}
	return binary.LittleEndian.Uint64(oprfOutput[:8]) % p.IDSpace
}

// idBytes is the canonical CMS key encoding of an ad ID.
func idBytes(id uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], id)
	return b[:]
}

// Evaluator is the client's view of the oprf-server: it answers blinded
// requests. *oprf.Server satisfies it directly for in-process use; the
// wire layer provides a TCP-backed implementation.
type Evaluator interface {
	Evaluate(blinded *big.Int) (*big.Int, error)
}

// Client is one user's protocol endpoint.
type Client struct {
	cfg     RoundConfig
	party   *blind.Party
	oprfCli *oprf.Client
	eval    Evaluator
	// campaign scopes the client's reports to one counting campaign; 0
	// (the zero value) is the deployment's implicit legacy campaign.
	campaign uint32

	idCache map[string]uint64 // ad URL -> ad ID, computed once per unique ad
	seen    map[uint64]bool   // distinct ad IDs observed in the open round
	// OPRFExchanges counts round trips to the oprf-server, for overhead
	// accounting (the mapping is done once per unique ad, Section 7.1).
	OPRFExchanges int
}

// NewClient builds a protocol client for the user at the given roster
// position, under the given (typically server-negotiated) round config.
// Reports it produces carry cfg.Version, so a stale client is rejected
// by the aggregator instead of corrupting the round. oprfPub is the
// oprf-server's public key; eval performs the blinded evaluations.
func NewClient(cfg RoundConfig, party *blind.Party, oprfPub oprf.PublicKey, eval Evaluator) *Client {
	return &Client{
		cfg:     cfg,
		party:   party,
		oprfCli: oprf.NewClient(oprfPub, nil),
		eval:    eval,
		idCache: make(map[string]uint64),
		seen:    make(map[uint64]bool),
	}
}

// ForCampaign returns a client view scoped to one counting campaign:
// its reports carry the campaign ID, its sketches use the campaign's
// geometry and ID space, and its blinding expands the campaign-derived
// pairwise keys under the campaign's keystream suite — so concurrent
// campaigns blind with independent pads over the same roster. params
// must be the campaign's resolved params (campaign.Params over the
// deployment base). The view keeps its own observation state (ad IDs
// depend on the campaign's ID space) but shares the roster-derived
// party material, so N campaigns cost one DH exchange, not N.
func (c *Client) ForCampaign(id uint32, params Params) *Client {
	cfg := c.cfg
	cfg.Params = params
	return &Client{
		cfg:      cfg,
		campaign: id,
		party:    c.party.ForCampaignKeystream(id, params.Keystream),
		oprfCli:  c.oprfCli,
		eval:     c.eval,
		idCache:  make(map[string]uint64),
		seen:     make(map[uint64]bool),
	}
}

// ObserveAd records that the user saw the ad with the given URL during the
// current round, resolving the ad ID through the OPRF on first encounter.
// Repeat observations of the same ad are deduplicated: the protocol counts
// users per ad, not impressions.
func (c *Client) ObserveAd(url string) (adID uint64, err error) {
	id, ok := c.idCache[url]
	if !ok {
		req, err := c.oprfCli.Blind([]byte(url))
		if err != nil {
			return 0, fmt.Errorf("privacy: blinding %q: %w", url, err)
		}
		resp, err := c.eval.Evaluate(req.Blinded)
		if err != nil {
			return 0, fmt.Errorf("privacy: oprf evaluation: %w", err)
		}
		out, err := c.oprfCli.Finalize(req, resp)
		if err != nil {
			return 0, fmt.Errorf("privacy: oprf finalize: %w", err)
		}
		c.OPRFExchanges++
		id = c.cfg.Params.AdID(out)
		c.idCache[url] = id
	}
	c.seen[id] = true
	return id, nil
}

// SeenCount reports how many distinct ads the client has recorded in the
// open round.
func (c *Client) SeenCount() int { return len(c.seen) }

// Rejoined returns the client re-keyed to a changed roster: cfg and
// party replace the old negotiated state, while everything the user has
// accumulated — the URL→ID cache, the OPRF exchange count and the open
// round's observation set — carries over, so a report rebuilt after the
// re-join still holds the round's ads. cfg must keep the client's
// Params (ad IDs depend on the ID space); the receiver must not be used
// afterwards.
func (c *Client) Rejoined(cfg RoundConfig, party *blind.Party) *Client {
	n := *c
	n.cfg, n.party = cfg, party
	return &n
}

// Report encodes the round's distinct ad IDs in a CMS, blinds it, and
// returns the report. The per-round observation set is then cleared, ready
// for the next weekly round.
func (c *Client) Report(round uint64) (*Report, error) {
	rep, err := c.BuildReport(round)
	if err == nil {
		c.EndRound()
	}
	return rep, err
}

// EndRound clears the per-round observation set.
func (c *Client) EndRound() { c.seen = make(map[uint64]bool) }

// BuildReport is Report without the clear: the observation set stays
// until EndRound, so a report the back-end refuses (a stale config
// version, say) can be rebuilt from the same observations.
func (c *Client) BuildReport(round uint64) (*Report, error) {
	cms, err := c.cfg.Params.NewSketch()
	if err != nil {
		return nil, err
	}
	var key [8]byte
	for id := range c.seen {
		binary.LittleEndian.PutUint64(key[:], id)
		cms.Update(key[:])
	}
	cells := cms.FlatCells()
	if err := blind.ApplyBlinding(cells, c.party.Blinding(round, len(cells))); err != nil {
		return nil, err
	}
	return &Report{
		User:          c.party.Index(),
		Campaign:      c.campaign,
		Round:         round,
		Sketch:        cms,
		Keystream:     c.party.Keystream(),
		ConfigVersion: c.cfg.Version,
	}, nil
}

// Adjust produces the client's second-round adjustment share for the given
// missing users.
func (c *Client) Adjust(round uint64, cells int, missing []int) ([]uint64, error) {
	return c.party.Adjustment(round, cells, blind.MissingSet(missing))
}

// Report is one user's blinded sketch for a round. Keystream names the
// blinding suite the cells were expanded under (zero = HMAC-SHA256, the
// original): the aggregator rejects reports whose suite differs from the
// round's, because their pairwise terms would not cancel and would
// silently corrupt the aggregate for everyone. ConfigVersion names the
// negotiated round config the report was built under; the aggregator
// rejects a report built under any version but the round's the same
// way.
type Report struct {
	User          int
	Round         uint64
	Sketch        *sketch.CMS
	Keystream     blind.Keystream
	ConfigVersion uint32
	// Campaign is the counting campaign the report folds into. 0 — the
	// zero value — is the deployment's implicit legacy campaign, so
	// pre-campaign callers need not set it.
	Campaign uint32
}

// SizeBytes returns the wire size of the report payload assuming the given
// cell width in bytes (the paper assumes 4).
func (r *Report) SizeBytes(cellBytes int) int { return r.Sketch.SizeBytes(cellBytes) }

// Aggregator is the back-end's side of the protocol for a single round.
//
// Add and AddCells are safe for any number of concurrent callers: the
// duplicate/bookkeeping state lives under a short mutex, while the cell
// merge itself goes through a striped adder (vec.Striped) so reporters
// into the same round fold disjoint row ranges in parallel instead of
// convoying on one round lock. Finalize, ApplyAdjustments and the
// FlatCells reads they imply are NOT synchronized against in-flight
// Adds; the caller excludes them (the back-end holds a per-round RWMutex
// write lock across close, reporters hold the read side).
type Aggregator struct {
	cfg    RoundConfig
	round  uint64
	agg    *sketch.CMS
	merger *vec.Striped // striped view over agg's flat cells

	mu       sync.Mutex // guards reported, adjusted, and agg's weight total
	reported map[int]bool
	adjusted bool
}

// NewAggregator opens an aggregation round under the given round config
// (which fixes the geometry, the blinding suite, the roster size, and
// the config version every report must match), with the default merge
// striping (2×GOMAXPROCS).
func NewAggregator(cfg RoundConfig, round uint64) (*Aggregator, error) {
	return NewAggregatorStripes(cfg, round, 0)
}

// NewAggregatorStripes is NewAggregator with an explicit merge stripe
// count: 1 degenerates to a single merge lock (the baseline the
// contention benchmark compares against), 0 picks the default.
func NewAggregatorStripes(cfg RoundConfig, round uint64, stripes int) (*Aggregator, error) {
	cms, err := cfg.Params.NewSketch()
	if err != nil {
		return nil, err
	}
	return &Aggregator{
		cfg:      cfg,
		round:    round,
		agg:      cms,
		merger:   vec.NewStriped(cms.FlatCells(), stripes),
		reported: make(map[int]bool),
	}, nil
}

// Config returns the round config the aggregator was opened under.
func (a *Aggregator) Config() RoundConfig { return a.cfg }

// Add folds one blinded report into the aggregate. Safe for concurrent
// use with other Add/AddCells calls.
func (a *Aggregator) Add(r *Report) error {
	if r.Round != a.round {
		return ErrRoundMismatch
	}
	if r.Sketch == nil {
		return sketch.ErrDimensionMismatch
	}
	sk := r.Sketch
	return a.AddCells(r.User, sk.Depth(), sk.Width(), sk.N(), sk.Seed(), r.Keystream, r.ConfigVersion, sk.FlatCells())
}

// AddCells folds a report that arrived as raw header fields plus a flat
// cell vector — the wire layer's streaming ingestion path, which decodes
// payloads into pooled slices instead of materializing a CMS. ks is the
// report's blinding-suite byte and cv its round-config version, both
// from the frame preamble; like the sketch geometry they must match the
// round's, or the report's pairwise terms would not cancel. The cells
// are consumed during the call and may be recycled by the caller as
// soon as it returns. Safe for concurrent use with other Add/AddCells
// calls.
func (a *Aggregator) AddCells(user int, d, w int, n, seed uint64, ks blind.Keystream, cv uint32, cells []uint64) error {
	if err := a.ReserveCells(user, d, w, n, seed, ks, cv, len(cells)); err != nil {
		return err
	}
	a.FoldReserved(cells)
	return nil
}

// ReserveCells is the validation-and-bookkeeping half of AddCells, split
// out so a caller can interpose a side effect — the back-end's
// write-ahead log append — between acceptance and the cell fold.
// cellsLen is the report's flat cell count. On success the user's
// roster slot is taken and the report's weight counted; the caller MUST
// then either FoldReserved the cells or Unreserve the slot. Because the
// reservation is what serializes duplicate detection, anything logged
// after a successful ReserveCells is a report the aggregate will
// definitely absorb — which is exactly the invariant crash recovery
// replays on.
func (a *Aggregator) ReserveCells(user int, d, w int, n, seed uint64, ks blind.Keystream, cv uint32, cellsLen int) error {
	if err := a.cfg.CheckReport(a.agg.Seed(), user, d, w, seed, ks, cv, cellsLen); err != nil {
		return err
	}
	return a.reserve(user, n)
}

// CheckReport is the admission rule a report must pass against a round
// opened under cfg, before the round is touched: the report's config
// version, blinding suite, sketch layout (d×w under the hash seed) and
// cell count must be the round's, and the user must sit on its roster.
// roundSeed is the round's hash-seed base — 0 for every round
// NewAggregator opens, so a caller can check a round's first report
// before opening it. A duplicate it cannot see: that depends on the
// round's reported set (ReserveCells).
func (cfg RoundConfig) CheckReport(roundSeed uint64, user, d, w int, seed uint64, ks blind.Keystream, cv uint32, cellsLen int) error {
	if cv != cfg.Version {
		return ErrIncompatibleConfig
	}
	if ks != cfg.Params.Keystream {
		return ErrKeystreamMismatch
	}
	rd, rw, err := sketch.Dimensions(cfg.Params.Epsilon, cfg.Params.Delta)
	if err != nil {
		return err
	}
	if d != rd || w != rw || seed != roundSeed || cellsLen != d*w {
		return sketch.ErrDimensionMismatch
	}
	if user < 0 || user >= cfg.RosterSize {
		return fmt.Errorf("privacy: user %d outside roster of %d", user, cfg.RosterSize)
	}
	return nil
}

// reserve runs the bookkeeping under the short lock: duplicate
// rejection, the reported-bitmap mark, and the weight total.
func (a *Aggregator) reserve(user int, n uint64) error {
	a.mu.Lock()
	if a.reported[user] {
		a.mu.Unlock()
		return ErrDuplicate
	}
	a.reported[user] = true
	a.agg.AddWeight(n)
	a.mu.Unlock()
	return nil
}

// FoldReserved merges a successfully reserved report's cells through
// the striped merger. The cells may be recycled as soon as it returns.
func (a *Aggregator) FoldReserved(cells []uint64) {
	a.merger.Add(cells)
}

// FoldReservedLE folds a reserved report whose cells are still a raw
// little-endian block (a WAL record body) straight into the aggregate,
// decoding and adding in one pass (vec.AddLE) and bypassing the striped
// merger. The caller must be the round's only writer: the back-end's
// WAL applier, which runs alone during construction and on a replica.
func (a *Aggregator) FoldReservedLE(raw []byte) {
	vec.AddLE(a.agg.FlatCells(), raw)
}

// Unreserve rolls back a successful ReserveCells whose fold will not
// happen (the back-end uses it when the WAL append fails): the user's
// slot reopens and the report's weight is subtracted again.
func (a *Aggregator) Unreserve(user int, n uint64) {
	a.mu.Lock()
	delete(a.reported, user)
	a.agg.AddWeight(-n) // uint64 wrap-around: exact inverse of the reserve
	a.mu.Unlock()
}

// RestoreAggregatorStripes rebuilds an aggregation round from durably
// persisted state: the aggregate's flat cells (adopted, not copied),
// its update weight, the hash-seed base, and the reported bitmap. cfg
// is the round config the round was opened under — persisted alongside
// the cells, so a recovered round keeps rejecting stale config versions
// exactly as it did before the crash. The cell count must match the
// config's geometry — a mismatch means the persisted state was written
// under a different configuration, which can never be folded into
// safely. The restored aggregator enforces the same
// duplicate/suite/layout invariants as the original: a user who
// reported before the crash is still a duplicate after it.
func RestoreAggregatorStripes(cfg RoundConfig, round uint64, stripes int, cells []uint64, n, seed uint64, reported []bool) (*Aggregator, error) {
	d, w, err := sketch.Dimensions(cfg.Params.Epsilon, cfg.Params.Delta)
	if err != nil {
		return nil, err
	}
	if len(cells) != d*w {
		return nil, fmt.Errorf("privacy: restoring %d cells into a %dx%d geometry", len(cells), d, w)
	}
	cms, err := sketch.Restore(d, w, seed, n, cells)
	if err != nil {
		return nil, err
	}
	rep := make(map[int]bool, len(reported))
	for u, r := range reported {
		if u >= cfg.RosterSize {
			return nil, fmt.Errorf("privacy: restored bitmap covers %d users, roster is %d", len(reported), cfg.RosterSize)
		}
		if r {
			rep[u] = true
		}
	}
	return &Aggregator{
		cfg:      cfg,
		round:    round,
		agg:      cms,
		merger:   vec.NewStriped(cms.FlatCells(), stripes),
		reported: rep,
	}, nil
}

// Layout returns the aggregate's cell geometry and hash-seed base —
// the scalar header fields a durable store logs in a round-open record.
// Unlike SnapshotState it copies nothing.
func (a *Aggregator) Layout() (d, w int, seed uint64) {
	return a.agg.Depth(), a.agg.Width(), a.agg.Seed()
}

// SnapshotState copies the aggregator's durable state — geometry, hash
// seed, weight total, cell vector, and reported bitmap sized to the
// roster — for persistence. The caller must exclude concurrent
// Add/Fold calls (the back-end holds the round's write lock).
func (a *Aggregator) SnapshotState() (d, w int, seed, n uint64, ks blind.Keystream, cells []uint64, reported []bool) {
	cells = append([]uint64(nil), a.agg.FlatCells()...)
	reported = make([]bool, a.cfg.RosterSize)
	a.mu.Lock()
	for u := range a.reported {
		reported[u] = true
	}
	a.mu.Unlock()
	return a.agg.Depth(), a.agg.Width(), a.agg.Seed(), a.agg.N(), a.cfg.Params.Keystream, cells, reported
}

// Reported returns how many reports have been folded in.
func (a *Aggregator) Reported() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.reported)
}

// Missing lists the roster indices that have not reported — the list the
// back-end publishes to trigger the adjustment round.
func (a *Aggregator) Missing() []int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.missingLocked()
}

// missingLocked is Missing under a.mu.
func (a *Aggregator) missingLocked() []int {
	var out []int
	for i := 0; i < a.cfg.RosterSize; i++ {
		if !a.reported[i] {
			out = append(out, i)
		}
	}
	return out
}

// Progress returns the reported count and the missing list as ONE
// consistent observation: both come from the same critical section, so
// reported + len(missing) == RosterSize always holds. Separate
// Reported() and Missing() calls can each be correct yet disagree when
// a report folds in between them — a status poll racing submissions
// would then publish a torn view (say, reported=3 alongside a missing
// list of the other 2 in a 4-user roster).
func (a *Aggregator) Progress() (reported int, missing []int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.reported), a.missingLocked()
}

// HasReported reports whether the user's report has been folded into
// this round. The back-end uses it to validate adjustment uploads: a
// second-round share is the sum of the submitter's pairwise terms
// toward the missing users, so only a user whose (blinded) report is in
// the aggregate has anything meaningful to cancel.
func (a *Aggregator) HasReported(user int) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reported[user]
}

// ApplyAdjustments subtracts the reporters' second-round shares, restoring
// blinding cancellation when some users are missing. Must not race with
// in-flight Adds (the back-end's round write lock guarantees this).
func (a *Aggregator) ApplyAdjustments(adjustments ...[]uint64) error {
	if err := blind.SubtractAdjustments(a.agg.FlatCells(), adjustments...); err != nil {
		return err
	}
	a.mu.Lock()
	a.adjusted = true
	a.mu.Unlock()
	return nil
}

// Finalize returns the unblinded aggregate CMS. It fails if reports are
// missing and no adjustment pass was applied — aggregating in that state
// would return uniform noise. Must not race with in-flight Adds.
func (a *Aggregator) Finalize() (*sketch.CMS, error) {
	a.mu.Lock()
	reported, adjusted := len(a.reported), a.adjusted
	a.mu.Unlock()
	if reported == 0 {
		return nil, ErrNoReports
	}
	if reported < a.cfg.RosterSize && !adjusted {
		return nil, ErrNotFinalizable
	}
	return a.agg.Clone(), nil
}

// FinalizeWithAdjustments returns the unblinded aggregate with the given
// second-round shares subtracted. The shares are applied to a clone, never
// to the live aggregate, so a failed close (bad share length, reports
// still missing) leaves the round untouched and safely retryable —
// ApplyAdjustments+Finalize by contrast mutates in place and would
// double-subtract on retry.
func (a *Aggregator) FinalizeWithAdjustments(adjustments ...[]uint64) (*sketch.CMS, error) {
	a.mu.Lock()
	reported, adjusted := len(a.reported), a.adjusted
	a.mu.Unlock()
	if reported == 0 {
		return nil, ErrNoReports
	}
	if reported < a.cfg.RosterSize && !adjusted && len(adjustments) == 0 {
		return nil, ErrNotFinalizable
	}
	out := a.agg.Clone()
	if err := blind.SubtractAdjustments(out.FlatCells(), adjustments...); err != nil {
		return nil, err
	}
	return out, nil
}

// MaxIDSpace bounds Params.IDSpace. Closing a round enumerates the whole
// ID space into a table of 8·IDSpace bytes (CountTable), so an unbounded
// value — campaign provisioning is reachable over the wire — would be a
// request to allocate and sweep without limit. 2²⁴ is 168× the paper's
// |A| = 100k and costs a 128 MiB table.
const MaxIDSpace = 1 << 24

// ErrBadIDSpace rejects an ID space of 0 (no ad could be counted) or
// above MaxIDSpace.
var ErrBadIDSpace = fmt.Errorf("privacy: IDSpace must be in [1, %d]", MaxIDSpace)

// CheckIDSpace validates a resolved ID space against MaxIDSpace.
func CheckIDSpace(idSpace uint64) error {
	if idSpace == 0 || idSpace > MaxIDSpace {
		return fmt.Errorf("%w, got %d", ErrBadIDSpace, idSpace)
	}
	return nil
}

// CountTable queries the aggregate sketch for every ad ID in
// [0, IDSpace) and returns the estimates as a dense table indexed by ad
// ID — table[id] == QueryUsers(agg, id) — together with the number of
// non-zero entries (the round's distinct-ads figure). This is the
// enumeration step that the OPRF makes possible: the server can walk the
// whole ID space without learning any URL.
//
// The walk is the dominant cost of closing a round (IDSpace × d cell
// reads), so the ID space is sharded across CPU cores; each worker runs
// the sketch's range kernel over its own disjoint table[lo:hi], so there
// is nothing to lock and nothing to merge. A sketch that has seen a real
// fleet has no empty column and every ID is non-zero, which is why the
// result is a table and not a map: the table is 8·IDSpace bytes whatever
// the traffic, and reading it in index order is the same order on every
// node. params.IDSpace must have passed CheckIDSpace.
func CountTable(agg *sketch.CMS, params Params) (table []uint64, distinct int) {
	table = make([]uint64, params.IDSpace)
	var nonzero atomic.Int64
	vec.Parallel(len(table), 4096, func(lo, hi int) {
		nonzero.Add(int64(agg.QueryRange(uint64(lo), table[lo:hi])))
	})
	return table, int(nonzero.Load())
}

// UserCounts is CountTable as a map holding only the IDs with a non-zero
// estimate, for callers that want sparse lookups (the evaluation
// harness, the churn oracle, the experiments). The close path does not
// use it.
func UserCounts(agg *sketch.CMS, params Params) map[uint64]uint64 {
	table, distinct := CountTable(agg, params)
	return CountMap(table, distinct)
}

// CountMap renders a count table as the sparse map UserCounts returns:
// one entry per non-zero ID, presized to distinct.
func CountMap(table []uint64, distinct int) map[uint64]uint64 {
	out := make(map[uint64]uint64, distinct)
	for id, v := range table {
		if v > 0 {
			out[uint64(id)] = v
		}
	}
	return out
}

// QueryUsers estimates #Users for one ad ID.
func QueryUsers(agg *sketch.CMS, id uint64) uint64 {
	return agg.Query(idBytes(id))
}

// CleartextReportBytes estimates the cleartext alternative the paper
// compares against in Section 7.1: a vector of ad URLs, ~100 characters
// each, so a user who saw k unique ads uploads about 100·k bytes.
func CleartextReportBytes(uniqueAds int, avgURLLen int) int {
	return uniqueAds * avgURLLen
}
