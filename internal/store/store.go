// Package store is the back-end's durable round store: an append-only
// write-ahead log (WAL) of binary round events — round open, report
// folded, adjustment uploaded, round closed, user registered — with
// periodic snapshots of the full round state. The store is a log: it
// frames, checksums, snapshots, ships and iterates records, and knows no
// acceptance rule. What a logged record does to round state is decided
// by the back-end's one WAL applier, which restart and the warm replica
// share (see Store.Replay).
//
// The aggregation protocol only works if a round completes: each user's
// report is blinded noise on its own, and the blinding factors cancel
// only once every roster member's contribution is folded. An aggregator
// crash mid-round would therefore silently destroy the work of the
// entire user population for that round. The store makes the round
// survive the process: every event is logged *before* it mutates the
// in-memory aggregate, and replay hands the owner the snapshot base plus
// every later event, from which it rebuilds the aggregate — including
// the reported-bitmap, the adjustment shares, and the blinding-suite
// byte — exactly as it was.
//
// # Durability model
//
// Appends are buffered; Sync is the durability barrier, implemented as
// a group commit: concurrent Sync callers coalesce onto one fsync that
// covers everything appended so far. The back-end calls Sync exactly
// where the wire protocol acknowledges — once per batched-ack window,
// not once per report — so the ack batch k amortizes the fsync the same
// way it amortizes the ack write (see wire.ReportDurability).
//
// On-disk layout (one directory per back-end):
//
//	wal-<gen>.log    8-byte magic, then CRC-framed records (record.go)
//	snap-<gen>.snap  full round+roster state at some instant (snapshot.go)
//
// A snapshot at generation G is written only after the WAL has rotated
// to segment G, so snap-G is a superset of every record in segments
// < G and possibly includes a prefix of segment G. Replay hands over the
// newest valid snapshot and every segment with generation ≥ its own; the
// overlap is harmless because the back-end's applier skips a record the
// base already reflects (a duplicate report, an open of an existing
// round, anything into a closed round), which is what makes the fuzzy
// snapshot safe. Torn or corrupt records — a crash mid-append leaves
// one, at a segment's tail — fail their CRC and cleanly end that
// segment's replay.
package store

import "eyewnder/internal/obs"

// RoundState is one round's complete durable state: everything needed
// to rebuild the back-end's in-memory aggregator byte-identically. It
// is the unit snapshots speak in.
type RoundState struct {
	// Campaign is the counting campaign the round belongs to. Campaign 0
	// is the deployment's implicit legacy campaign; rounds recovered from
	// pre-campaign WAL records land there.
	Campaign uint32
	// Round is the round identifier within its campaign.
	Round uint64
	// RosterSize is the enrolled-user count the round expects reports
	// from; it bounds user indices and sizes the Reported bitmap.
	RosterSize int
	// ConfigVersion and RosterVersion pin the negotiated round config
	// the round was opened under. Recovery restores them so a recovered
	// round keeps rejecting stale-config reports exactly as it did
	// before the crash.
	ConfigVersion uint32
	RosterVersion uint32
	// D, W and Seed fix the CMS cell layout of the round aggregate.
	D, W int
	Seed uint64
	// N is the aggregate's total update weight (sum of folded report
	// weights).
	N uint64
	// Keystream is the blinding-suite byte of the round: recovery
	// restores it so the aggregator keeps rejecting mismatched-suite
	// reports after a restart exactly as it did before.
	Keystream byte
	// Closed marks a finalized round.
	Closed bool
	// Cells is the aggregate's flat cell vector (d·w counters).
	Cells []uint64
	// Reported is the reported-bitmap: Reported[u] is true once user u's
	// report has been folded. Restoring it is what keeps the duplicate-
	// report invariant across restarts.
	Reported []bool
	// Adjusts holds the uploaded second-round adjustment shares by
	// reporter index.
	Adjusts map[int][]uint64
}

// Base is the state a store directory's newest valid snapshot holds —
// the starting point of a replay. It is empty for a directory with no
// snapshot (and for the volatile store).
type Base struct {
	// Rounds are the snapshot's round states. The receiver owns them,
	// cells included.
	Rounds []*RoundState
	// Roster is the bulletin board: user index → blinding public key.
	// The keys are shared with the store's own bookkeeping: read only.
	Roster map[int][]byte
	// Campaigns is the campaign directory: campaign ID → opaque canonical
	// campaign encoding, exactly as provisioned; read only, like Roster.
	Campaigns map[uint32][]byte
	// ConfigVersion and RosterVersion are the deployment-wide negotiated
	// config and roster version counters (0, 0 for a data dir written
	// before the config handshake existed).
	ConfigVersion uint32
	RosterVersion uint32
}

// Store is the back-end's durability interface. The Disk implementation
// persists every event; Null is the in-memory no-op that preserves the
// original (volatile) behavior. All methods are safe for concurrent
// use.
type Store interface {
	// Replay hands the owner the recovered log: load receives the
	// snapshot base, then apply receives every WAL event after it, in log
	// order, up to each segment's last valid record. The store applies no
	// acceptance rule — deciding what each event does, and skipping what
	// the base already reflects, is the owner's job. Event byte slices
	// alias the replay buffer and are valid only during the apply call.
	// An error from either callback ends the replay and is returned. The
	// back-end consumes the replay once, during construction, before its
	// first append; unlike the other methods, Replay is not safe for
	// concurrent use with itself.
	Replay(load func(*Base) error, apply func(Event) error) error

	// AppendRegister logs a bulletin-board registration.
	AppendRegister(user int, publicKey []byte) error
	// AppendConfig logs a bump of the deployment-wide config/roster
	// version counters (a registration changed the bulletin board).
	AppendConfig(configVersion, rosterVersion uint32) error
	// AppendOpen logs the creation of a round with the given campaign,
	// geometry, roster size, blinding-suite byte, and the config/roster
	// versions the round is pinned to. Campaign 0 writes the legacy
	// record layout byte-identically.
	AppendOpen(campaign uint32, round uint64, rosterSize, d, w int, seed uint64, keystream byte, configVersion, rosterVersion uint32) error
	// AppendReport logs one accepted report — header fields plus the
	// flat cell vector, i.e. exactly the streamed wire frame's payload
	// (campaign and config version included) — before the cells are
	// folded into the aggregate. The cells are consumed during the call
	// and may be recycled as soon as it returns.
	AppendReport(campaign uint32, round uint64, user, d, w int, n, seed uint64, keystream byte, configVersion uint32, cells []uint64) error
	// AppendAdjust logs an accepted second-round adjustment share.
	AppendAdjust(campaign uint32, round uint64, user int, cells []uint64) error
	// AppendClose logs a round's finalization.
	AppendClose(campaign uint32, round uint64) error
	// AppendCampaign logs a campaign provisioning. def is the campaign
	// registry's canonical encoding; the store persists and replays it
	// opaquely (last write wins per ID).
	AppendCampaign(def []byte) error

	// Sync is the durability barrier: it returns once every record
	// appended before the call is on stable storage. Concurrent callers
	// group-commit onto a shared fsync.
	Sync() error

	// ShouldSnapshot reports whether enough has been logged since the
	// last snapshot that the owner should trigger one.
	ShouldSnapshot() bool
	// Snapshot rotates the WAL, captures the owner's current state via
	// the callback (which runs without any store lock held), writes it
	// as a new snapshot, and prunes old segments. Calls are serialized,
	// and a Disk refuses them until Replay has run: a snapshot taken
	// before the log was read back would drop what the log holds.
	Snapshot(capture func() ([]*RoundState, error)) error

	// Close flushes and releases the store. Appends after Close fail.
	Close() error
}

// Null is the volatile no-op store: every append succeeds without doing
// anything and replay finds nothing. A back-end configured with it
// behaves exactly like one with no store at all.
type Null struct{}

// Replay implements Store: the base is empty and there are no events.
func (Null) Replay(load func(*Base) error, _ func(Event) error) error { return load(&Base{}) }

// AppendRegister implements Store.
func (Null) AppendRegister(int, []byte) error { return nil }

// AppendConfig implements Store.
func (Null) AppendConfig(uint32, uint32) error { return nil }

// AppendOpen implements Store.
func (Null) AppendOpen(uint32, uint64, int, int, int, uint64, byte, uint32, uint32) error {
	return nil
}

// AppendReport implements Store.
func (Null) AppendReport(uint32, uint64, int, int, int, uint64, uint64, byte, uint32, []uint64) error {
	return nil
}

// AppendAdjust implements Store.
func (Null) AppendAdjust(uint32, uint64, int, []uint64) error { return nil }

// AppendClose implements Store.
func (Null) AppendClose(uint32, uint64) error { return nil }

// AppendCampaign implements Store.
func (Null) AppendCampaign([]byte) error { return nil }

// Sync implements Store.
func (Null) Sync() error { return nil }

// ShouldSnapshot implements Store.
func (Null) ShouldSnapshot() bool { return false }

// Snapshot implements Store.
func (Null) Snapshot(func() ([]*RoundState, error)) error { return nil }

// Close implements Store.
func (Null) Close() error { return nil }

// SyncMode selects when WAL appends reach stable storage.
type SyncMode int

const (
	// SyncBatch (the default) makes Sync the durability barrier: appends
	// buffer, and concurrent Sync callers group-commit onto one fsync.
	// With batched acknowledgements on the wire this costs one fsync per
	// ack window, not per report.
	SyncBatch SyncMode = iota
	// SyncOff never fsyncs: appends and Sync only flush to the OS.
	// Survives a process kill but not a host crash.
	SyncOff
)

// DefaultSnapshotEvery is the report-append count between snapshots
// when Options does not set one.
const DefaultSnapshotEvery = 4096

// Options configures a Disk store.
type Options struct {
	// Sync selects the fsync policy. The zero value is SyncBatch.
	Sync SyncMode
	// SnapshotEvery is the number of report appends after which
	// ShouldSnapshot turns true (and the WAL is compacted into a fresh
	// snapshot). 0 picks DefaultSnapshotEvery; negative disables
	// snapshotting (the WAL grows until the owner calls Snapshot).
	SnapshotEvery int
	// RetainSegments keeps the newest N sealed WAL segments (and their
	// generation's snapshots) across snapshot pruning. 0 prunes
	// everything below the new snapshot — the original behavior. A
	// replicated primary sets this so a follower that is one poll
	// behind a rotation can still fetch the just-sealed segment instead
	// of falling back to a full snapshot resync (see internal/repl).
	RetainSegments int
	// Metrics is the observability registry the store's instruments
	// (WAL appends/bytes, fsync count and latency, snapshot duration,
	// segment seals/prunes) register in. nil means a private registry:
	// the instrumented paths run identically, nothing is exported.
	Metrics *obs.Registry
}

// snapshotEvery resolves the configured snapshot cadence.
func (o Options) snapshotEvery() int {
	if o.SnapshotEvery == 0 {
		return DefaultSnapshotEvery
	}
	return o.SnapshotEvery
}
