package backend

import (
	"errors"
	"fmt"

	"eyewnder/internal/blind"
	"eyewnder/internal/campaign"
	"eyewnder/internal/privacy"
	"eyewnder/internal/store"
	"eyewnder/internal/vec"
)

// The WAL applier: the one place a logged record becomes served state.
//
// A restart (restore, from New) and a warm replica (ApplyEvent, fed the
// primary's stream by internal/repl) rebuild rounds through the same
// applyEvent, and a report passes the same rule set the live path runs
// (privacy.Aggregator.ReserveCells). The two cannot drift apart, so the
// primary, a hot standby and a restarted node publish bit-identical
// counts and Users_th — acked ⇒ durable ⇒ mirrored ⇒ recovered by
// construction.
//
// A record the rules reject — a duplicate report, a report or share into
// an unknown or closed round, a mismatched layout, suite or stale config
// version — is *skipped*, never applied: the segment replayed over a
// fuzzy snapshot and the prefix a follower re-feeds after a restart hold
// records the state already reflects, and the live path never logged a
// record it rejected. Errors are reserved for logs the back-end must not
// serve at all: a record from a different deployment (an out-of-roster
// registration, a campaign that does not resolve, a round of an
// unprovisioned campaign or with a different geometry, roster size or
// blinding suite), or a close that cannot finalize.

// restore rebuilds served state from the store: the snapshot base loads
// through loadBase, then every later WAL event goes through applyEvent.
func (b *Backend) restore() error {
	return b.store.Replay(b.loadBase, b.applyEvent)
}

// loadBase loads a replay's snapshot base. The bulletin board, campaign
// directory and version counters go through applyEvent as the records
// they summarize; rounds become aggregators directly
// (RestoreAggregatorStripes), checked like a logged open. Closed rounds
// past the retention horizon are not resurrected, and the rest
// re-derive their close-time results. It runs inside New, before the
// back-end is shared.
func (b *Backend) loadBase(base *store.Base) error {
	for u, key := range base.Roster {
		if err := b.applyEvent(&store.RegisterEvent{User: u, PublicKey: key}); err != nil {
			return err
		}
	}
	// The campaign directory loads before the rounds: a round of campaign
	// c needs c's resolved geometry to validate against.
	for id, def := range base.Campaigns {
		if err := b.applyEvent(&store.CampaignEvent{ID: id, Def: def}); err != nil {
			return err
		}
	}
	b.bumpVersions(base.ConfigVersion, base.RosterVersion)
	closedBy := make(map[uint32][]uint64)
	for _, rs := range base.Rounds {
		if rs.Closed {
			closedBy[rs.Campaign] = append(closedBy[rs.Campaign], rs.Round)
		}
	}
	b.mu.Lock()
	cutoffs := b.retireBelowLocked(closedBy)
	b.mu.Unlock()
	for _, rs := range base.Rounds {
		rcfg, err := b.loggedRoundConfig(rs.Campaign, rs.Round, rs.D, rs.W, rs.RosterSize, rs.Keystream, rs.ConfigVersion, rs.RosterVersion)
		if err != nil {
			return err
		}
		b.bumpVersions(rs.ConfigVersion, rs.RosterVersion)
		if rs.Closed && rs.Round < cutoffs[rs.Campaign] {
			continue // aged out: its Users_th has been served long enough
		}
		agg, err := privacy.RestoreAggregatorStripes(rcfg, rs.Round, 0,
			rs.Cells, rs.N, rs.Seed, rs.Reported)
		if err != nil {
			return err
		}
		b.mu.Lock()
		r := b.installRoundLocked(roundKey{rs.Campaign, rs.Round}, agg, rs.Adjusts)
		b.mu.Unlock()
		if rs.Closed {
			if err := b.refinalizeLocked(r); err != nil {
				return fmt.Errorf("backend: re-closing recovered round %d: %w", rs.Round, err)
			}
		}
	}
	return nil
}

// applyEvent folds one logged event into the back-end's state: the
// single applier behind restore and ApplyEvent. The event's byte slices
// alias the reader's buffer, so keys and shares are copied.
func (b *Backend) applyEvent(ev store.Event) error {
	switch e := ev.(type) {
	case *store.RegisterEvent:
		if e.User < 0 || e.User >= b.cfg.Users {
			return fmt.Errorf("backend: logged registration for user %d, roster size %d — data dir or primary from a different deployment?", e.User, b.cfg.Users)
		}
		b.mu.Lock()
		b.roster[e.User] = append([]byte(nil), e.PublicKey...)
		b.mu.Unlock()
		// No version bump here: the live path logs the bump as its own
		// recConfig record (in the same critical section as the register),
		// and applying it twice would run the counters ahead.

	case *store.ConfigEvent:
		b.bumpVersions(e.ConfigVersion, e.RosterVersion)

	case *store.CampaignEvent:
		// Last write wins, like the live registry.
		c, _, err := campaign.DecodeBinary(e.Def)
		if err != nil {
			return fmt.Errorf("backend: logged campaign %d does not decode: %w", e.ID, err)
		}
		if c.ID != e.ID {
			return fmt.Errorf("backend: logged campaign body claims ID %d under directory key %d", c.ID, e.ID)
		}
		cs, err := b.newCampaignState(c)
		if err != nil {
			return fmt.Errorf("backend: logged campaign %d (%s): %w", e.ID, c.Name, err)
		}
		b.mu.Lock()
		b.campaigns[c.ID] = cs
		b.mu.Unlock()

	case *store.OpenEvent:
		rcfg, err := b.loggedRoundConfig(e.Campaign, e.Round, e.D, e.W, e.RosterSize, e.Keystream, e.ConfigVersion, e.RosterVersion)
		if err != nil {
			return err
		}
		b.bumpVersions(e.ConfigVersion, e.RosterVersion)
		if _, ok := b.lookupRound(e.Campaign, e.Round); ok {
			return nil // already open (snapshot overlap): idempotent
		}
		// An all-false bitmap sizes the reported set for the whole roster.
		agg, err := privacy.RestoreAggregatorStripes(rcfg, e.Round, 0,
			make([]uint64, e.D*e.W), 0, e.Seed, make([]bool, e.RosterSize))
		if err != nil {
			return err
		}
		b.mu.Lock()
		b.installRoundLocked(roundKey{e.Campaign, e.Round}, agg, nil)
		b.mu.Unlock()

	case *store.ReportEvent:
		r, ok := b.lookupRound(e.Campaign, e.Round)
		if !ok {
			return nil
		}
		r.mu.Lock()
		if !r.closed && r.agg.ReserveCells(e.User, e.D, e.W, e.N, e.Seed, blind.Keystream(e.Keystream), e.ConfigVersion, len(e.Cells)/8) == nil {
			// The applier is the round's only writer — nothing else folds
			// during New, and a replica refuses ConsumeReport — so the raw
			// block folds straight into the aggregate, decoded and added in
			// one pass.
			r.agg.FoldReservedLE(e.Cells)
		}
		r.mu.Unlock()

	case *store.AdjustEvent:
		r, ok := b.lookupRound(e.Campaign, e.Round)
		if !ok {
			return nil
		}
		r.mu.Lock()
		d, w, _ := r.agg.Layout()
		if !r.closed && e.User >= 0 && e.User < b.cfg.Users && len(e.Cells) == 8*d*w {
			cells := make([]uint64, d*w)
			vec.GetLE(cells, e.Cells)
			r.adjusts[e.User] = cells // last write wins, like the live share map
		}
		r.mu.Unlock()

	case *store.CloseEvent:
		r, ok := b.lookupRound(e.Campaign, e.Round)
		if !ok {
			return nil
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			return nil
		}
		if err := b.refinalizeLocked(r); err != nil {
			r.mu.Unlock()
			return fmt.Errorf("backend: logged close of round %d: %w", e.Round, err)
		}
		r.mu.Unlock()
		// Retention runs with the round unlocked, as after CloseRound.
		b.retireRounds()

	default:
		return fmt.Errorf("backend: unknown logged event %T", ev)
	}
	return nil
}

// ApplyEvent folds one decoded WAL event from the primary's stream into
// a replica back-end, through the applier a restart runs. Errors are
// reserved for streams the replica must not follow (see applyEvent);
// the caller treats any error as fatal to replication.
//
// ApplyEvent is not safe for concurrent use with itself — the follower
// is the single writer, which is what lets the report fold bypass the
// striped merger — and is safe against concurrent readers.
func (b *Backend) ApplyEvent(ev store.Event) error {
	if !b.cfg.Replica {
		return errors.New("backend: ApplyEvent on a non-replica back-end")
	}
	return b.applyEvent(ev)
}

// loggedRoundConfig checks a logged round — a snapshot round or an open
// record — against this back-end's configuration and returns the round
// config it was opened under. The campaign must be provisioned, and the
// cell layout, roster size and blinding suite must match: a round from a
// different protocol configuration could never aggregate correctly, so
// a mismatch refuses the log rather than corrupt rounds silently.
func (b *Backend) loggedRoundConfig(c uint32, id uint64, d, w, rosterSize int, ks byte, cv, rv uint32) (privacy.RoundConfig, error) {
	params, cells := b.cfg.Params, b.cells
	if c != 0 {
		b.mu.Lock()
		cs, ok := b.campaigns[c]
		b.mu.Unlock()
		if !ok {
			return privacy.RoundConfig{}, fmt.Errorf("backend: logged round %d belongs to unprovisioned campaign %d — data dir or primary from a different deployment?", id, c)
		}
		params, cells = cs.params, cs.cells
	}
	if d*w != cells {
		return privacy.RoundConfig{}, fmt.Errorf("backend: logged round %d (campaign %d) has %dx%d cells, config wants %d — data dir or primary from a different geometry?", id, c, d, w, cells)
	}
	if rosterSize != b.cfg.Users {
		return privacy.RoundConfig{}, fmt.Errorf("backend: logged round %d expects %d users, config says %d", id, rosterSize, b.cfg.Users)
	}
	if ks != byte(params.Keystream) {
		return privacy.RoundConfig{}, fmt.Errorf("backend: logged round %d (campaign %d) used keystream suite %#02x, config says %#02x", id, c, ks, byte(params.Keystream))
	}
	return privacy.RoundConfig{Version: cv, RosterVersion: rv, RosterSize: b.cfg.Users, Params: params}, nil
}

// bumpVersions raises the deployment-wide version counters (never
// lowers: a replay may revisit older bumps, and the counters only ever
// grow).
func (b *Backend) bumpVersions(cv, rv uint32) {
	b.mu.Lock()
	b.configVersion = max(b.configVersion, cv)
	b.rosterVersion = max(b.rosterVersion, rv)
	b.mu.Unlock()
}
