package store

import (
	"sort"
	"time"

	"eyewnder/internal/vec"
)

// Replay: applying WAL records to recovered state.
//
// The applier mirrors the live aggregator's acceptance rules exactly —
// unknown round, out-of-roster user, duplicate report, mismatched cell
// layout, mismatched blinding suite, stale round-config version, and
// closed round are all *skipped*, never applied — for two reasons. First, byte-identical recovery: the
// live path logs a report only after reserving its user slot, so a
// record the live aggregator accepted is accepted on replay and one it
// would have rejected is rejected on replay. Second, idempotence: a
// snapshot is taken *after* the WAL rotates, so the segment replayed on
// top of it may contain records the snapshot already reflects; the
// duplicate/closed checks make re-applying them a no-op, which is what
// lets recovery compose a fuzzy snapshot with its overlapping segment.
//
// The replication follower applies the same record stream to a *live*
// replica back-end (backend.ApplyEvent); both appliers consume the
// typed events of DecodeEvent, so their acceptance rules can only drift
// if one of them diverges from this file's documented semantics.

// roundKey identifies one round of one campaign. Every piece of round
// state in the multi-campaign service keys on the pair: campaign 0 is
// the implicit legacy campaign, so pre-campaign WAL records and
// snapshots recover under {0, round} byte-identically.
type roundKey struct {
	Campaign uint32
	Round    uint64
}

// recovered accumulates state during recovery: the bulletin board, the
// per-round states keyed by (campaign, round), the opaque campaign
// directory, and the deployment-wide config/roster version counters.
type recovered struct {
	rounds        map[roundKey]*RoundState
	roster        map[int][]byte
	campaigns     map[uint32][]byte
	configVersion uint32
	rosterVersion uint32

	// replayBytes and replayTime measure the WAL half of recovery: the
	// segment bytes applied and the time spent applying them.
	replayBytes int64
	replayTime  time.Duration
}

// newRecovered seeds recovery from a loaded snapshot (nil for none).
func newRecovered(snap *snapshotData) *recovered {
	rec := &recovered{
		rounds:    make(map[roundKey]*RoundState),
		roster:    make(map[int][]byte),
		campaigns: make(map[uint32][]byte),
	}
	if snap != nil {
		for _, rs := range snap.rounds {
			rec.rounds[roundKey{rs.Campaign, rs.Round}] = rs
		}
		for u, k := range snap.roster {
			rec.roster[u] = k
		}
		for id, def := range snap.campaigns {
			rec.campaigns[id] = def
		}
		rec.configVersion, rec.rosterVersion = snap.configVersion, snap.rosterVersion
	}
	return rec
}

// bumpVersions raises the recovered version counters (never lowers:
// replay on top of a snapshot may revisit older bumps, and version
// counters only ever grow).
func (rec *recovered) bumpVersions(cv, rv uint32) {
	if cv > rec.configVersion {
		rec.configVersion = cv
	}
	if rv > rec.rosterVersion {
		rec.rosterVersion = rv
	}
}

// apply folds one decoded WAL record into the recovered state. A record
// that fails the live acceptance rules is skipped; a record whose body
// does not parse at all returns ErrBadRecord (the caller treats it like
// a corrupt record and ends the segment).
func (rec *recovered) apply(kind byte, body []byte) error {
	ev, err := DecodeEvent(kind, body)
	if err != nil {
		return err
	}
	rec.applyEvent(ev)
	return nil
}

// applyEvent folds one typed event into the recovered state, skipping
// whatever the live acceptance rules would have rejected. The event's
// byte slices alias the replay reader's buffer (ReadWALRecord serves
// records in place) and are overwritten by the next read, so no case
// retains one: keys and campaign definitions are copied, shares decoded
// into fresh vectors, report cells folded.
func (rec *recovered) applyEvent(ev Event) {
	switch e := ev.(type) {
	case *RegisterEvent:
		rec.roster[e.User] = append([]byte(nil), e.PublicKey...)

	case *OpenEvent:
		rec.bumpVersions(e.ConfigVersion, e.RosterVersion)
		if _, ok := rec.rounds[roundKey{e.Campaign, e.Round}]; ok {
			return // round already open (snapshot overlap): idempotent
		}
		rec.rounds[roundKey{e.Campaign, e.Round}] = &RoundState{
			Campaign:      e.Campaign,
			Round:         e.Round,
			RosterSize:    e.RosterSize,
			ConfigVersion: e.ConfigVersion,
			RosterVersion: e.RosterVersion,
			D:             e.D,
			W:             e.W,
			Seed:          e.Seed,
			Keystream:     e.Keystream,
			Cells:         make([]uint64, e.D*e.W),
			Reported:      make([]bool, e.RosterSize),
			Adjusts:       make(map[int][]uint64),
		}

	case *ConfigEvent:
		rec.bumpVersions(e.ConfigVersion, e.RosterVersion)

	case *ReportEvent:
		rs, ok := rec.rounds[roundKey{e.Campaign, e.Round}]
		if !ok || rs.Closed {
			return // unknown or closed round: the live path rejects too
		}
		if e.User < 0 || e.User >= rs.RosterSize || rs.Reported[e.User] {
			return // out-of-roster or duplicate: skip, as live
		}
		if e.D != rs.D || e.W != rs.W || e.Seed != rs.Seed || e.Keystream != rs.Keystream {
			return // layout or blinding-suite mismatch: skip, as live
		}
		if e.ConfigVersion != 0 && rs.ConfigVersion != 0 && e.ConfigVersion != rs.ConfigVersion {
			return // stale config version: skip, as live (ErrIncompatibleConfig)
		}
		rs.Reported[e.User] = true
		rs.N += e.N
		// The raw block sits at whatever alignment the record landed at
		// (often inside the reader's buffer): the fused kernel decodes
		// and adds in one pass.
		vec.AddLE(rs.Cells, e.Cells)

	case *AdjustEvent:
		rs, ok := rec.rounds[roundKey{e.Campaign, e.Round}]
		if !ok || rs.Closed {
			return
		}
		if e.User < 0 || e.User >= rs.RosterSize || len(e.Cells) != 8*len(rs.Cells) {
			return
		}
		cells := make([]uint64, len(rs.Cells))
		vec.GetLE(cells, e.Cells)
		rs.Adjusts[e.User] = cells // overwrite, as the live map store does

	case *CloseEvent:
		if rs, ok := rec.rounds[roundKey{e.Campaign, e.Round}]; ok {
			rs.Closed = true
		}

	case *CampaignEvent:
		rec.campaigns[e.ID] = append([]byte(nil), e.Def...)
	}
}

// sortedRounds returns the recovered rounds ordered by (campaign,
// round), so recovery hands the back-end a deterministic sequence.
func (rec *recovered) sortedRounds() []*RoundState {
	out := make([]*RoundState, 0, len(rec.rounds))
	for _, rs := range rec.rounds {
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Campaign != out[j].Campaign {
			return out[i].Campaign < out[j].Campaign
		}
		return out[i].Round < out[j].Round
	})
	return out
}
