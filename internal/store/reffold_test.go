package store

import (
	"encoding/binary"
	"sort"
	"testing"
)

// refState is the store tests' reference fold over a replay: the live
// aggregator's acceptance rules spelled out over RoundState — unknown
// or closed round, out-of-roster user, duplicate, layout/seed/suite
// mismatch and stale config version are skipped — with the plain
// per-word report fold. The store itself applies no rule (the back-end's
// applier is the production fold, and its tests hold it to the live
// primary); this reference lets store tests check what a replay hands
// over without a back-end.
type refState struct {
	rounds        map[roundKey]*RoundState
	roster        map[int][]byte
	campaigns     map[uint32][]byte
	configVersion uint32
	rosterVersion uint32
}

// roundKey identifies one round of one campaign.
type roundKey struct {
	Campaign uint32
	Round    uint64
}

func newRefState() *refState {
	return &refState{
		rounds:    make(map[roundKey]*RoundState),
		roster:    make(map[int][]byte),
		campaigns: make(map[uint32][]byte),
	}
}

// load seeds the fold from a replay's snapshot base.
func (rec *refState) load(b *Base) error {
	for _, rs := range b.Rounds {
		rec.rounds[roundKey{rs.Campaign, rs.Round}] = rs
	}
	for u, k := range b.Roster {
		rec.roster[u] = k
	}
	for id, def := range b.Campaigns {
		rec.campaigns[id] = def
	}
	rec.configVersion, rec.rosterVersion = b.ConfigVersion, b.RosterVersion
	return nil
}

// apply folds one replayed event. Byte slices alias the replay buffer,
// so keys and definitions are copied and shares decoded.
func (rec *refState) apply(ev Event) error {
	switch e := ev.(type) {
	case *RegisterEvent:
		rec.roster[e.User] = append([]byte(nil), e.PublicKey...)

	case *OpenEvent:
		rec.bumpVersions(e.ConfigVersion, e.RosterVersion)
		if _, ok := rec.rounds[roundKey{e.Campaign, e.Round}]; ok {
			return nil
		}
		rec.rounds[roundKey{e.Campaign, e.Round}] = &RoundState{
			Campaign: e.Campaign, Round: e.Round, RosterSize: e.RosterSize,
			ConfigVersion: e.ConfigVersion, RosterVersion: e.RosterVersion,
			D: e.D, W: e.W, Seed: e.Seed, Keystream: e.Keystream,
			Cells:    make([]uint64, e.D*e.W),
			Reported: make([]bool, e.RosterSize),
			Adjusts:  make(map[int][]uint64),
		}

	case *ConfigEvent:
		rec.bumpVersions(e.ConfigVersion, e.RosterVersion)

	case *ReportEvent:
		rs, ok := rec.rounds[roundKey{e.Campaign, e.Round}]
		if !ok || rs.Closed || e.User < 0 || e.User >= rs.RosterSize || rs.Reported[e.User] {
			return nil
		}
		if e.D != rs.D || e.W != rs.W || e.Seed != rs.Seed || e.Keystream != rs.Keystream {
			return nil
		}
		if e.ConfigVersion != rs.ConfigVersion {
			return nil
		}
		rs.Reported[e.User] = true
		rs.N += e.N
		for i := range rs.Cells {
			rs.Cells[i] += binary.LittleEndian.Uint64(e.Cells[8*i:])
		}

	case *AdjustEvent:
		rs, ok := rec.rounds[roundKey{e.Campaign, e.Round}]
		if !ok || rs.Closed || e.User < 0 || e.User >= rs.RosterSize || len(e.Cells) != 8*len(rs.Cells) {
			return nil
		}
		cells := make([]uint64, len(rs.Cells))
		for i := range cells {
			cells[i] = binary.LittleEndian.Uint64(e.Cells[8*i:])
		}
		rs.Adjusts[e.User] = cells

	case *CloseEvent:
		if rs, ok := rec.rounds[roundKey{e.Campaign, e.Round}]; ok {
			rs.Closed = true
		}

	case *CampaignEvent:
		rec.campaigns[e.ID] = append([]byte(nil), e.Def...)
	}
	return nil
}

func (rec *refState) bumpVersions(cv, rv uint32) {
	rec.configVersion = max(rec.configVersion, cv)
	rec.rosterVersion = max(rec.rosterVersion, rv)
}

// sortedRounds returns the folded rounds ordered by (campaign, round).
func (rec *refState) sortedRounds() []*RoundState {
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

// replayRef replays st into a fresh reference fold.
func replayRef(tb testing.TB, st Store) *refState {
	tb.Helper()
	rec := newRefState()
	if err := st.Replay(rec.load, rec.apply); err != nil {
		tb.Fatalf("Replay: %v", err)
	}
	return rec
}

// openReplayed opens dir and consumes its replay through the reference
// fold, the way the back-end does at construction.
func openReplayed(tb testing.TB, dir string, opts Options) (*Disk, *refState) {
	tb.Helper()
	d, err := Open(dir, opts)
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	return d, replayRef(tb, d)
}
