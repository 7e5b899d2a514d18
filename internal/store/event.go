package store

import "encoding/binary"

// Decoded WAL events: the exported, typed view of the record layer.
//
// Every consumer of WAL records — restart (Store.Replay feeding the
// back-end's applier), the replication follower's live tail (internal/repl
// feeding backend.ApplyEvent, the same applier), and offline WAL tooling
// — must agree byte-for-byte on what each record means. DecodeEvent is
// the single decode path all of them share. The record layouts
// themselves are documented in record.go; the acceptance rules (what a
// decoded event *does* to round state) live in the back-end's applier,
// not in this package.

// Event is one decoded WAL record. The concrete types are
// RegisterEvent, ConfigEvent, OpenEvent, ReportEvent, AdjustEvent,
// CloseEvent, and CampaignEvent. Byte-slice fields alias the record buffer handed to
// DecodeEvent and are valid only until that buffer's next reuse — copy
// to retain.
type Event interface {
	// recordKind names the WAL record kind the event decodes, tying the
	// implementations to this package's record set.
	recordKind() byte
}

// RegisterEvent is a bulletin-board registration: user u's blinding
// public key was stored (last write wins).
type RegisterEvent struct {
	// User is the registering user's roster index.
	User int
	// PublicKey is the blinding public key; it aliases the record
	// buffer.
	PublicKey []byte
}

func (*RegisterEvent) recordKind() byte { return recRegister }

// ConfigEvent is a bump of the deployment-wide config/roster version
// counters (a registration changed the bulletin board). Counters only
// ever grow; replaying an older bump on top of a newer state is a
// no-op.
type ConfigEvent struct {
	// ConfigVersion is the deployment-wide round-config version after
	// the bump.
	ConfigVersion uint32
	// RosterVersion is the deployment-wide roster version after the
	// bump.
	RosterVersion uint32
}

func (*ConfigEvent) recordKind() byte { return recConfig }

// OpenEvent is a round creation: the geometry, roster size, blinding
// suite, and negotiated config the round is pinned to for its whole
// life.
type OpenEvent struct {
	// Round is the round identifier.
	Round uint64
	// RosterSize is the enrolled-user count the round expects reports
	// from.
	RosterSize int
	// D and W fix the CMS cell layout of the round aggregate.
	D, W int
	// Seed is the sketch hash seed the round's reporters agreed on.
	Seed uint64
	// Keystream is the round's blinding-suite byte.
	Keystream byte
	// Campaign is the counting campaign the round belongs to (0 = the
	// deployment's implicit legacy campaign).
	Campaign uint32
	// ConfigVersion and RosterVersion pin the negotiated config current
	// at the open.
	ConfigVersion uint32
	RosterVersion uint32
}

func (*OpenEvent) recordKind() byte { return recOpen }

// ReportEvent is one accepted report: the streamed wire frame's payload
// — header fields plus the raw little-endian cell block — logged before
// the cells folded into the aggregate.
type ReportEvent struct {
	// Round is the round the report folds into.
	Round uint64
	// User is the reporter's roster index.
	User int
	// D and W are the report sketch's cell layout; they must match the
	// round's.
	D, W int
	// N is the report's total update weight.
	N uint64
	// Seed is the report sketch's hash seed; it must match the round's.
	Seed uint64
	// Keystream is the report's blinding-suite byte.
	Keystream byte
	// Campaign is the counting campaign the report folds into (0 = the
	// legacy campaign).
	Campaign uint32
	// ConfigVersion is the negotiated config version the report was
	// built under.
	ConfigVersion uint32
	// Cells is the raw little-endian cell block (8·d·w bytes); it
	// aliases the record buffer.
	Cells []byte
}

func (*ReportEvent) recordKind() byte { return recReport }

// AdjustEvent is an accepted second-round adjustment share (last write
// wins, like the live share map).
type AdjustEvent struct {
	// Round is the round the share repairs.
	Round uint64
	// Campaign is the counting campaign the round belongs to.
	Campaign uint32
	// User is the submitting reporter's roster index.
	User int
	// Cells is the share's raw little-endian cell block; it aliases the
	// record buffer.
	Cells []byte
}

func (*AdjustEvent) recordKind() byte { return recAdjust }

// CloseEvent is a round finalization.
type CloseEvent struct {
	// Round is the round that closed.
	Round uint64
	// Campaign is the counting campaign the round belongs to.
	Campaign uint32
}

func (*CloseEvent) recordKind() byte { return recClose }

// CampaignEvent is a campaign provisioning: the campaign registry's
// canonical encoding, carried opaquely (last write wins per ID). The
// store does not interpret the geometry inside — the backend decodes
// it through the campaign registry on recovery.
type CampaignEvent struct {
	// ID is the campaign identifier, read from the encoding prefix.
	ID uint32
	// Def is the opaque canonical campaign encoding; it aliases the
	// record buffer.
	Def []byte
}

func (*CampaignEvent) recordKind() byte { return recCampaign }

// DecodeEvent parses one WAL record body (as returned by ReadWALRecord)
// into its typed event. A body that does not parse for its kind — or an
// unknown kind under a valid checksum — returns ErrBadRecord: that is
// version skew or an encoder bug, not a torn tail, and the caller must
// not silently skip it. Byte-slice fields of the returned event alias
// body.
func DecodeEvent(kind byte, body []byte) (Event, error) {
	switch kind {
	case recRegister:
		r, err := decodeRegisterBody(body)
		if err != nil {
			return nil, err
		}
		return &RegisterEvent{User: int(r.User), PublicKey: r.Key}, nil

	case recConfig:
		cv, rv, err := decodeConfigBody(body)
		if err != nil {
			return nil, err
		}
		return &ConfigEvent{ConfigVersion: cv, RosterVersion: rv}, nil

	case recOpen:
		r, err := decodeOpenBody(body)
		if err != nil {
			return nil, err
		}
		return &OpenEvent{
			Round: r.Round, RosterSize: int(r.Roster),
			D: int(r.D), W: int(r.W), Seed: r.Seed, Keystream: r.Keystream,
			Campaign:      r.Campaign,
			ConfigVersion: r.ConfigVersion, RosterVersion: r.RosterVersion,
		}, nil

	case recReport:
		r, err := decodeReportBody(body)
		if err != nil {
			return nil, err
		}
		return &ReportEvent{
			Round: r.Round, User: int(r.User),
			D: int(r.D), W: int(r.W), N: r.N, Seed: r.Seed,
			Keystream: r.Keystream, Campaign: r.Campaign,
			ConfigVersion: r.ConfigVersion,
			Cells:         r.Cells,
		}, nil

	case recAdjust:
		r, err := decodeAdjustBody(body)
		if err != nil {
			return nil, err
		}
		return &AdjustEvent{Round: r.Round, User: int(r.User), Campaign: r.Campaign, Cells: r.Cells}, nil

	case recClose:
		switch len(body) {
		case 8:
			return &CloseEvent{Round: binary.LittleEndian.Uint64(body)}, nil
		case 12:
			c := binary.LittleEndian.Uint32(body[8:])
			if c == 0 || c > maxRecordCampaign {
				return nil, ErrBadRecord
			}
			return &CloseEvent{Round: binary.LittleEndian.Uint64(body), Campaign: c}, nil
		}
		return nil, ErrBadRecord

	case recCampaign:
		id, def, err := decodeCampaignBody(body)
		if err != nil {
			return nil, err
		}
		return &CampaignEvent{ID: id, Def: def}, nil
	}
	return nil, ErrBadRecord
}
