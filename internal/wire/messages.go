package wire

// Message type identifiers for the three Figure 1 conversations.
const (
	// Extension ↔ oprf-server.
	TypeOPRFPublicKey   = "oprf.public_key"
	TypeOPRFEvaluate    = "oprf.evaluate"
	TypeOPRFPublicKeyOK = "oprf.public_key_ok"
	TypeOPRFEvaluateOK  = "oprf.evaluate_ok"

	// Extension ↔ back-end. There is no submit_report or
	// submit_adjustment request: reports and adjustment shares enter only
	// as binary frames (stream.go), acknowledged in batches (batch.go).
	TypeRegister      = "backend.register"
	TypeRegisterOK    = "backend.register_ok"
	TypeRoster        = "backend.roster"
	TypeRosterOK      = "backend.roster_ok"
	TypeAckBatch      = "backend.ack_batch"
	TypeAckBatchOK    = "backend.ack_batch_ok"
	TypeRoundStatus   = "backend.round_status"
	TypeRoundStatusOK = "backend.round_status_ok"
	TypeCloseRound    = "backend.close_round"
	TypeCloseRoundOK  = "backend.close_round_ok"
	TypeRoundCounts   = "backend.round_counts"
	TypeRoundCountsOK = "backend.round_counts_ok"
	TypeThreshold     = "backend.threshold"
	TypeThresholdOK   = "backend.threshold_ok"
	TypeAuditAd       = "backend.audit_ad"
	TypeAuditAdOK     = "backend.audit_ad_ok"
	TypeCampaignAdd   = "backend.campaign_add"
	TypeCampaignAddOK = "backend.campaign_add_ok"

	// Operator ↔ follower (replication admin; see internal/repl).
	TypePromote   = "repl.promote"
	TypePromoteOK = "repl.promote_ok"
)

// OPRFEvaluateReq carries a blinded group element (big-endian bytes).
type OPRFEvaluateReq struct {
	Blinded []byte `json:"blinded"`
}

// OPRFEvaluateResp carries the signed blinded element.
type OPRFEvaluateResp struct {
	Signed []byte `json:"signed"`
}

// OPRFPublicKeyResp publishes (N, e).
type OPRFPublicKeyResp struct {
	N []byte `json:"n"`
	E int    `json:"e"`
}

// RegisterReq enrolls a user with its blinding public key. The back-end
// doubles as the bulletin board of Section 6 (footnote 5: "the board may
// be as well hosted at the back-end server").
type RegisterReq struct {
	User      int    `json:"user"`
	PublicKey []byte `json:"public_key"`
}

// RegisterResp acknowledges enrollment.
type RegisterResp struct {
	RosterSize int `json:"roster_size"`
}

// RosterResp returns the bulletin board. Index i holds user i's key;
// unregistered slots are null. ConfigVersion and RosterVersion stamp
// the negotiated state the board is current at (absent = 0 from an
// older server): a client derives its pairwise blinding secrets from
// exactly this board, so its reports carry this ConfigVersion and the
// aggregator can reject reports blinded against a superseded roster.
// Board and versions travel in one response so no registration can
// slip between them.
type RosterResp struct {
	PublicKeys    [][]byte `json:"public_keys"`
	ConfigVersion uint32   `json:"config_version,omitempty"`
	RosterVersion uint32   `json:"roster_version,omitempty"`
}

// AckBatchReq switches the connection's streamed-report acknowledgements
// to batched binary ack frames (see wire/batch.go). Answered by the wire
// server itself, not the application handler.
type AckBatchReq struct{}

// AckBatchResp returns the server's (initial) ack batch size k: an ack
// is requested every k streamed frames (plus idle/round-boundary/marker
// flushes), and requests coalesce while an ack is in flight.
type AckBatchResp struct {
	K int `json:"k"`
}

// RoundStatusResp describes an open round's progress. Reported and
// Missing are one consistent observation (reported + len(missing) =
// roster size, always). Sealed means the round stopped admitting
// reports (a deadline close is in progress — see CloseRoundReq), so
// Missing is final: reporters compute their adjustment shares against
// exactly this list. Adjusted counts the reporters whose second-round
// shares have been stored so far. Both fields are absent from older
// servers and decode as zero values.
type RoundStatusResp struct {
	Campaign uint32 `json:"campaign,omitempty"`
	Round    uint64 `json:"round"`
	Reported int    `json:"reported"`
	Missing  []int  `json:"missing"`
	Closed   bool   `json:"closed"`
	Sealed   bool   `json:"sealed,omitempty"`
	Adjusted int    `json:"adjusted,omitempty"`
}

// CloseRoundReq finalizes a round: the back-end unblinds the aggregate
// and computes the Users_th threshold. A nonzero AdjustWaitMS makes it
// a deadline close: the round first *seals* (stops admitting reports,
// freezing the missing set) and the close then waits up to the given
// milliseconds for every reporter's adjustment share to land before
// finalizing — the shutter the churn harness uses to close rounds with
// permanently-lost users. Absent (or 0) preserves the original
// immediate-close behavior.
type CloseRoundReq struct {
	Campaign     uint32 `json:"campaign,omitempty"`
	Round        uint64 `json:"round"`
	AdjustWaitMS int64  `json:"adjust_wait_ms,omitempty"`
}

// CloseRoundResp reports the computed global statistics.
type CloseRoundResp struct {
	Campaign    uint32  `json:"campaign,omitempty"`
	Round       uint64  `json:"round"`
	UsersTh     float64 `json:"users_th"`
	DistinctAds int     `json:"distinct_ads"`
}

// RoundCountsReq asks for a closed round's full per-ad-ID user-count
// map — the byte-exact ground the churn harness compares its trace
// oracle against (auditing IDs one by one would cost IDSpace round
// trips per round).
type RoundCountsReq struct {
	Campaign uint32 `json:"campaign,omitempty"`
	Round    uint64 `json:"round"`
}

// RoundCountsResp returns the per-ad-ID estimated user counts of a
// closed round (JSON object keys are the decimal ad IDs).
type RoundCountsResp struct {
	Campaign uint32            `json:"campaign,omitempty"`
	Round    uint64            `json:"round"`
	Counts   map[uint64]uint64 `json:"counts"`
}

// ThresholdReq asks for a closed round's Users_th (Figure 1, arrow 5).
type ThresholdReq struct {
	Campaign uint32 `json:"campaign,omitempty"`
	Round    uint64 `json:"round"`
}

// ThresholdResp returns the published threshold.
type ThresholdResp struct {
	Campaign uint32  `json:"campaign,omitempty"`
	Round    uint64  `json:"round"`
	UsersTh  float64 `json:"users_th"`
}

// AuditAdReq asks the back-end for #Users of an ad ID so the extension
// can finish a real-time audit.
type AuditAdReq struct {
	Campaign uint32 `json:"campaign,omitempty"`
	Round    uint64 `json:"round"`
	AdID     uint64 `json:"ad_id"`
}

// AuditAdResp returns the estimated user count.
type AuditAdResp struct {
	Users uint64 `json:"users"`
}

// CampaignAddReq provisions (or re-provisions, last write wins) a
// counting campaign on a primary. The fields mirror
// campaign.Campaign; zero geometry fields inherit the deployment base
// params. Admin-plane: served by eyewnder-server's admin listener, not
// the public report endpoint.
type CampaignAddReq struct {
	ID           uint32  `json:"id"`
	Name         string  `json:"name,omitempty"`
	Epsilon      float64 `json:"epsilon,omitempty"`
	Delta        float64 `json:"delta,omitempty"`
	IDSpace      uint64  `json:"id_space,omitempty"`
	Keystream    byte    `json:"keystream,omitempty"`
	KeystreamSet bool    `json:"keystream_set,omitempty"`
	RetainRounds int     `json:"retain_rounds,omitempty"`
	CadenceSec   uint32  `json:"cadence_sec,omitempty"`
}

// CampaignAddResp acknowledges a provisioned campaign. Campaigns is the
// directory size after the add — the operator's check that the
// directory actually grew (or stayed put on a re-provision).
type CampaignAddResp struct {
	ID        uint32 `json:"id"`
	Campaigns int    `json:"campaigns"`
}

// PromoteReq asks a follower to stop replicating and take over as
// primary (the admin-op twin of SIGUSR1; see internal/repl). The
// follower detaches from its primary, re-opens its mirrored data
// directory through the recovery path, and starts serving writes.
type PromoteReq struct{}

// PromoteResp acknowledges a promotion. Rounds is the number of rounds
// the promoted store recovered — the operator's quick sanity check that
// the mirror actually held state.
type PromoteResp struct {
	Rounds int `json:"rounds"`
}
