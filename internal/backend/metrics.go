package backend

import (
	"errors"
	"strconv"

	"eyewnder/internal/obs"
	"eyewnder/internal/privacy"
	"eyewnder/internal/sketch"
)

// backendMetrics holds the back-end's pre-registered instrument
// handles. Every handle is resolved at construction, so the ingestion
// hot path (ConsumeReport's accept branch) is a single atomic add — no
// registry lookup, no allocation. Rejections classify their error to a
// pre-registered reason counter with errors.Is over the package's
// sentinel errors, which walks the wrap chain without allocating.
type backendMetrics struct {
	// reg is kept so per-campaign handles can be registered lazily at
	// provision time (campaign counters are resolved once per campaign,
	// cached in campaignState, never looked up on the hot path).
	reg *obs.Registry

	accepted *obs.Counter
	// acceptedC0 is campaign 0's pre-registered per-campaign handle:
	// legacy traffic bumps it without a map lookup.
	acceptedC0 *obs.Counter

	rejReplica   *obs.Counter
	rejUnknown   *obs.Counter
	rejClosed    *obs.Counter
	rejSealed    *obs.Counter
	rejStale     *obs.Counter
	rejSuite     *obs.Counter
	rejDuplicate *obs.Counter
	rejGeometry  *obs.Counter
	rejBadUser   *obs.Counter
	rejOther     *obs.Counter

	roundsOpened   *obs.Counter
	roundsSealed   *obs.Counter
	roundsAdjusted *obs.Counter
	roundsClosed   *obs.Counter

	adjShares *obs.Counter

	// The close, stage by stage (eyewnder_round_close_stage_seconds):
	// subtract, extract and threshold are finalizeLocked's three steps —
	// observed on a live close, a recovery re-finalize and a replica's
	// close-apply alike — and log_sync is the close record's append +
	// fsync, which only a live close pays.
	closeSubtract  *obs.Histogram
	closeExtract   *obs.Histogram
	closeThreshold *obs.Histogram
	closeLogSync   *obs.Histogram

	adjReplica     *obs.Counter
	adjBadUser     *obs.Counter
	adjGeometry    *obs.Counter
	adjUnknown     *obs.Counter
	adjClosed      *obs.Counter
	adjStale       *obs.Counter
	adjSuite       *obs.Counter
	adjNotReporter *obs.Counter
	adjConflict    *obs.Counter
	adjOther       *obs.Counter
}

// newBackendMetrics registers the back-end instruments in reg (or a
// private registry when reg is nil, so the handles are always real).
func newBackendMetrics(reg *obs.Registry) *backendMetrics {
	reg = obs.Ensure(reg)
	rej := func(reason string) *obs.Counter {
		return reg.Counter("eyewnder_reports_rejected_total",
			"Reports refused, by rejection reason.", "reason", reason)
	}
	adjFail := func(reason string) *obs.Counter {
		return reg.Counter("eyewnder_adjust_failures_total",
			"Adjustment-share uploads refused, by rejection reason.", "reason", reason)
	}
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("eyewnder_round_close_stage_seconds",
			"Round close latency by stage: subtract (clone the aggregate, subtract adjustment shares), extract (ID-space sweep into the count table), threshold (Users_th), log_sync (close record append + fsync).",
			nil, "stage", name)
	}
	m := &backendMetrics{
		reg: reg,
		accepted: reg.Counter("eyewnder_reports_accepted_total",
			"Blinded reports reserved, logged, and folded into a round aggregate."),

		rejReplica:   rej("replica"),
		rejUnknown:   rej("unknown_round"),
		rejClosed:    rej("round_closed"),
		rejSealed:    rej("round_sealed"),
		rejStale:     rej("stale_version"),
		rejSuite:     rej("suite_mismatch"),
		rejDuplicate: rej("duplicate"),
		rejGeometry:  rej("geometry"),
		rejBadUser:   rej("bad_user"),
		rejOther:     rej("other"),

		roundsOpened: reg.Counter("eyewnder_rounds_opened_total",
			"Rounds created on first touch (open record logged)."),
		roundsSealed: reg.Counter("eyewnder_rounds_sealed_total",
			"Rounds sealed by a deadline close (missing set frozen)."),
		roundsAdjusted: reg.Counter("eyewnder_rounds_adjusted_total",
			"Rounds that entered the adjustment round (first share stored)."),
		roundsClosed: reg.Counter("eyewnder_rounds_closed_total",
			"Rounds closed (final sketch unblinded, Users_th published)."),

		adjShares: reg.Counter("eyewnder_adjust_shares_total",
			"Second-round adjustment shares accepted and stored."),

		closeSubtract:  stage("subtract"),
		closeExtract:   stage("extract"),
		closeThreshold: stage("threshold"),
		closeLogSync:   stage("log_sync"),

		adjReplica:     adjFail("replica"),
		adjBadUser:     adjFail("bad_user"),
		adjGeometry:    adjFail("geometry"),
		adjUnknown:     adjFail("unknown_round"),
		adjClosed:      adjFail("round_closed"),
		adjStale:       adjFail("stale_version"),
		adjSuite:       adjFail("suite_mismatch"),
		adjNotReporter: adjFail("not_reporter"),
		adjConflict:    adjFail("conflict"),
		adjOther:       adjFail("other"),
	}
	m.acceptedC0 = m.campaignAccepted(0)
	return m
}

// campaignAccepted resolves the per-campaign accepted-report counter —
// one "campaign"-labeled series per provisioned campaign (and the
// implicit campaign 0). Re-resolving an existing label returns the same
// handle, so a campaign re-provision keeps its running count.
func (m *backendMetrics) campaignAccepted(id uint32) *obs.Counter {
	return m.reg.Counter("eyewnder_campaign_reports_accepted_total",
		"Blinded reports accepted, by campaign.",
		"campaign", strconv.FormatUint(uint64(id), 10))
}

// reportReason maps a report-path error to its rejection counter.
func (m *backendMetrics) reportReason(err error) *obs.Counter {
	switch {
	case errors.Is(err, ErrReadOnlyReplica):
		return m.rejReplica
	case errors.Is(err, ErrUnknownRound):
		return m.rejUnknown
	case errors.Is(err, ErrRoundClosed):
		return m.rejClosed
	case errors.Is(err, ErrRoundSealed):
		return m.rejSealed
	case errors.Is(err, privacy.ErrIncompatibleConfig):
		return m.rejStale
	case errors.Is(err, privacy.ErrKeystreamMismatch):
		return m.rejSuite
	case errors.Is(err, privacy.ErrDuplicate):
		return m.rejDuplicate
	case errors.Is(err, sketch.ErrDimensionMismatch):
		return m.rejGeometry
	case errors.Is(err, ErrBadUser):
		return m.rejBadUser
	default:
		return m.rejOther
	}
}

// adjustReason maps an adjustment-path error to its failure counter.
func (m *backendMetrics) adjustReason(err error) *obs.Counter {
	switch {
	case errors.Is(err, ErrReadOnlyReplica):
		return m.adjReplica
	case errors.Is(err, ErrBadUser):
		return m.adjBadUser
	case errors.Is(err, sketch.ErrDimensionMismatch):
		return m.adjGeometry
	case errors.Is(err, ErrUnknownRound):
		return m.adjUnknown
	case errors.Is(err, ErrRoundClosed):
		return m.adjClosed
	case errors.Is(err, privacy.ErrIncompatibleConfig):
		return m.adjStale
	case errors.Is(err, privacy.ErrKeystreamMismatch):
		return m.adjSuite
	case errors.Is(err, ErrAdjustNotReporter):
		return m.adjNotReporter
	case errors.Is(err, ErrAdjustConflict):
		return m.adjConflict
	default:
		return m.adjOther
	}
}
