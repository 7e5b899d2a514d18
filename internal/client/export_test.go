package client

import (
	"time"

	"eyewnder/internal/wire"
)

// ObserveAdDirect records an already-identified ad (used when impressions
// come from the simulator rather than rendered HTML).
func (e *Extension) ObserveAdDirect(adKey, domain string, at time.Time) error {
	if e.pclient == nil {
		return ErrNotRegistered
	}
	e.state.Observe(adKey, domain, at)
	id, err := e.pclient.ObserveAd(adKey)
	if err != nil {
		return err
	}
	e.adIDs[adKey] = id
	return nil
}

// SubmitAdjustmentIfNeeded asks the back-end which users are missing and,
// if any, uploads this extension's second-round share. It returns the
// missing list. A share refused with privacy.ErrIncompatibleConfig is
// not retried after a re-Join, as a stale report is: a re-joined party
// cannot produce a share for a round opened under the old roster.
func (e *Extension) SubmitAdjustmentIfNeeded(round uint64) ([]int, error) {
	if e.pclient == nil {
		return nil, ErrNotRegistered
	}
	_, missing, closed, err := e.backend.RoundStatus(round)
	if err != nil {
		return nil, err
	}
	if closed || len(missing) == 0 {
		return missing, nil
	}
	cms, err := e.rcfg.Params.NewSketch()
	if err != nil {
		return nil, err
	}
	adj, err := e.pclient.Adjust(round, cms.Cells(), missing)
	if err != nil {
		return nil, err
	}
	share := wire.AdjustFrame(e.user, round, cms.Depth(), cms.Width(),
		byte(e.rcfg.Params.Keystream), e.rcfg.Version, adj)
	return missing, e.backend.Submit(share)
}
