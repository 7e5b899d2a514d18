package client

import (
	"eyewnder/internal/backend"
	"eyewnder/internal/privacy"
	"eyewnder/internal/wire"
)

// LocalBackend adapts an in-process *backend.Backend to BackendAPI, so
// simulations and tests can run the full protocol without TCP.
type LocalBackend struct{ B *backend.Backend }

// NegotiateConfig implements ConfigNegotiator: in-process, the
// "handshake" is a direct read of the back-end's current config.
func (l *LocalBackend) NegotiateConfig() (privacy.RoundConfig, error) {
	return l.B.CurrentConfig(), nil
}

// Register implements BackendAPI.
func (l *LocalBackend) Register(user int, publicKey []byte) (int, error) {
	return l.B.Register(user, publicKey)
}

// Roster implements BackendAPI.
func (l *LocalBackend) Roster() ([][]byte, uint32, uint32, error) {
	keys, cv, rv := l.B.Roster()
	return keys, cv, rv, nil
}

// SubmitReport implements BackendAPI: in-process, the report enters the
// back-end exactly as a streamed one does — the same frame, the same
// admission body, then the durability barrier the wire layer runs
// before an ack.
func (l *LocalBackend) SubmitReport(rep *privacy.Report) error {
	if err := l.B.ConsumeReport(wire.ReportFrameOf(rep)); err != nil {
		return err
	}
	return l.B.SyncReports()
}

// RoundStatus implements BackendAPI.
func (l *LocalBackend) RoundStatus(round uint64) (int, []int, bool, error) {
	p, err := l.B.RoundProgressOf(0, round)
	return p.Reported, p.Missing, p.Closed, err
}

// SubmitAdjustment implements BackendAPI.
func (l *LocalBackend) SubmitAdjustment(user int, round uint64, cells []uint64) error {
	return l.B.SubmitAdjustment(0, user, round, 0, cells)
}

// Threshold implements BackendAPI.
func (l *LocalBackend) Threshold(round uint64) (float64, error) {
	return l.B.Threshold(0, round)
}

// AuditAd implements BackendAPI.
func (l *LocalBackend) AuditAd(round uint64, adID uint64) (uint64, error) {
	return l.B.AuditAd(0, round, adID)
}
