// Package client implements the browser-extension analogue: the
// user-side component of Figure 1. It glues together
//
//   - ad detection on visited pages (package addetect),
//   - the local count-based state and classification (package detector),
//   - the privacy-preserving reporting pipeline (package privacy),
//
// and speaks the wire protocol to the back-end and the oprf-server.
// Everything privacy-sensitive — the browsing history, the per-ad domain
// counters, Domains_th,u — stays inside this process, exactly as the
// paper requires.
package client

import (
	crand "crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"time"

	"eyewnder/internal/addetect"
	"eyewnder/internal/blind"
	"eyewnder/internal/detector"
	"eyewnder/internal/group"
	"eyewnder/internal/oprf"
	"eyewnder/internal/privacy"
	"eyewnder/internal/wire"
)

// Errors returned by the package.
var ErrNotRegistered = errors.New("client: extension not registered")

// BackendAPI is the subset of back-end operations the extension needs.
// *wire.Client-backed and in-process implementations both satisfy it.
// Roster returns the bulletin board together with the config/roster
// versions it is current at, in one atomic response — the extension
// pins its reports to exactly that negotiated state. Submit is the one
// upload: a report or an adjustment share as its streamed frame, stamped
// with the blinding suite and config version the party joined under.
// NegotiateConfig fetches the server's round config — the wire adapter
// performs the Hello/Welcome handshake, the in-process adapter reads the
// back-end's CurrentConfig — so the server, not a mirrored flag set,
// decides the sketch geometry, ad-ID space, and blinding-keystream
// suite.
type BackendAPI interface {
	NegotiateConfig() (privacy.RoundConfig, error)
	Register(user int, publicKey []byte) (rosterSize int, err error)
	Roster() (keys [][]byte, configVersion, rosterVersion uint32, err error)
	Submit(f *wire.ReportFrame) error
	RoundStatus(round uint64) (reported int, missing []int, closed bool, err error)
	Threshold(round uint64) (float64, error)
	AuditAd(round uint64, adID uint64) (users uint64, err error)
}

// Extension is one user's eyeWnder instance.
type Extension struct {
	user    int
	cfg     detector.Config
	rcfg    privacy.RoundConfig
	priv    group.PrivateKey
	det     *addetect.Detector
	state   *detector.UserState
	backend BackendAPI
	eval    privacy.Evaluator
	oprfPub oprf.PublicKey

	pclient *privacy.Client // built after Join once the roster is known
	// adIDs caches ad key -> ad ID for audits.
	adIDs map[string]uint64
}

// Options configures a new Extension.
type Options struct {
	User     int
	Detector detector.Config
	Rules    *addetect.Ruleset
}

// New creates an extension for one user. backendAPI and eval connect it
// to the two servers; oprfPub is the oprf-server's public key. The
// protocol config is negotiated from the backend before anything else —
// a server speaking an unknown blinding suite or group surfaces as
// ErrIncompatibleConfig here, not as a corrupted round later.
func New(opts Options, backendAPI BackendAPI, eval privacy.Evaluator, oprfPub oprf.PublicKey) (*Extension, error) {
	rcfg, err := backendAPI.NegotiateConfig()
	if err != nil {
		return nil, err
	}
	priv, err := rcfg.Params.Suite.GenerateKey(crand.Reader)
	if err != nil {
		return nil, fmt.Errorf("client: key generation: %w", err)
	}
	return &Extension{
		user:    opts.User,
		cfg:     opts.Detector,
		rcfg:    rcfg,
		priv:    priv,
		det:     addetect.New(opts.Rules),
		state:   detector.NewUserState(opts.Detector),
		backend: backendAPI,
		eval:    eval,
		oprfPub: oprfPub,
		adIDs:   make(map[string]uint64),
	}, nil
}

// User returns the extension's roster index.
func (e *Extension) User() int { return e.user }

// Config returns the round config the extension operates under: the
// negotiated protocol geometry, with the config/roster versions pinned
// at the last successful Join.
func (e *Extension) Config() privacy.RoundConfig { return e.rcfg }

// Register publishes the user's blinding key on the bulletin board.
func (e *Extension) Register() error {
	_, err := e.backend.Register(e.user, e.priv.PublicKey())
	return err
}

// Join downloads the roster and derives the pairwise blinding secrets,
// pinning the extension to the config version the board was served at:
// every report it produces from here carries that version, so if the
// roster changes (a re-registration bumps the version) its reports are
// cleanly rejected with privacy.ErrIncompatibleConfig — re-Join to
// adopt the new roster, which SubmitReport does by itself — instead of
// breaking blinding cancellation. A re-Join keeps everything the user
// has accumulated: the ad-ID cache and the open round's observations.
// Call it after every user has registered.
func (e *Extension) Join() error {
	roster, cv, rv, err := e.backend.Roster()
	if err != nil {
		return err
	}
	if e.rcfg.RosterSize > 0 && len(roster) != e.rcfg.RosterSize {
		return fmt.Errorf("%w: roster has %d slots, negotiated config says %d",
			privacy.ErrIncompatibleConfig, len(roster), e.rcfg.RosterSize)
	}
	for i, k := range roster {
		if k == nil {
			return fmt.Errorf("client: roster slot %d empty — not all users registered", i)
		}
	}
	party, err := blind.NewPartyKeystream(e.priv, roster, e.user, e.rcfg.Params.Keystream)
	if err != nil {
		return err
	}
	e.rcfg.Version, e.rcfg.RosterVersion, e.rcfg.RosterSize = cv, rv, len(roster)
	if e.pclient == nil {
		e.pclient = privacy.NewClient(e.rcfg, party, e.oprfPub, e.eval)
	} else {
		e.pclient = e.pclient.Rejoined(e.rcfg, party)
	}
	return nil
}

// VisitPage processes one page view: detect the ads, update the local
// counters, and queue the ads for the next privacy-preserving report.
// It returns the detected ads.
func (e *Extension) VisitPage(domain, html string, at time.Time) ([]*addetect.Ad, error) {
	if e.pclient == nil {
		return nil, ErrNotRegistered
	}
	ads := e.det.Scan(html)
	for _, ad := range ads {
		key := ad.Key()
		e.state.Observe(key, domain, at)
		id, err := e.pclient.ObserveAd(key)
		if err != nil {
			return nil, err
		}
		e.adIDs[key] = id
	}
	return ads, nil
}

// maxRejoins bounds how often one SubmitReport re-Joins after a
// stale-config rejection: each registration that lands between a Join
// and the upload costs one, so a handful covers a whole roster
// re-enrolling at once, and a version that never settles is an error
// rather than a loop.
const maxRejoins = 8

// SubmitReport blinds and uploads the round's sketch. A report refused
// with privacy.ErrIncompatibleConfig — the roster changed since the
// last Join, so the blinding was derived from superseded keys — is
// answered the way Join's contract says: re-Join to adopt the current
// roster, rebuild the report from the same observations under the new
// blinding, and upload again, at most maxRejoins times. The round's
// observations are cleared only once the back-end has accepted the
// report.
func (e *Extension) SubmitReport(round uint64) error {
	if e.pclient == nil {
		return ErrNotRegistered
	}
	for rejoins := 0; ; rejoins++ {
		rep, err := e.pclient.BuildReport(round)
		if err != nil {
			return err
		}
		err = e.backend.Submit(wire.ReportFrameOf(rep))
		if err == nil {
			e.pclient.EndRound()
			return nil
		}
		if !errors.Is(err, privacy.ErrIncompatibleConfig) || rejoins == maxRejoins {
			return err
		}
		if err := e.Join(); err != nil {
			return fmt.Errorf("client: re-join after a stale-config rejection: %w", err)
		}
	}
}

// AuditAd performs the real-time audit of Section 5: given an ad key the
// user is looking at, fetch the global #Users estimate and the published
// Users_th, combine them with the local counters, and return the verdict.
func (e *Extension) AuditAd(adKey string, round uint64, now time.Time) (detector.Verdict, error) {
	if e.pclient == nil {
		return detector.Verdict{}, ErrNotRegistered
	}
	id, ok := e.adIDs[adKey]
	if !ok {
		// The ad was never observed by this user; resolve its ID now.
		var err error
		id, err = e.pclient.ObserveAd(adKey)
		if err != nil {
			return detector.Verdict{}, err
		}
		e.adIDs[adKey] = id
	}
	users, err := e.backend.AuditAd(round, id)
	if err != nil {
		return detector.Verdict{}, err
	}
	th, err := e.backend.Threshold(round)
	if err != nil {
		return detector.Verdict{}, err
	}
	return e.state.Classify(adKey, users, th, now), nil
}

// --- wire-backed BackendAPI and Evaluator adapters ---

// WireBackend adapts a wire.Client to BackendAPI.
type WireBackend struct{ C *wire.Client }

// NegotiateConfig implements BackendAPI: the Hello/Welcome
// handshake, with the advertised frame validated and converted into a
// privacy.RoundConfig. A server that predates the handshake, or one
// advertising a group or blinding suite this build does not implement,
// surfaces as (an error wrapping) privacy.ErrIncompatibleConfig.
func (w *WireBackend) NegotiateConfig() (privacy.RoundConfig, error) {
	cf, err := w.C.Handshake()
	if err != nil {
		return privacy.RoundConfig{}, fmt.Errorf("%w: %v", privacy.ErrIncompatibleConfig, err)
	}
	return RoundConfigFromFrame(cf)
}

// RoundConfigFromFrame validates a Welcome-frame config and converts it
// to the privacy layer's typed form.
func RoundConfigFromFrame(cf wire.ConfigFrame) (privacy.RoundConfig, error) {
	if cf.Group != wire.GroupP256 {
		return privacy.RoundConfig{}, fmt.Errorf("%w: unknown DH group %#02x", privacy.ErrIncompatibleConfig, cf.Group)
	}
	ks := blind.Keystream(cf.Keystream)
	if !ks.Valid() {
		return privacy.RoundConfig{}, fmt.Errorf("%w: unknown keystream suite %#02x", privacy.ErrIncompatibleConfig, cf.Keystream)
	}
	if cf.Epsilon <= 0 || cf.Delta <= 0 || cf.IDSpace == 0 {
		return privacy.RoundConfig{}, fmt.Errorf("%w: degenerate geometry (ε=%g δ=%g |A|=%d)",
			privacy.ErrIncompatibleConfig, cf.Epsilon, cf.Delta, cf.IDSpace)
	}
	return privacy.RoundConfig{
		Version:       cf.ConfigVersion,
		RosterVersion: cf.RosterVersion,
		RosterSize:    int(cf.RosterSize),
		Params: privacy.Params{
			Epsilon: cf.Epsilon, Delta: cf.Delta, IDSpace: cf.IDSpace,
			Suite: group.P256(), Keystream: ks,
		},
	}, nil
}

// Register implements BackendAPI.
func (w *WireBackend) Register(user int, publicKey []byte) (int, error) {
	var resp wire.RegisterResp
	err := w.C.Do(wire.TypeRegister, wire.RegisterReq{User: user, PublicKey: publicKey}, &resp)
	return resp.RosterSize, err
}

// Roster implements BackendAPI.
func (w *WireBackend) Roster() ([][]byte, uint32, uint32, error) {
	var resp wire.RosterResp
	if err := w.C.Do(wire.TypeRoster, struct{}{}, &resp); err != nil {
		return nil, 0, 0, err
	}
	return resp.PublicKeys, resp.ConfigVersion, resp.RosterVersion, nil
}

// Submit implements BackendAPI: the frame goes out binary — its cell
// block one raw little-endian run the server reads directly into its
// pooled cell slices — over batched acks, and a remote stale-config
// refusal comes back as ErrIncompatibleConfig.
func (w *WireBackend) Submit(f *wire.ReportFrame) error {
	err := w.C.SubmitReportFrame(f)
	if err != nil && strings.Contains(err.Error(), privacy.ErrIncompatibleConfig.Error()) {
		return staleConfigError{err}
	}
	return err
}

// staleConfigError gives a remote stale-config rejection — which
// crosses the wire as text — its identity back, so callers can match it
// with errors.Is(err, privacy.ErrIncompatibleConfig) exactly as they
// match the in-process rejection. The message is the remote one.
type staleConfigError struct{ remote error }

func (e staleConfigError) Error() string { return e.remote.Error() }
func (e staleConfigError) Unwrap() error { return privacy.ErrIncompatibleConfig }

// RoundStatus implements BackendAPI.
func (w *WireBackend) RoundStatus(round uint64) (int, []int, bool, error) {
	var resp wire.RoundStatusResp
	err := w.C.Do(wire.TypeRoundStatus, wire.CloseRoundReq{Round: round}, &resp)
	return resp.Reported, resp.Missing, resp.Closed, err
}

// Threshold implements BackendAPI.
func (w *WireBackend) Threshold(round uint64) (float64, error) {
	var resp wire.ThresholdResp
	err := w.C.Do(wire.TypeThreshold, wire.ThresholdReq{Round: round}, &resp)
	return resp.UsersTh, err
}

// AuditAd implements BackendAPI.
func (w *WireBackend) AuditAd(round uint64, adID uint64) (uint64, error) {
	var resp wire.AuditAdResp
	err := w.C.Do(wire.TypeAuditAd, wire.AuditAdReq{Round: round, AdID: adID}, &resp)
	return resp.Users, err
}

// WireEvaluator adapts a wire.Client to privacy.Evaluator (the
// oprf-server connection).
type WireEvaluator struct{ C *wire.Client }

// Evaluate implements privacy.Evaluator over the wire.
func (w *WireEvaluator) Evaluate(blinded *big.Int) (*big.Int, error) {
	var resp wire.OPRFEvaluateResp
	err := w.C.Do(wire.TypeOPRFEvaluate, wire.OPRFEvaluateReq{Blinded: blinded.Bytes()}, &resp)
	if err != nil {
		return nil, err
	}
	return new(big.Int).SetBytes(resp.Signed), nil
}

// FetchOPRFPublicKey downloads (N, e) from a wire oprf-server.
func FetchOPRFPublicKey(c *wire.Client) (oprf.PublicKey, error) {
	var resp wire.OPRFPublicKeyResp
	if err := c.Do(wire.TypeOPRFPublicKey, struct{}{}, &resp); err != nil {
		return oprf.PublicKey{}, err
	}
	return oprf.PublicKey{N: new(big.Int).SetBytes(resp.N), E: resp.E}, nil
}
