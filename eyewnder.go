// Package eyewnder is the public facade of the eyeWnder reproduction: a
// crowdsourced, privacy-preserving system that detects targeted online
// advertising with a count-based heuristic (Iordanou et al., "Beyond
// content analysis: Detecting targeted ads via distributed counting",
// CoNEXT 2019).
//
// A System wires together the serving components of the paper's Figure
// 1 — browser-extension clients, the back-end aggregation server and the
// oprf-server — either fully in-process or over TCP. (Figure 1's
// evaluation crawler is simulated: see internal/experiments.) The
// essential flow:
//
//	sys, _ := eyewnder.NewSystem(eyewnder.SystemConfig{Users: 3})
//	ext := sys.Extensions[0]
//	ext.VisitPage("www.news.example", html, time.Now()) // detect & record ads
//	ext.SubmitReport(round)                             // blinded CMS upload
//	sys.CloseRound(round)                               // unblind, publish Users_th
//	verdict, _ := ext.AuditAd(adKey, round, time.Now()) // real-time audit
//
// The privacy property: the back-end only ever receives blinded sketches
// (uniformly random on their own), and ad URLs are mapped to opaque IDs
// through an oblivious PRF whose key lives on a separate server. Nothing
// about an individual's browsing or ad diet leaves the device in the
// clear.
package eyewnder

import (
	"errors"
	"fmt"

	"eyewnder/internal/backend"
	"eyewnder/internal/client"
	"eyewnder/internal/detector"
	"eyewnder/internal/oprf"
	"eyewnder/internal/privacy"
	"eyewnder/internal/wire"
)

// Re-exported core types, so downstream code only imports this package.
type (
	// Verdict is a classification with its evidence.
	Verdict = detector.Verdict
	// Class is the ad classification (Targeted / NonTargeted / Unknown).
	Class = detector.Class
	// DetectorConfig tunes the count-based algorithm.
	DetectorConfig = detector.Config
	// Params is the privacy-protocol geometry.
	Params = privacy.Params
	// Extension is one user's eyeWnder instance.
	Extension = client.Extension
)

// Re-exported classification constants.
const (
	Unknown     = detector.Unknown
	NonTargeted = detector.NonTargeted
	Targeted    = detector.Targeted
)

// DefaultDetectorConfig returns the paper's algorithm settings (7-day
// window, ≥4 domains, mean thresholds).
func DefaultDetectorConfig() DetectorConfig { return detector.DefaultConfig() }

// DefaultParams returns the paper's protocol settings (ε = δ = 0.001,
// 100k ad-ID space).
func DefaultParams() Params { return privacy.DefaultParams() }

// SystemConfig configures NewSystem.
type SystemConfig struct {
	// Users is the panel size (number of extensions).
	Users int
	// Detector defaults to DefaultDetectorConfig.
	Detector *DetectorConfig
	// Params defaults to a moderate geometry (ε = δ = 0.01, 20k IDs) —
	// switch to DefaultParams for the paper's full-size sketch.
	Params *Params
	// RSABits sizes the oprf key (default 2048).
	RSABits int
	// UsersEstimator defaults to the mean (the paper's choice).
	UsersEstimator detector.Estimator
}

// System is a fully wired in-process deployment.
type System struct {
	Backend    *backend.Backend
	OPRF       *oprf.Server
	Extensions []*Extension
	params     Params
}

// NewSystem builds an in-process deployment: an oprf-server, a back-end,
// and one registered-and-joined extension per user.
func NewSystem(cfg SystemConfig) (*System, error) {
	if cfg.Users < 2 {
		return nil, errors.New("eyewnder: need at least 2 users (blinding requires peers)")
	}
	det := DefaultDetectorConfig()
	if cfg.Detector != nil {
		det = *cfg.Detector
	}
	params := Params{Epsilon: 0.01, Delta: 0.01, IDSpace: 20000, Suite: DefaultParams().Suite}
	if cfg.Params != nil {
		params = *cfg.Params
	}
	bits := cfg.RSABits
	if bits == 0 {
		bits = 2048
	}
	osrv, err := oprf.NewServer(bits)
	if err != nil {
		return nil, fmt.Errorf("eyewnder: oprf server: %w", err)
	}
	be, err := backend.New(backend.Config{
		Params:         params,
		Users:          cfg.Users,
		UsersEstimator: cfg.UsersEstimator,
	})
	if err != nil {
		return nil, err
	}
	sys := &System{Backend: be, OPRF: osrv, params: params}
	api := &client.LocalBackend{B: be}
	for i := 0; i < cfg.Users; i++ {
		// Each extension negotiates the round config from the back-end,
		// exactly as a wire-connected client would — the back-end is the
		// single source of truth.
		ext, err := client.New(client.Options{
			User: i, Detector: det,
		}, api, osrv, osrv.PublicKey())
		if err != nil {
			return nil, err
		}
		if err := ext.Register(); err != nil {
			return nil, err
		}
		sys.Extensions = append(sys.Extensions, ext)
	}
	for _, ext := range sys.Extensions {
		if err := ext.Join(); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// SubmitAllReports uploads every extension's blinded sketch for a round.
func (s *System) SubmitAllReports(round uint64) error {
	for _, ext := range s.Extensions {
		if err := ext.SubmitReport(round); err != nil {
			return fmt.Errorf("eyewnder: user %d report: %w", ext.User(), err)
		}
	}
	return nil
}

// CloseRound finalizes a reporting round at the back-end: unblind the
// aggregate and publish Users_th.
func (s *System) CloseRound(round uint64) (usersTh float64, distinctAds int, err error) {
	return s.Backend.CloseRound(0, round, 0)
}

// ServeTCP exposes the back-end and the oprf-server on TCP addresses
// (use "127.0.0.1:0" to pick free ports). Callers own closing the
// returned servers.
func (s *System) ServeTCP(backendAddr, oprfAddr string) (backendSrv, oprfSrv *wire.Server, err error) {
	backendSrv, err = s.Backend.Serve(backendAddr)
	if err != nil {
		return nil, nil, err
	}
	oprfSrv, err = backend.ServeOPRF(oprfAddr, s.OPRF)
	if err != nil {
		backendSrv.Close()
		return nil, nil, err
	}
	return backendSrv, oprfSrv, nil
}
