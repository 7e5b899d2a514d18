package client_test

import (
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"

	"eyewnder/internal/adsim"
	"eyewnder/internal/backend"
	"eyewnder/internal/client"
	"eyewnder/internal/detector"
	"eyewnder/internal/oprf"
	"eyewnder/internal/privacy"
	"eyewnder/internal/wire"
)

// negotiatedExt dials the servers and builds an extension with ZERO
// protocol parameters: everything comes from the Welcome handshake.
func negotiatedExt(t *testing.T, user int, beAddr, oprfAddr string) *client.Extension {
	t.Helper()
	beConn, err := wire.Dial(beAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { beConn.Close() })
	oConn, err := wire.Dial(oprfAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { oConn.Close() })
	pub, err := client.FetchOPRFPublicKey(oConn)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := client.New(client.Options{
		User: user, Detector: detector.DefaultConfig(),
	}, &client.WireBackend{C: beConn}, &client.WireEvaluator{C: oConn}, pub)
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

// The negotiated deployment end to end over TCP: extensions carry no
// protocol flags at all — geometry, suite, roster size, and config
// version arrive via Hello/Welcome — a full round closes, then a
// mid-deployment re-registration bumps the roster version. A report
// still stamped with the old config is rejected with
// ErrIncompatibleConfig (over the wire, on the streamed path); the
// extensions pinned to the old config answer that rejection themselves —
// re-Join, rebuild from the same observations, upload again — and the
// round they close that way counts exactly what an unblinded oracle
// counts.
func TestNegotiatedSessionsWithRosterBump(t *testing.T) {
	const nUsers = 3
	params := testParams()

	osrv, err := oprf.NewServerFromKey(testRSAKey())
	if err != nil {
		t.Fatal(err)
	}
	oprfWire, err := backend.ServeOPRF("127.0.0.1:0", osrv)
	if err != nil {
		t.Fatal(err)
	}
	defer oprfWire.Close()
	be, err := backend.New(backend.Config{
		Params: params, Users: nUsers, UsersEstimator: detector.EstimatorMean,
	})
	if err != nil {
		t.Fatal(err)
	}
	beWire, err := be.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer beWire.Close()

	exts := make([]*client.Extension, nUsers)
	for i := 0; i < nUsers; i++ {
		exts[i] = negotiatedExt(t, i, beWire.Addr(), oprfWire.Addr())
		// The negotiated config mirrors the server's flags, not any
		// client-side default.
		cfg := exts[i].Config()
		if cfg.Params.Epsilon != params.Epsilon || cfg.Params.IDSpace != params.IDSpace ||
			cfg.RosterSize != nUsers || cfg.Version == 0 {
			t.Fatalf("negotiated config = %+v", cfg)
		}
		if err := exts[i].Register(); err != nil {
			t.Fatal(err)
		}
	}
	for _, ext := range exts {
		if err := ext.Join(); err != nil {
			t.Fatal(err)
		}
	}
	pinned := exts[0].Config().Version
	if pinned != be.CurrentConfig().Version {
		t.Fatalf("Join pinned v%d, server at v%d", pinned, be.CurrentConfig().Version)
	}

	// Round 1 closes normally under the negotiated config.
	for _, ext := range exts {
		if err := ext.ObserveAdDirect("https://ads.example/common", "www.news.example", adsim.SimStart); err != nil {
			t.Fatal(err)
		}
		if err := ext.SubmitReport(1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := be.CloseRound(0, 1, 0); err != nil {
		t.Fatal(err)
	}

	// Mid-deployment roster change: user 0 re-enrolls with a fresh key.
	replacement := negotiatedExt(t, 0, beWire.Addr(), oprfWire.Addr())
	if err := replacement.Register(); err != nil {
		t.Fatal(err)
	}
	if be.CurrentConfig().Version != pinned+1 {
		t.Fatalf("re-registration did not bump: v%d", be.CurrentConfig().Version)
	}

	// The round-2 observations of the two extensions still pinned to the
	// old config are made BEFORE they learn of the bump: they must
	// survive the re-Join.
	oracle, err := params.NewSketch()
	if err != nil {
		t.Fatal(err)
	}
	ids := privacy.NewClient(be.CurrentConfig(), nil, osrv.PublicKey(), osrv) // ad key → ad ID only
	observe := func(ext *client.Extension, ads ...string) {
		t.Helper()
		for _, ad := range ads {
			if err := ext.ObserveAdDirect(ad, "www.news.example", adsim.SimStart); err != nil {
				t.Fatal(err)
			}
			id, err := ids.ObserveAd(ad)
			if err != nil {
				t.Fatal(err)
			}
			var key [8]byte
			binary.LittleEndian.PutUint64(key[:], id)
			oracle.Update(key[:])
		}
	}
	observe(exts[1], "https://ads.example/common", "https://ads.example/only-1")
	observe(exts[2], "https://ads.example/common")

	// A report stamped with the old version is refused — over the wire,
	// through the streamed frame path — with the aggregator's
	// ErrIncompatibleConfig, as text and as errors.Is.
	rawConn, err := wire.Dial(beWire.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rawConn.Close()
	stale, err := params.NewSketch()
	if err != nil {
		t.Fatal(err)
	}
	err = (&client.WireBackend{C: rawConn}).Submit(wire.ReportFrameOf(&privacy.Report{User: 1, Round: 2, Sketch: stale, ConfigVersion: pinned}))
	if !errors.Is(err, privacy.ErrIncompatibleConfig) || !strings.Contains(err.Error(), privacy.ErrIncompatibleConfig.Error()) {
		t.Fatalf("stale report over the wire = %v, want ErrIncompatibleConfig", err)
	}

	// Extension 1 is in exactly that position; its SubmitReport re-Joins
	// and goes through.
	if err := exts[1].SubmitReport(2); err != nil {
		t.Fatalf("stale extension's report after a roster bump: %v", err)
	}
	if got := exts[1].Config().Version; got != pinned+1 {
		t.Fatalf("re-Join pinned v%d, want v%d", got, pinned+1)
	}
	if err := replacement.Join(); err != nil {
		t.Fatal(err)
	}
	observe(replacement, "https://ads.example/common", "https://ads.example/only-0")
	if err := replacement.SubmitReport(2); err != nil {
		t.Fatal(err)
	}
	if err := exts[2].SubmitReport(2); err != nil {
		t.Fatalf("second stale extension's report: %v", err)
	}
	if _, _, err := be.CloseRound(0, 2, 0); err != nil {
		t.Fatal(err)
	}
	got, err := be.UserCounts(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := privacy.UserCounts(oracle, params); len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("round closed across a roster bump counts %v, oracle %v", got, want)
	}
}

// An extension with neither explicit Params nor a negotiating backend
// must fail construction loudly.
func TestNewRequiresParamsOrNegotiator(t *testing.T) {
	osrv, err := oprf.NewServerFromKey(testRSAKey())
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.New(client.Options{User: 0, Detector: detector.DefaultConfig()},
		bareBackend{}, osrv, osrv.PublicKey())
	if err == nil {
		t.Fatal("New accepted a zero config with no negotiator")
	}
}

// bareBackend satisfies BackendAPI but not ConfigNegotiator.
type bareBackend struct{}

func (bareBackend) Register(int, []byte) (int, error)            { return 0, nil }
func (bareBackend) Roster() ([][]byte, uint32, uint32, error)    { return nil, 0, 0, nil }
func (bareBackend) Submit(*wire.ReportFrame) error               { return nil }
func (bareBackend) RoundStatus(uint64) (int, []int, bool, error) { return 0, nil, false, nil }
func (bareBackend) Threshold(uint64) (float64, error)            { return 0, nil }
func (bareBackend) AuditAd(uint64, uint64) (uint64, error)       { return 0, nil }

// A second-round share derived after a roster change is refused on both
// adapters. The round opens under the roster its two reporters joined;
// user 2, who never reported, then re-enrolls with a fresh key, and the
// reporters re-Join before they adjust. Their shares now cancel terms
// toward a key the round's reports were never blinded against, so the
// back-end must refuse them as stale — and the close must refuse to
// publish rather than unblind garbage.
func TestStaleAdjustmentShareRefused(t *testing.T) {
	const nUsers, round = 3, 4
	osrv, err := oprf.NewServerFromKey(testRSAKey())
	if err != nil {
		t.Fatal(err)
	}
	for _, overWire := range []bool{false, true} {
		name := "local"
		if overWire {
			name = "wire"
		}
		t.Run(name, func(t *testing.T) {
			be, err := backend.New(backend.Config{
				Params: testParams(), Users: nUsers, UsersEstimator: detector.EstimatorMean,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer be.Close()
			var api client.BackendAPI = &client.LocalBackend{B: be}
			if overWire {
				srv, err := be.Serve("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer srv.Close()
				conn, err := wire.Dial(srv.Addr())
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				api = &client.WireBackend{C: conn}
			}
			enroll := func(user int) *client.Extension {
				t.Helper()
				ext, err := client.New(client.Options{User: user, Detector: detector.DefaultConfig()}, api, osrv, osrv.PublicKey())
				if err != nil {
					t.Fatal(err)
				}
				if err := ext.Register(); err != nil {
					t.Fatal(err)
				}
				return ext
			}
			exts := []*client.Extension{enroll(0), enroll(1), enroll(2)}
			for _, ext := range exts[:2] {
				if err := ext.Join(); err != nil {
					t.Fatal(err)
				}
				if err := ext.ObserveAdDirect("https://ads.example/shared", "www.a.example", adsim.SimStart); err != nil {
					t.Fatal(err)
				}
				if err := ext.SubmitReport(round); err != nil {
					t.Fatal(err)
				}
			}
			opened := exts[0].Config().Version
			enroll(2) // user 2 re-enrolls: the roster, and the config version, move on
			for _, ext := range exts[:2] {
				if err := ext.Join(); err != nil {
					t.Fatal(err)
				}
				if v := ext.Config().Version; v == opened {
					t.Fatalf("re-Join stayed at v%d after a re-enrollment", v)
				}
				if _, err := ext.SubmitAdjustmentIfNeeded(round); !errors.Is(err, privacy.ErrIncompatibleConfig) {
					t.Fatalf("user %d: share under v%d for a round opened at v%d: err = %v, want ErrIncompatibleConfig",
						ext.User(), ext.Config().Version, opened, err)
				}
			}
			if th, ads, err := be.CloseRound(0, round, 0); !errors.Is(err, backend.ErrAdjustIncomplete) {
				t.Fatalf("close with only stale shares = (Users_th %v, %d ads, %v), want ErrAdjustIncomplete", th, ads, err)
			}
			if th, err := be.Threshold(0, round); err == nil {
				t.Fatalf("a refused close published Users_th = %v", th)
			}
		})
	}
}
