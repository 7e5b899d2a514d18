package privacy

import (
	"errors"
	"testing"

	"eyewnder/internal/blind"
)

// versionedConfig is smallParams pinned to a nonzero config version, as
// a negotiated deployment would run.
func versionedConfig(t *testing.T, version, rosterVersion uint32) RoundConfig {
	t.Helper()
	return RoundConfig{
		Version:       version,
		RosterVersion: rosterVersion,
		RosterSize:    6,
		Params:        smallParams(),
	}
}

// A report folds only into a round pinned to exactly the version it was
// built under: a stale, a future, or a zero version must bounce with
// ErrIncompatibleConfig — before any duplicate slot is taken — on both
// the structured and the streamed ingestion paths.
func TestAggregatorRejectsStaleConfigVersion(t *testing.T) {
	clients := newClients(t, smallParams())
	agg, err := NewAggregator(versionedConfig(t, 4, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clients[0].ObserveAd("https://ads.example/a"); err != nil {
		t.Fatal(err)
	}
	r, err := clients[0].Report(1)
	if err != nil {
		t.Fatal(err)
	}
	r.ConfigVersion = 4

	for _, cv := range []uint32{
		0, // no wildcard: a zero version is refused like any stale one
		3, // stale reporter
		5, // reporter from the future (roster moved on)
	} {
		stale := *r
		stale.ConfigVersion = cv
		if err := agg.Add(&stale); !errors.Is(err, ErrIncompatibleConfig) {
			t.Fatalf("report v%d into a v4 round: err = %v, want ErrIncompatibleConfig", cv, err)
		}
		cms := r.Sketch
		err = agg.AddCells(r.User, cms.Depth(), cms.Width(), cms.N(), cms.Seed(),
			blind.KeystreamHMACSHA256, cv, cms.FlatCells())
		if !errors.Is(err, ErrIncompatibleConfig) {
			t.Fatalf("streamed report v%d into a v4 round: err = %v, want ErrIncompatibleConfig", cv, err)
		}
	}
	// The rejections must not have consumed the user's roster slot.
	if len(agg.reported) != 0 {
		t.Fatalf("rejected report reserved a slot: %d reported", len(agg.reported))
	}

	// An exact match folds.
	if err := agg.Add(r); err != nil {
		t.Fatalf("matching version err = %v", err)
	}
	if len(agg.reported) != 1 {
		t.Fatalf("%d reported, want 1", len(agg.reported))
	}
}

// A client built under a versioned config stamps its reports with that
// version.
func TestClientStampsConfigVersion(t *testing.T) {
	srv, ros := fixtures(t)
	cfg := versionedConfig(t, 9, 4)
	c := NewClient(cfg, ros.Parties[0], srv.PublicKey(), srv)
	if _, err := c.ObserveAd("https://ads.example/x"); err != nil {
		t.Fatal(err)
	}
	r, err := c.Report(3)
	if err != nil {
		t.Fatal(err)
	}
	if r.ConfigVersion != 9 {
		t.Fatalf("report config version = %d, want 9", r.ConfigVersion)
	}
	agg, err := NewAggregator(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := agg.Add(r); err != nil {
		t.Fatal(err)
	}
}

// A restored aggregator keeps the round's pinned config: stale versions
// bounce after recovery exactly as before it.
func TestRestoredAggregatorKeepsConfigVersion(t *testing.T) {
	cfg := versionedConfig(t, 4, 2)
	agg, err := NewAggregator(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, w, seed := agg.Layout()
	_, _, _, n, _, cells, reported := agg.SnapshotState()
	restored, err := RestoreAggregatorStripes(cfg, 1, 0, cells, n, seed, reported)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Config() != cfg {
		t.Fatalf("restored config = %+v, want %+v", restored.Config(), cfg)
	}
	err = restored.AddCells(0, d, w, 1, seed, blind.KeystreamHMACSHA256, 3, make([]uint64, d*w))
	if !errors.Is(err, ErrIncompatibleConfig) {
		t.Fatalf("stale version after restore = %v, want ErrIncompatibleConfig", err)
	}
}
