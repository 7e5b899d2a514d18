package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"eyewnder/internal/campaign"
)

// testCampaignDef encodes a campaign definition the way the backend
// journals it (the canonical binary encoding).
func testCampaignDef(t *testing.T, id uint32) []byte {
	t.Helper()
	c := campaign.Campaign{
		ID: id, Name: "store-test",
		Epsilon: 0.02, Delta: 0.02, IDSpace: 4096,
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c.AppendBinary(nil)
}

// Campaign provisioning records and campaign-tagged round records must
// round-trip through the WAL: a reopened store recovers the campaign
// directory and keeps (campaign, round) state separate from identical
// round numbers in other campaigns.
func TestCampaignWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})

	def7 := testCampaignDef(t, 7)
	def9 := testCampaignDef(t, 9)
	if err := d.AppendCampaign(def7); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendCampaign(def9); err != nil {
		t.Fatal(err)
	}
	// Round 1 exists in campaign 0, 7, and 9 simultaneously — same round
	// number, three independent states.
	logRound(t, d, 1, 4, 0, 1)
	for _, c := range []uint32{7, 9} {
		if err := d.AppendOpen(c, 1, 4, testD, testW, 0, 1, 0, 0); err != nil {
			t.Fatal(err)
		}
		if err := d.AppendReport(c, 1, int(c)%4, testD, testW, 5, 0, 1, 0, testCells(uint64(c))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AppendAdjust(7, 1, 2, testCells(99)); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendClose(9, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, ref := openReplayed(t, dir, Options{})
	defer d2.Close()

	camps := ref.campaigns
	if len(camps) != 2 || !reflect.DeepEqual(camps[7], def7) || !reflect.DeepEqual(camps[9], def9) {
		t.Fatalf("recovered campaigns = %v", camps)
	}
	byKey := make(map[[2]uint64]*RoundState)
	for _, rs := range ref.sortedRounds() {
		byKey[[2]uint64{uint64(rs.Campaign), rs.Round}] = rs
	}
	if len(byKey) != 3 {
		t.Fatalf("recovered %d rounds, want 3", len(byKey))
	}
	if rs := byKey[[2]uint64{0, 1}]; rs == nil || !reflect.DeepEqual(rs.Cells, wantRoundCells(0, 1)) {
		t.Fatal("campaign 0 round state wrong")
	}
	if rs := byKey[[2]uint64{7, 1}]; rs == nil || !reflect.DeepEqual(rs.Cells, testCells(7)) {
		t.Fatal("campaign 7 round state wrong")
	} else if !reflect.DeepEqual(rs.Adjusts[2], testCells(99)) {
		t.Fatal("campaign 7 adjustment lost")
	} else if rs.Closed {
		t.Fatal("campaign 7 closed by campaign 9's close record")
	}
	if rs := byKey[[2]uint64{9, 1}]; rs == nil || !rs.Closed {
		t.Fatal("campaign 9 close lost")
	}

	// The read-only recovery view agrees.
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayRef(t, rec).campaigns, camps) {
		t.Fatal("Recover campaign directory differs from Disk recovery")
	}
	if err := rec.AppendCampaign(def7); err == nil {
		t.Fatal("read-only store accepted a campaign append")
	}
}

// Campaign 0 must write the legacy record layouts byte-identically: no
// campaign suffix on open/adjust/close bodies, zeroed campaign bytes in
// the report preamble — so a single-campaign WAL is indistinguishable
// from one written by a pre-campaign release.
func TestCampaignZeroWALByteIdentity(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	if err := d.AppendOpen(0, 1, 4, testD, testW, 0, 1, 7, 3); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendReport(0, 1, 2, testD, testW, 5, 0, 1, 7, testCells(2)); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendAdjust(0, 1, 3, testCells(3)); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendClose(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("wal glob: %v %v", paths, err)
	}
	raw, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	// Walk the record framing past the segment magic:
	// len(4) kind(1) body crc(4).
	cellBytes := 8 * testD * testW
	wantBody := map[byte]int{
		recOpen:   openBody,       // no campaign(4) suffix
		recReport: 56 + cellBytes, // preamble + cells, unchanged size
		recAdjust: 16 + cellBytes, // round(8) user(8) cells
		recClose:  8,              // round(8)
	}
	seen := map[byte]bool{}
	for off := len(walMagic); off < len(raw); {
		n := int(binary.LittleEndian.Uint32(raw[off:]))
		kind := raw[off+4]
		body := raw[off+5 : off+5+n]
		if want, ok := wantBody[kind]; ok {
			seen[kind] = true
			if n != want {
				t.Fatalf("record kind %#x: body %d bytes, legacy layout is %d", kind, n, want)
			}
			if kind == recReport {
				if c := binary.LittleEndian.Uint16(body[50:52]); c != 0 {
					t.Fatalf("campaign-0 report preamble carries campaign %d", c)
				}
			}
		}
		off += 5 + n + 4
	}
	for kind := range wantBody {
		if !seen[kind] {
			t.Fatalf("record kind %#x missing from WAL", kind)
		}
	}
	// And nothing campaign-shaped was journaled.
	d2, ref := openReplayed(t, dir, Options{})
	defer d2.Close()
	if len(ref.campaigns) != 0 {
		t.Fatal("campaign-0 traffic created directory entries")
	}
}

// Campaign directory and per-round campaign tags must survive the
// snapshot path too: a store recovered from snapshot + post-snapshot
// WAL sees the same campaigns and keyed rounds.
func TestCampaignSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	def := testCampaignDef(t, 5)
	if err := d.AppendCampaign(def); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendOpen(5, 2, 4, testD, testW, 0, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.AppendReport(5, 2, 1, testD, testW, 5, 0, 1, 0, testCells(5)); err != nil {
		t.Fatal(err)
	}
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	state := &RoundState{
		Campaign: 5, Round: 2, RosterSize: 4, D: testD, W: testW, N: 5, Keystream: 1,
		Cells:    testCells(5),
		Reported: []bool{false, true, false, false},
		Adjusts:  map[int][]uint64{},
	}
	if err := d.Snapshot(func() ([]*RoundState, error) {
		return []*RoundState{state}, nil
	}); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot campaign traffic replays on top.
	if err := d.AppendReport(5, 2, 3, testD, testW, 5, 0, 1, 0, testCells(6)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2, ref := openReplayed(t, dir, Options{})
	defer d2.Close()
	if camps := ref.campaigns; !reflect.DeepEqual(camps[5], def) {
		t.Fatalf("campaign lost across snapshot: %v", camps)
	}
	rounds := ref.sortedRounds()
	if len(rounds) != 1 {
		t.Fatalf("recovered %d rounds, want 1", len(rounds))
	}
	rs := rounds[0]
	if rs.Campaign != 5 || rs.Round != 2 {
		t.Fatalf("recovered round keyed (%d, %d), want (5, 2)", rs.Campaign, rs.Round)
	}
	want := make([]uint64, testD*testW)
	for i, v := range testCells(5) {
		want[i] = v + testCells(6)[i]
	}
	if !reflect.DeepEqual(rs.Cells, want) {
		t.Fatal("snapshot + replay cells wrong")
	}
	if !reflect.DeepEqual(rs.Reported, []bool{false, true, false, true}) {
		t.Fatalf("reported = %v", rs.Reported)
	}
}
