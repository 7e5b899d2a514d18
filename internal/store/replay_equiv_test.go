package store

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The replay reader over a WAL that holds every record kind and
// acceptance case, records that straddle the replay reader's buffer, and
// one record larger than it. Whether each record counts is the back-end
// applier's business (its equivalence test holds restart and replica to
// the live primary); here the log's own properties are checked: the
// production reader hands over exactly the event stream an independent
// in-memory parse of each segment yields, and a torn tail ends the
// replay where it should.

// equivReport appends one report with deterministic pseudo-random cells
// (wraparound values included) and fails the test on error.
func equivReport(t *testing.T, d *Disk, rng *rand.Rand, campaign uint32, round uint64, user, dd, ww int, seed uint64, ks byte, cv uint32) {
	t.Helper()
	cells := make([]uint64, dd*ww)
	for i := range cells {
		if rng.Intn(8) == 0 {
			cells[i] = ^uint64(0) - uint64(rng.Intn(3))
		} else {
			cells[i] = rng.Uint64()
		}
	}
	if err := d.AppendReport(campaign, round, user, dd, ww, uint64(1+rng.Intn(50)), seed, ks, cv, cells); err != nil {
		t.Fatalf("AppendReport(%d/%d user %d): %v", campaign, round, user, err)
	}
}

// reportRecordSize is the framed WAL size of a report with the given
// cell count.
func reportRecordSize(cells int) int64 {
	return walRecordOverhead + reportPreamble + 8*int64(cells)
}

// Geometry of the equivalence WAL's rounds.
const (
	paperD, paperW = 7, 2719 // the paper's ε = δ = 0.001 sketch: 19 033 cells, 152 KB
	smallD, smallW = 3, 40
	tailW          = 64   // the tail segment's last record: 577 framed bytes
	fillW          = 8192 // tail-segment filler: 64 KB reports
)

// writeEquivWAL writes the equivalence WAL into dir through a Disk and
// returns the tail segment's generation and the offset its last record
// starts at. Segment 1 carries the record-kind coverage; segment 2 is
// self-contained (its rounds open inside it) and is laid out so that its
// last, small record starts just before the replay buffer's first fill
// boundary.
func writeEquivWAL(t *testing.T, dir string) (tailGen uint64, lastStart int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	d := openTestStore(t, dir, Options{SnapshotEvery: -1})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	bigW := replayBufSize/16 + 333 // 2 rows: one report is larger than the replay buffer

	// Bulletin board and deployment versions; odd key lengths put later
	// cell blocks at every byte alignment.
	for u := 0; u < 5; u++ {
		must(d.AppendRegister(u, make([]byte, 31+u)))
	}
	must(d.AppendConfig(2, 1))
	must(d.AppendCampaign(testCampaignDef(t, 7)))

	// Campaign 0 opens (legacy layout) and a campaign-variant open.
	must(d.AppendOpen(0, 1, 16, paperD, paperW, 11, 1, 2, 1))
	must(d.AppendOpen(7, 1, 8, smallD, smallW, 3, 1, 0, 0))
	must(d.AppendOpen(0, 2, 4, 2, bigW, 13, 1, 2, 1))

	for u := 0; u < 10; u++ {
		equivReport(t, d, rng, 0, 1, u, paperD, paperW, 11, 1, 2)
		if u%3 == 0 {
			equivReport(t, d, rng, 7, 1, u%8, smallD, smallW, 3, 1, 0)
		}
	}
	equivReport(t, d, rng, 0, 1, 3, paperD, paperW, 11, 1, 2)  // duplicate: skipped
	equivReport(t, d, rng, 0, 1, 12, paperD, paperW, 11, 0, 2) // suite mismatch: skipped
	equivReport(t, d, rng, 0, 1, 13, paperD, paperW, 11, 1, 9) // stale config version: skipped
	equivReport(t, d, rng, 0, 1, 14, paperD, paperW, 99, 1, 2) // seed mismatch: skipped
	equivReport(t, d, rng, 0, 1, 20, paperD, paperW, 11, 1, 2) // out of roster: skipped
	equivReport(t, d, rng, 0, 9, 0, smallD, smallW, 3, 1, 0)   // unknown round: skipped
	equivReport(t, d, rng, 0, 2, 0, 2, bigW, 13, 1, 2)         // larger than the buffer
	equivReport(t, d, rng, 0, 1, 15, paperD, paperW, 11, 1, 0) // unversioned report: accepted

	adj := func(campaign uint32, round uint64, user, n int) {
		t.Helper()
		cells := make([]uint64, n)
		for i := range cells {
			cells[i] = rng.Uint64()
		}
		must(d.AppendAdjust(campaign, round, user, cells))
	}
	adj(0, 1, 2, paperD*paperW)
	adj(7, 1, 1, smallD*smallW)
	adj(0, 1, 2, paperD*paperW) // overwrite: last write wins
	adj(0, 1, 4, 5)             // wrong cell count: skipped
	must(d.AppendClose(7, 1))
	equivReport(t, d, rng, 7, 1, 7, smallD, smallW, 3, 1, 0) // into a closed round: skipped
	adj(7, 1, 2, smallD*smallW)                              // into a closed round: skipped
	must(d.AppendRegister(2, []byte("re-registered key")))
	must(d.AppendConfig(3, 2))
	must(d.AppendCampaign(testCampaignDef(t, 9)))
	equivReport(t, d, rng, 0, 2, 1, 2, bigW, 13, 1, 2)
	must(d.AppendClose(0, 2))
	must(d.Sync())
	if _, err := d.Seal(); err != nil {
		t.Fatal(err)
	}

	// Segment 2: filler up to just before the replay buffer's first fill
	// boundary, then the small last record straddling it.
	must(d.AppendOpen(0, 3, 4, 1, tailW, 17, 1, 3, 2))
	must(d.AppendOpen(0, 4, 128, 1, fillW, 19, 1, 3, 2))
	off := int64(len(walMagic)) + 2*(walRecordOverhead+openBody)
	target := int64(replayBufSize) - 300
	u := 0
	for ; off+reportRecordSize(fillW)+walRecordOverhead+8 < target; u++ {
		equivReport(t, d, rng, 0, 4, u, 1, fillW, 19, 1, 3)
		off += reportRecordSize(fillW)
	}
	pad := target - off - walRecordOverhead - 8
	must(d.AppendRegister(5, make([]byte, pad)))
	off = target
	equivReport(t, d, rng, 0, 3, 1, 1, tailW, 17, 1, 3)
	must(d.Close())

	st, err := os.Stat(filepath.Join(dir, walName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != off+reportRecordSize(tailW) {
		t.Fatalf("tail segment is %d bytes, layout expected %d", st.Size(), off+reportRecordSize(tailW))
	}
	return 2, off
}

// referenceRecover folds dir's WAL segments (no snapshots) through the
// reference fold, each segment parsed from memory with SegmentParser
// instead of the replay reader.
func referenceRecover(t *testing.T, dir string) (*refState, uint64, int64) {
	t.Helper()
	walGens, snapGens, _, err := scanStoreDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapGens) != 0 {
		t.Fatal("reference recovery expects a WAL-only directory")
	}
	rec := newRefState()
	var tailGen uint64
	var tailOff int64
	for _, g := range walGens {
		raw, err := os.ReadFile(filepath.Join(dir, walName(g)))
		if err != nil {
			t.Fatal(err)
		}
		p := NewSegmentParser()
		p.Feed(raw)
		for {
			ev, err := p.Next()
			if errors.Is(err, ErrCorruptRecord) {
				break
			}
			if err != nil {
				t.Fatalf("reference parse of segment %d: %v", g, err)
			}
			if ev == nil {
				break
			}
			if err := rec.apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		tailGen, tailOff = g, p.Offset()
	}
	return rec, tailGen, tailOff
}

// assertSameRecovery compares the fold of a Recover replay with the
// reference.
func assertSameRecovery(t *testing.T, r *Recovered, got, want *refState, wantGen uint64, wantOff int64) {
	t.Helper()
	if r.TailGen() != wantGen || r.TailOff() != wantOff {
		t.Fatalf("tail = gen %d off %d, reference gen %d off %d", r.TailGen(), r.TailOff(), wantGen, wantOff)
	}
	gotRounds, wantRounds := got.sortedRounds(), want.sortedRounds()
	if len(gotRounds) != len(wantRounds) {
		t.Fatalf("recovered %d rounds, reference %d", len(gotRounds), len(wantRounds))
	}
	for i, rs := range gotRounds {
		ref := wantRounds[i]
		id := [2]uint64{uint64(ref.Campaign), ref.Round}
		if rs.Campaign != ref.Campaign || rs.Round != ref.Round {
			t.Fatalf("round %d is %d/%d, reference %v", i, rs.Campaign, rs.Round, id)
		}
		if !reflect.DeepEqual(rs.Cells, ref.Cells) {
			t.Fatalf("round %v: cells differ from the reference", id)
		}
		if rs.N != ref.N || rs.Closed != ref.Closed || !reflect.DeepEqual(rs.Reported, ref.Reported) {
			t.Fatalf("round %v: N/closed/reported %d/%v/%v, reference %d/%v/%v",
				id, rs.N, rs.Closed, rs.Reported, ref.N, ref.Closed, ref.Reported)
		}
		if !reflect.DeepEqual(rs.Adjusts, ref.Adjusts) {
			t.Fatalf("round %v: adjustment shares differ", id)
		}
	}
	if !reflect.DeepEqual(got.roster, want.roster) || !reflect.DeepEqual(got.campaigns, want.campaigns) {
		t.Fatal("roster or campaign directory differs from the reference")
	}
	if got.configVersion != want.configVersion || got.rosterVersion != want.rosterVersion {
		t.Fatalf("versions %d/%d, reference %d/%d", got.configVersion, got.rosterVersion, want.configVersion, want.rosterVersion)
	}
}

// Replaying through the production reader — buffered, in-place record
// reads, a copying path for records larger than its buffer — must hand
// over the same events, in the same order, as a whole-segment in-memory
// parse: folded through the same reference, both rebuild == state and
// stop at the same tail.
func TestReplayEquivalence(t *testing.T) {
	dir := t.TempDir()
	writeEquivWAL(t, dir)
	r, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := replayRef(t, r)
	want, gen, off := referenceRecover(t, dir)
	assertSameRecovery(t, r, got, want, gen, off)

	// The WAL must have exercised what it claims to: every acceptance
	// case left its mark on the reference state.
	byKey := want.rounds
	r1 := byKey[roundKey{0, 1}]
	if r1 == nil || r1.Reported[12] || r1.Reported[13] || r1.Reported[14] || !r1.Reported[15] || len(r1.Adjusts) != 1 {
		t.Fatalf("round 0/1 reference state does not reflect the scripted records")
	}
	if r := byKey[roundKey{7, 1}]; r == nil || !r.Closed || r.Reported[7] || len(r.Adjusts) != 1 {
		t.Fatal("round 7/1 reference state does not reflect the scripted records")
	}
	if r := byKey[roundKey{0, 2}]; r == nil || !r.Closed || r.N == 0 || 8*len(r.Cells) <= replayBufSize {
		t.Fatal("round 0/2 does not hold records larger than the replay buffer")
	}
	if _, ok := byKey[roundKey{0, 9}]; ok {
		t.Fatal("report into an unknown round opened one")
	}
}

// Cutting the tail segment's last record at every byte offset must stop
// recovery exactly at that record's start — the same torn-tail
// classification whether the reader serves the record from its buffer
// or copies it.
func TestReplayTruncatedLastRecord(t *testing.T) {
	src := t.TempDir()
	gen, start := writeEquivWAL(t, src)
	raw, err := os.ReadFile(filepath.Join(src, walName(gen)))
	if err != nil {
		t.Fatal(err)
	}
	// Recover the tail segment alone (its rounds open inside it), cutting
	// from the longest prefix down so each cut is one truncate.
	dir := t.TempDir()
	seg := filepath.Join(dir, walName(gen))
	if err := os.WriteFile(seg, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	end := int64(len(raw))
	whole, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantN := replayRef(t, whole).sortedRounds()[0].N // round 0/3 holds only the last record's report
	if whole.TailOff() != end {
		t.Fatalf("untruncated TailOff %d, want %d", whole.TailOff(), end)
	}
	if wantN == 0 {
		t.Fatal("last record was not applied on the intact segment")
	}
	for cut := end - 1; cut >= start; cut-- {
		if err := os.Truncate(seg, cut); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		ref := replayRef(t, rec)
		if rec.TailGen() != gen || rec.TailOff() != start {
			t.Fatalf("cut at %d (record spans [%d, %d)): tail gen %d off %d, want gen %d off %d",
				cut, start, end, rec.TailGen(), rec.TailOff(), gen, start)
		}
		if rs := ref.sortedRounds()[0]; rs.Round != 3 || rs.N != 0 {
			t.Fatalf("cut at %d: torn record applied (round %d N %d)", cut, rs.Round, rs.N)
		}
	}
}
