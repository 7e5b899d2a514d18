package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// Sealing an empty active segment must be legal: the sealed file holds
// only the 8-byte magic, the manifest reports it sealed at that size,
// and appends continue into the next generation. This is the quiet-
// primary path — a follower catches up by sealing, not by waiting for
// traffic.
func TestSealEmptyActiveSegment(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	defer d.Close()

	sealed, err := d.Seal()
	if err != nil {
		t.Fatalf("Seal: %v", err)
	}
	if sealed != 1 {
		t.Fatalf("sealed gen = %d, want 1", sealed)
	}
	st, err := os.Stat(filepath.Join(dir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(len(walMagic)) {
		t.Fatalf("empty sealed segment = %d bytes, want %d (magic only)", st.Size(), len(walMagic))
	}

	files, err := d.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	want := []FileInfo{
		{Kind: FileWAL, Gen: 1, Size: int64(len(walMagic)), Sealed: true},
		{Kind: FileWAL, Gen: 2, Size: int64(len(walMagic)), Sealed: false},
	}
	if !reflect.DeepEqual(files, want) {
		t.Fatalf("manifest after empty seal = %+v, want %+v", files, want)
	}

	// The store keeps working in the new generation, and a second seal
	// of another empty segment is just as fine.
	logRound(t, d, 1, 4, 0)
	if _, err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	if sealed, err = d.Seal(); err != nil || sealed != 3 {
		t.Fatalf("third seal = gen %d, %v", sealed, err)
	}

	// Recovery replays through the magic-only segments without a hiccup.
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rounds := replayRef(t, rec).sortedRounds(); len(rounds) != 1 || !reflect.DeepEqual(rounds[0].Cells, wantRoundCells(0)) {
		t.Fatal("empty sealed segments broke recovery")
	}
	if rec.TailGen() != 4 || rec.TailOff() != int64(len(walMagic)) {
		t.Fatalf("tail = gen %d off %d, want gen 4 off %d", rec.TailGen(), rec.TailOff(), len(walMagic))
	}
}

// RetainSegments must keep the newest N sealed segments (and their
// snapshots) across a snapshot's pruning pass, so a briefly-lagging
// follower can still fetch them instead of falling back to a full
// resync.
func TestRetainSegmentsSurvivePrune(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{RetainSegments: 2})
	defer d.Close()
	logRound(t, d, 1, 4, 0)
	for i := 0; i < 3; i++ { // seal gens 1..3; active is now 4
		if _, err := d.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Snapshot(func() ([]*RoundState, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	// Snapshot rotated 4 away and wrote snap-4; without retention every
	// segment below 4 would be pruned. With RetainSegments=2, gens 3 and
	// 4 must survive; 1 and 2 must not.
	for gen, want := range map[uint64]bool{1: false, 2: false, 3: true, 4: true} {
		_, err := os.Stat(filepath.Join(dir, walName(gen)))
		if got := err == nil; got != want {
			t.Errorf("wal gen %d present = %v, want %v", gen, got, want)
		}
	}
	files, err := d.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	var gens []uint64
	for _, fi := range files {
		if fi.Kind == FileWAL {
			gens = append(gens, fi.Gen)
		}
	}
	if !reflect.DeepEqual(gens, []uint64{3, 4, 5}) {
		t.Fatalf("manifest WAL gens after retained prune = %v", gens)
	}
}

// Shipping while a rotation lands: Manifest and ReadFileAt must stay
// consistent while Seal and Snapshot rotate segments under them. The
// invariants a follower's poll loop leans on — checked continuously
// here while rotations land:
//
//   - a file listed as sealed never changes size in a later manifest;
//   - every listed byte range is readable, or the file is gone entirely
//     (pruned — fs.ErrNotExist), never a short file;
//   - a WAL segment listed as sealed is never the one that grows.
func TestShippingDuringRotation(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{RetainSegments: 1})
	if err := d.AppendOpen(0, 1, 256, testD, testW, 0, 1, 0, 0); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the shipper: poll manifests, fetch listed ranges
		defer wg.Done()
		sealedSize := map[FileInfo]int64{} // keyed by kind+gen (Size zeroed)
		buf := make([]byte, 64<<10)
		for {
			select {
			case <-stop:
				errs <- nil
				return
			default:
			}
			files, err := d.Manifest()
			if err != nil {
				errs <- err
				return
			}
			for _, fi := range files {
				key := FileInfo{Kind: fi.Kind, Gen: fi.Gen, Sealed: true}
				if fi.Sealed {
					if prev, ok := sealedSize[key]; ok && prev != fi.Size {
						errs <- fmt.Errorf("sealed %s gen %d changed size %d -> %d", fi.Kind, fi.Gen, prev, fi.Size)
						return
					}
					sealedSize[key] = fi.Size
				}
				// Fetch the listed tail of the file, as a follower would.
				off := fi.Size - int64(len(buf))
				if off < 0 {
					off = 0
				}
				n, err := d.ReadFileAt(fi.Kind, fi.Gen, off, buf[:fi.Size-off])
				switch {
				case err == nil || err == io.EOF:
					if int64(n) < fi.Size-off && err == io.EOF && fi.Sealed {
						errs <- fmt.Errorf("sealed %s gen %d: manifest size %d but read %d from %d",
							fi.Kind, fi.Gen, fi.Size, n, off)
						return
					}
				case errors.Is(err, fs.ErrNotExist):
					// Pruned under us: legal, means "resync from snapshot".
				default:
					errs <- err
					return
				}
			}
		}
	}()

	// The primary: append, seal, snapshot — rotations landing constantly.
	for u := 0; u < 200; u++ {
		if err := d.AppendReport(0, 1, u, testD, testW, 1, 0, 1, 0, testCells(uint64(u))); err != nil {
			t.Fatal(err)
		}
		switch {
		case u%17 == 16:
			if _, err := d.Seal(); err != nil {
				t.Fatal(err)
			}
		case u%41 == 40:
			// Snapshot with the true folded state so far, as the back-end
			// would: users 0..u reported.
			users := make([]int, u+1)
			reported := make([]bool, 256)
			for i := range users {
				users[i] = i
				reported[i] = true
			}
			state := &RoundState{
				Round: 1, RosterSize: 256, D: testD, W: testW,
				N: uint64(u + 1), Keystream: 1,
				Cells:    wantRoundCells(users...),
				Reported: reported,
				Adjusts:  map[int][]uint64{},
			}
			if err := d.Snapshot(func() ([]*RoundState, error) {
				return []*RoundState{state}, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Whatever interleaving happened, recovery still folds all 200.
	d2, ref := openReplayed(t, dir, Options{})
	defer d2.Close()
	rs := ref.sortedRounds()[0]
	if rs.N != 200 {
		t.Fatalf("recovered N = %d, want 200", rs.N)
	}
}

// A torn shipped tail at the parser level: a fetch that ends mid-record
// parses everything before the cut, reports "need more" (not an error),
// and converges once the remaining bytes arrive — the exact stop-
// cleanly-re-request-converge contract the follower builds on.
func TestSegmentParserTornTailConverges(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	logRound(t, d, 1, 4, 0, 1, 2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, walName(1)))
	if err != nil {
		t.Fatal(err)
	}

	// Find the record boundaries with a clean full-file parse.
	boundaries := []int64{int64(len(walMagic))}
	full := NewSegmentParser()
	full.Feed(raw)
	for {
		ev, err := full.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev == nil {
			break
		}
		boundaries = append(boundaries, full.Offset())
	}
	if full.Offset() != int64(len(raw)) {
		t.Fatalf("clean parse stopped at %d of %d", full.Offset(), len(raw))
	}
	events := len(boundaries) - 1 // open + 3 reports
	if events != 4 {
		t.Fatalf("segment holds %d events, want 4", events)
	}

	// Cut mid-record (three bytes into the last record) and feed in two
	// installments, draining between them.
	cut := int(boundaries[events-1]) + 3
	p := NewSegmentParser()
	p.Feed(raw[:cut])
	var got int
	for {
		ev, err := p.Next()
		if err != nil {
			t.Fatalf("parse before cut: %v", err)
		}
		if ev == nil {
			break
		}
		got++
	}
	if got != events-1 {
		t.Fatalf("parsed %d events before the cut, want %d", got, events-1)
	}
	if p.Offset() != boundaries[events-1] {
		t.Fatalf("torn-tail offset = %d, want boundary %d", p.Offset(), boundaries[events-1])
	}
	p.Feed(raw[cut:]) // the re-requested remainder arrives
	ev, err := p.Next()
	if err != nil || ev == nil {
		t.Fatalf("converge after refeed: %v %v", ev, err)
	}
	if p.Offset() != int64(len(raw)) {
		t.Fatalf("converged offset = %d, want %d", p.Offset(), len(raw))
	}

	// Damage, by contrast, is sticky: flip a byte inside the last record
	// and the parser stops at the same boundary with ErrCorruptRecord,
	// and stays stopped even if more bytes arrive.
	bad := append([]byte(nil), raw...)
	bad[cut] ^= 0xFF
	p2 := NewSegmentParser()
	p2.Feed(bad)
	for {
		ev, err := p2.Next()
		if ev != nil {
			continue
		}
		if !errors.Is(err, ErrCorruptRecord) {
			t.Fatalf("corrupt tail = %v, want ErrCorruptRecord", err)
		}
		break
	}
	if p2.Offset() != boundaries[events-1] {
		t.Fatalf("corrupt stop offset = %d, want %d", p2.Offset(), boundaries[events-1])
	}
	p2.Feed(raw[len(raw)-1:])
	if _, err := p2.Next(); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("sticky error lost: %v", err)
	}

	// SkipTo resumes a parser mid-segment: position it at the last
	// boundary and feed only the tail record's bytes.
	p3 := NewSegmentParser()
	p3.SkipTo(boundaries[events-1])
	p3.Feed(raw[boundaries[events-1]:])
	if ev, err := p3.Next(); err != nil || ev == nil {
		t.Fatalf("SkipTo resume: %v %v", ev, err)
	}
	if p3.Offset() != int64(len(raw)) {
		t.Fatalf("SkipTo final offset = %d, want %d", p3.Offset(), len(raw))
	}
}

// Recover must report tail offsets a follower can trust: on a clean
// directory TailOff is the tail file's size; on a directory whose tail
// segment ends mid-record (a torn shipped tail) TailOff stops at the
// last valid record — the truncate-and-re-request point — while the
// recovered state still holds everything before the tear.
func TestRecoverTailOffsets(t *testing.T) {
	dir := t.TempDir()
	d := openTestStore(t, dir, Options{})
	logRound(t, d, 1, 4, 0, 1)
	if _, err := d.Seal(); err != nil { // gen 1 sealed, gen 2 active
		t.Fatal(err)
	}
	logRound(t, d, 2, 4, 0)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	tail := filepath.Join(dir, walName(2))
	st, err := os.Stat(tail)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	replayRef(t, rec)
	if rec.TailGen() != 2 || rec.TailOff() != st.Size() {
		t.Fatalf("clean tail = gen %d off %d, want gen 2 off %d", rec.TailGen(), rec.TailOff(), st.Size())
	}

	// Tear the tail: chop 5 bytes off the last record. Recovery stops at
	// the last valid boundary, keeps round 1 intact, and round 2 loses
	// only the torn report.
	raw, err := os.ReadFile(tail)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(tail, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	rec2, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	ref2 := replayRef(t, rec2)
	if rec2.TailGen() != 2 {
		t.Fatalf("torn tail gen = %d", rec2.TailGen())
	}
	if rec2.TailOff() >= int64(len(raw)-5) || rec2.TailOff() < int64(len(walMagic)) {
		t.Fatalf("torn TailOff = %d, want a record boundary inside [8, %d)", rec2.TailOff(), len(raw)-5)
	}
	rounds := ref2.sortedRounds()
	if len(rounds) != 2 || !reflect.DeepEqual(rounds[0].Cells, wantRoundCells(0, 1)) {
		t.Fatal("tear in gen 2 damaged gen 1 state")
	}
	if rounds[1].Reported[0] {
		t.Fatal("torn report was applied")
	}
	// The boundary is real: the bytes up to TailOff re-parse cleanly and
	// end exactly there.
	p := NewSegmentParser()
	p.Feed(raw[:rec2.TailOff()])
	for {
		ev, err := p.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ev == nil {
			break
		}
	}
	if p.Offset() != rec2.TailOff() {
		t.Fatalf("TailOff %d is not a record boundary (parser stopped at %d)", rec2.TailOff(), p.Offset())
	}

	// A directory that never existed recovers as empty — the state a
	// brand-new follower starts from.
	empty, err := Recover(filepath.Join(dir, "does-not-exist"))
	if err != nil {
		t.Fatal(err)
	}
	if empty.TailGen() != 0 || empty.TailOff() != 0 || len(empty.Rounds()) != 0 {
		t.Fatal("missing directory did not recover as empty")
	}
}
