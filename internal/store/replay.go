package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Replay: handing a store directory's log back to its owner.
//
// The store applies no acceptance rule. A replay is the newest valid
// snapshot (the base) followed by every WAL record after it, decoded
// into typed events and handed over in log order; what each event does
// to round state — which reports count, which are duplicates of the
// fuzzy snapshot's overlap — is decided by the back-end's one applier,
// which a restart (backend.New over a Disk) and a warm replica
// (backend.New over a Recovered, then ApplyEvent on the primary's
// stream) share.

// logView is a store directory's replay plan, settled by a scan: the
// newest snapshot that validates and the WAL segments at or above its
// generation.
type logView struct {
	dir string
	// base is the loaded snapshot, handed over by the first replay (nil
	// afterwards, and nil when the directory holds no valid snapshot).
	base *Base
	// baseGen is base's generation (0 = no snapshot).
	baseGen uint64
	// walGens are the segments a replay streams, ascending.
	walGens []uint64
}

// newLogView picks the newest snapshot that validates — a torn one
// (crash mid-cycle) is skipped and the previous generation carries the
// replay — and the segments at or above it. A valid snapshot of a
// version this build cannot read is an error (ErrSnapshotVersion), not
// a skip. snapGens must be sorted newest-first and walGens ascending
// (scanStoreDir's order).
func newLogView(dir string, walGens, snapGens []uint64) (*logView, error) {
	v := &logView{dir: dir}
	for _, g := range snapGens {
		s, err := loadSnapshot(filepath.Join(dir, snapName(g)))
		if errors.Is(err, ErrSnapshotVersion) {
			return nil, err
		}
		if err == nil {
			v.base, v.baseGen = s, g
			break
		}
	}
	for _, g := range walGens {
		if g >= v.baseGen {
			v.walGens = append(v.walGens, g)
		}
	}
	return v, nil
}

// tailGen is the generation of the last segment a replay streams — the
// segment a follower resumes tailing — or 0 if there is none.
func (v *logView) tailGen() uint64 {
	if len(v.walGens) == 0 {
		return 0
	}
	return v.walGens[len(v.walGens)-1]
}

// replay hands load the base — the snapshot loaded at the scan the first
// time, re-read on later calls — then streams every segment's events to
// apply. It returns the byte offset just past the tail segment's last
// valid record and the segment bytes streamed (magic included).
func (v *logView) replay(load func(*Base) error, apply func(Event) error) (tailOff, streamed int64, err error) {
	base := v.base
	v.base = nil
	if base == nil && v.baseGen != 0 {
		if base, err = loadSnapshot(filepath.Join(v.dir, snapName(v.baseGen))); err != nil {
			return 0, 0, err
		}
	}
	if base == nil {
		base = &Base{}
	}
	if err := load(base); err != nil {
		return 0, 0, err
	}
	// One reader serves every segment: a directory restarted many times
	// holds many near-empty segments, and a fresh replay buffer for each
	// would cost more to allocate and zero than replaying them.
	var br *bufio.Reader
	for _, g := range v.walGens {
		if br == nil {
			br = bufio.NewReaderSize(nil, replayBufSize)
		}
		off, err := replaySegment(filepath.Join(v.dir, walName(g)), br, apply)
		if err != nil {
			return 0, 0, err
		}
		tailOff = off
		streamed += off
	}
	return tailOff, streamed, nil
}

// replaySegment streams one WAL segment's events to apply and returns
// the byte offset just past the last record it handed over. A record
// that fails its CRC ends the segment cleanly — everything before it is
// applied; a crash mid-append only ever leaves such a record at the
// tail, so nothing real can follow it. A record whose CRC *validates*
// but whose body does not parse is different: it means version skew or
// an encoder bug, and silently stopping there would discard
// fsync-acknowledged records behind it — so that refuses the replay
// loudly instead. br is the replay reader, reset onto the segment;
// records that fit it are served in place (ReadWALRecord), so an
// event's byte slices are valid only during its apply call.
func replaySegment(path string, br *bufio.Reader, apply func(Event) error) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br.Reset(f)
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != walMagic {
		return 0, nil // empty or foreign file: nothing to replay
	}
	off := int64(len(walMagic))
	var buf []byte
	for {
		kind, body, nbuf, err := ReadWALRecord(br, buf)
		buf = nbuf
		if err != nil {
			return off, nil // EOF, or a torn tail: replay stops at the last valid record
		}
		ev, err := DecodeEvent(kind, body)
		if err != nil {
			return off, fmt.Errorf("store: %s: checksummed record does not parse (version skew?): %w", path, err)
		}
		if err := apply(ev); err != nil {
			return off, err
		}
		off += walRecordOverhead + int64(len(body))
	}
}
