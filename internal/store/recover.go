package store

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
)

// ErrReadOnlyStore is returned by mutating operations on a Recovered
// store (and by a replica back-end rejecting writes routed at it).
var ErrReadOnlyStore = errors.New("store: read-only")

// Recovered is a read-only view of a store directory: the same replay
// plan Open settles — newest valid snapshot, segments at or above it —
// without creating a fresh segment or touching the directory in any
// way. It implements Store — Replay streams the directory, appends fail
// with ErrReadOnlyStore — so a replica back-end is built from it
// exactly like a primary is built from a Disk.
//
// The replication follower is the consumer: it must rebuild state from
// its local mirror of the primary's directory on every start, but must
// NOT Open the directory — Open creates wal-(max+1).log, and that
// generation belongs to the primary, whose next rotation would collide
// with it. Promotion is the moment the follower finally does call Open,
// on the same directory, and takes ownership of the generation space.
type Recovered struct {
	view    *logView
	tailOff int64
	files   []FileInfo
}

// Recover scans the store directory at dir without modifying it and
// loads its newest valid snapshot; Replay streams the rest. A missing
// directory is not an error: it recovers as empty (the state a
// brand-new follower starts from).
func Recover(dir string) (*Recovered, error) {
	walGens, snapGens, _, err := scanStoreDir(dir, false)
	if err != nil {
		if os.IsNotExist(err) {
			return &Recovered{view: &logView{dir: dir}}, nil
		}
		return nil, err
	}
	view, err := newLogView(dir, walGens, snapGens)
	if err != nil {
		return nil, err
	}
	r := &Recovered{view: view}
	tail := r.view.tailGen()
	for _, g := range snapGens {
		if st, err := os.Stat(filepath.Join(dir, snapName(g))); err == nil {
			r.files = append(r.files, FileInfo{Kind: FileSnapshot, Gen: g, Size: st.Size(), Sealed: true})
		}
	}
	for _, g := range walGens {
		if st, err := os.Stat(filepath.Join(dir, walName(g))); err == nil {
			r.files = append(r.files, FileInfo{Kind: FileWAL, Gen: g, Size: st.Size(), Sealed: g != tail})
		}
	}
	return r, nil
}

// Replay implements Store. It may run more than once (each run re-reads
// the directory); every run records the tail offset.
func (r *Recovered) Replay(load func(*Base) error, apply func(Event) error) error {
	off, _, err := r.view.replay(load, apply)
	if err != nil {
		return err
	}
	r.tailOff = off
	return nil
}

// TailGen returns the generation of the last WAL segment the replay
// streams — the segment a follower resumes tailing — or 0 if the
// directory holds no segments.
func (r *Recovered) TailGen() uint64 { return r.view.tailGen() }

// TailOff returns the byte offset just past the last valid record in
// the tail segment, as of the last Replay (0 before one). Bytes after
// it (a torn fetch or torn append) were not applied; a follower
// truncates its local tail to this offset and re-requests from here,
// which is what makes a torn shipped tail converge instead of wedging.
func (r *Recovered) TailOff() int64 { return r.tailOff }

// Files returns the store files present in the recovered directory,
// ordered as scanned (snapshots then segments, each by generation). The
// tail segment is reported unsealed; everything else sealed.
func (r *Recovered) Files() []FileInfo { return r.files }

// Rounds is an audit view for the benchmark and offline tools; no
// server path reads it. It replays the directory and returns every round
// it holds, ordered by (campaign, round): the snapshot's rounds plus
// each round a WAL open record creates, with every logged reporter
// marked in Reported and logged closes in Closed. It folds no cells and
// applies no acceptance rule — Cells, N and Adjusts are the snapshot's,
// and empty for a round the WAL opened. The reported set is exact for
// any WAL the live path wrote, because that path logs only accepted
// reports. It returns nil if the directory does not replay.
func (r *Recovered) Rounds() []*RoundState {
	type key struct {
		campaign uint32
		round    uint64
	}
	byKey := make(map[key]*RoundState)
	err := r.Replay(func(b *Base) error {
		for _, rs := range b.Rounds {
			byKey[key{rs.Campaign, rs.Round}] = rs
		}
		return nil
	}, func(ev Event) error {
		switch e := ev.(type) {
		case *OpenEvent:
			if _, ok := byKey[key{e.Campaign, e.Round}]; !ok {
				byKey[key{e.Campaign, e.Round}] = &RoundState{
					Campaign: e.Campaign, Round: e.Round, RosterSize: e.RosterSize,
					ConfigVersion: e.ConfigVersion, RosterVersion: e.RosterVersion,
					D: e.D, W: e.W, Seed: e.Seed, Keystream: e.Keystream,
					Reported: make([]bool, e.RosterSize),
				}
			}
		case *ReportEvent:
			// A bounds guard for the bitmap, not a rule: the live path logs
			// no out-of-roster report.
			if rs := byKey[key{e.Campaign, e.Round}]; rs != nil && e.User >= 0 && e.User < len(rs.Reported) {
				rs.Reported[e.User] = true
			}
		case *CloseEvent:
			if rs := byKey[key{e.Campaign, e.Round}]; rs != nil {
				rs.Closed = true
			}
		}
		return nil
	})
	if err != nil {
		return nil
	}
	out := make([]*RoundState, 0, len(byKey))
	for _, rs := range byKey {
		out = append(out, rs)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Campaign != out[j].Campaign {
			return out[i].Campaign < out[j].Campaign
		}
		return out[i].Round < out[j].Round
	})
	return out
}

// AppendCampaign implements Store: it fails with ErrReadOnlyStore.
func (r *Recovered) AppendCampaign([]byte) error { return ErrReadOnlyStore }

// AppendRegister implements Store: it fails with ErrReadOnlyStore.
func (r *Recovered) AppendRegister(int, []byte) error { return ErrReadOnlyStore }

// AppendConfig implements Store: it fails with ErrReadOnlyStore.
func (r *Recovered) AppendConfig(uint32, uint32) error { return ErrReadOnlyStore }

// AppendOpen implements Store: it fails with ErrReadOnlyStore.
func (r *Recovered) AppendOpen(uint32, uint64, int, int, int, uint64, byte, uint32, uint32) error {
	return ErrReadOnlyStore
}

// AppendReport implements Store: it fails with ErrReadOnlyStore.
func (r *Recovered) AppendReport(uint32, uint64, int, int, int, uint64, uint64, byte, uint32, []uint64) error {
	return ErrReadOnlyStore
}

// AppendAdjust implements Store: it fails with ErrReadOnlyStore.
func (r *Recovered) AppendAdjust(uint32, uint64, int, []uint64) error { return ErrReadOnlyStore }

// AppendClose implements Store: it fails with ErrReadOnlyStore.
func (r *Recovered) AppendClose(uint32, uint64) error { return ErrReadOnlyStore }

// Sync implements Store: a no-op (nothing was appended).
func (r *Recovered) Sync() error { return nil }

// ShouldSnapshot implements Store: always false.
func (r *Recovered) ShouldSnapshot() bool { return false }

// Snapshot implements Store: it fails with ErrReadOnlyStore.
func (r *Recovered) Snapshot(func() ([]*RoundState, error)) error { return ErrReadOnlyStore }

// Close implements Store: a no-op (no file handles are held).
func (r *Recovered) Close() error { return nil }
