package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"eyewnder/internal/vec"
)

// Snapshot files: the full round+roster state at one instant, written
// atomically (temp file, fsync, rename, directory fsync) so a crash
// mid-snapshot leaves either the previous snapshot or the new one,
// never a half-written file that recovery would trust. Layout (all
// integers little-endian):
//
//	magic "EYWSNAP1" (8)  version(4) = 3
//	configVersion(4) rosterVersion(4)
//	campaignCount(8) { defLen(8) def }*   sorted by campaign ID
//	rosterCount(8) { user(8) keyLen(8) key }*
//	roundCount(8) {
//	    round(8) roster(8) d(8) w(8) seed(8) n(8)
//	    roundConfigVersion(4) roundRosterVersion(4)
//	    campaign(4)
//	    keystream(1) closed(1)
//	    reportedBitmap(⌈roster/8⌉)
//	    adjustCount(8) { user(8) cells(8·d·w) }*
//	    cells(8·d·w)
//	}*
//	crc32c(4) over everything before it
//
// The config/roster counters at the top are the deployment's; each
// round carries the config it was opened under and its campaign ID. The
// campaign directory holds the canonical campaign encodings, stored
// exactly as their recCampaign WAL records.
//
// The trailing whole-file CRC is the validity marker: a snapshot that
// fails it (torn write, partial disk) is ignored and recovery falls
// back to the previous generation's snapshot plus its WAL segments. A
// snapshot that passes it but carries another version is refused
// (ErrSnapshotVersion): it is intact state this build cannot read, and
// skipping it would recover an empty roster.

const snapMagic = "EYWSNAP1"

// snapVersion is the one snapshot format written and read.
const snapVersion = 3

// ErrSnapshotVersion refuses a checksum-valid snapshot whose format
// version this build does not read. It is never skipped like a torn
// snapshot: the data directory must be upgraded through the previous
// release, which rewrites its snapshot as version 3 (OPERATIONS.md §3).
var ErrSnapshotVersion = errors.New("store: unreadable snapshot version")

// maxSnapshotCells caps a single round's cell count on load (2²⁸ cells
// = 2 GiB), mirroring the sketch deserializer's bound so a corrupt
// header cannot provoke a huge allocation.
const maxSnapshotCells = 1 << 28

// writeSnapshot writes the state to path atomically.
func writeSnapshot(path string, roster map[int][]byte, campaigns map[uint32][]byte, rounds []*RoundState, configVersion, rosterVersion uint32) error {
	buf := encodeSnapshot(roster, campaigns, rounds, configVersion, rosterVersion)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(buf); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// encodeSnapshot serializes the state with the trailing CRC.
func encodeSnapshot(roster map[int][]byte, campaigns map[uint32][]byte, rounds []*RoundState, configVersion, rosterVersion uint32) []byte {
	size := len(snapMagic) + 4 + 8 + 8
	camps := sortedCampaignIDs(campaigns)
	for _, id := range camps {
		size += 8 + len(campaigns[id])
	}
	users := sortedUsers(roster)
	for _, u := range users {
		size += 16 + len(roster[u])
	}
	size += 8
	for _, rs := range rounds {
		size += 62 + (rs.RosterSize+7)/8 + 8
		for range rs.Adjusts {
			size += 8 + 8*len(rs.Cells)
		}
		size += 8 * len(rs.Cells)
	}
	size += 4 // CRC
	buf := make([]byte, 0, size)
	buf = append(buf, snapMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, snapVersion)
	buf = binary.LittleEndian.AppendUint32(buf, configVersion)
	buf = binary.LittleEndian.AppendUint32(buf, rosterVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(camps)))
	for _, id := range camps {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(campaigns[id])))
		buf = append(buf, campaigns[id]...)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(users)))
	for _, u := range users {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(u))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(roster[u])))
		buf = append(buf, roster[u]...)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(rounds)))
	for _, rs := range rounds {
		buf = binary.LittleEndian.AppendUint64(buf, rs.Round)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rs.RosterSize))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rs.D))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(rs.W))
		buf = binary.LittleEndian.AppendUint64(buf, rs.Seed)
		buf = binary.LittleEndian.AppendUint64(buf, rs.N)
		buf = binary.LittleEndian.AppendUint32(buf, rs.ConfigVersion)
		buf = binary.LittleEndian.AppendUint32(buf, rs.RosterVersion)
		buf = binary.LittleEndian.AppendUint32(buf, rs.Campaign)
		flags := []byte{rs.Keystream, 0}
		if rs.Closed {
			flags[1] = 1
		}
		buf = append(buf, flags...)
		bitmap := make([]byte, (rs.RosterSize+7)/8)
		for u, rep := range rs.Reported {
			if rep {
				bitmap[u/8] |= 1 << (u % 8)
			}
		}
		buf = append(buf, bitmap...)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(rs.Adjusts)))
		for _, u := range sortedAdjustUsers(rs.Adjusts) {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(u))
			buf = appendCells(buf, rs.Adjusts[u])
		}
		buf = appendCells(buf, rs.Cells)
	}
	crc := crc32.Checksum(buf, castagnoli)
	return binary.LittleEndian.AppendUint32(buf, crc)
}

// appendCells appends a cell vector's raw little-endian bytes.
func appendCells(buf []byte, cells []uint64) []byte {
	if view, ok := vec.AsBytes(cells); ok {
		return append(buf, view...)
	}
	off := len(buf)
	buf = append(buf, make([]byte, 8*len(cells))...)
	vec.PutLE(buf[off:], cells)
	return buf
}

// loadSnapshot reads and validates a snapshot file. A structural
// problem — bad magic, failed CRC, truncated section — returns an
// error the caller answers by falling back to an older generation; a
// valid snapshot of another version returns ErrSnapshotVersion, which
// the caller must not skip.
func loadSnapshot(path string) (*Base, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(snapMagic)+4+8+8+4 || string(raw[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("store: %s: not a snapshot", path)
	}
	body, tail := raw[:len(raw)-4], raw[len(raw)-4:]
	if binary.LittleEndian.Uint32(tail) != crc32.Checksum(body, castagnoli) {
		return nil, fmt.Errorf("store: %s: snapshot checksum mismatch", path)
	}
	r := snapReader{buf: body[len(snapMagic):]}
	if v := r.uint32(); v != snapVersion {
		return nil, fmt.Errorf("%w: %s is version %d, this build reads version %d only; upgrade the data directory through the previous release until it has written a version-%d snapshot",
			ErrSnapshotVersion, path, v, snapVersion, snapVersion)
	}
	snap := &Base{Roster: make(map[int][]byte), Campaigns: make(map[uint32][]byte)}
	snap.ConfigVersion = r.uint32()
	snap.RosterVersion = r.uint32()
	camps := r.uint64()
	var prev uint32
	for i := uint64(0); i < camps && r.err == nil; i++ {
		def := r.bytes(r.uint64())
		if r.err != nil {
			break
		}
		if len(def) < campaignBodyMin {
			return nil, fmt.Errorf("store: %s: snapshot campaign entry", path)
		}
		id := binary.LittleEndian.Uint32(def[0:])
		if id == 0 || id > maxRecordCampaign || (i > 0 && id <= prev) {
			return nil, fmt.Errorf("store: %s: snapshot campaign order", path)
		}
		prev = id
		snap.Campaigns[id] = append([]byte(nil), def...)
	}
	users := r.uint64()
	for i := uint64(0); i < users && r.err == nil; i++ {
		u := r.uint64()
		key := r.bytes(r.uint64())
		if u > 1<<31 {
			return nil, fmt.Errorf("store: %s: snapshot roster entry", path)
		}
		snap.Roster[int(u)] = append([]byte(nil), key...)
	}
	rounds := r.uint64()
	for i := uint64(0); i < rounds && r.err == nil; i++ {
		rs := &RoundState{Adjusts: make(map[int][]uint64)}
		rs.Round = r.uint64()
		roster := r.uint64()
		d, w := r.uint64(), r.uint64()
		rs.Seed = r.uint64()
		rs.N = r.uint64()
		rs.ConfigVersion = r.uint32()
		rs.RosterVersion = r.uint32()
		rs.Campaign = r.uint32()
		if rs.Campaign > maxRecordCampaign {
			return nil, fmt.Errorf("store: %s: snapshot round campaign", path)
		}
		flags := r.bytes(2)
		if r.err != nil {
			break
		}
		if roster > 1<<31 || d < 1 || w < 1 || d > maxReportDepth || w > maxReportWidth || d*w > maxSnapshotCells {
			return nil, fmt.Errorf("store: %s: snapshot round header", path)
		}
		rs.RosterSize, rs.D, rs.W = int(roster), int(d), int(w)
		rs.Keystream, rs.Closed = flags[0], flags[1] != 0
		bitmap := r.bytes(uint64((roster + 7) / 8))
		if r.err != nil {
			break
		}
		rs.Reported = make([]bool, roster)
		for u := range rs.Reported {
			rs.Reported[u] = bitmap[u/8]&(1<<(u%8)) != 0
		}
		adjusts := r.uint64()
		for j := uint64(0); j < adjusts && r.err == nil; j++ {
			u := r.uint64()
			cells := r.cells(d * w)
			if r.err == nil {
				if u >= roster {
					return nil, fmt.Errorf("store: %s: snapshot adjust entry", path)
				}
				rs.Adjusts[int(u)] = cells
			}
		}
		rs.Cells = r.cells(d * w)
		if r.err == nil {
			snap.Rounds = append(snap.Rounds, rs)
		}
	}
	if r.err != nil {
		return nil, fmt.Errorf("store: %s: %v", path, r.err)
	}
	if len(r.buf) != 0 {
		return nil, fmt.Errorf("store: %s: %d trailing snapshot bytes", path, len(r.buf))
	}
	return snap, nil
}

// snapReader is a bounds-checked cursor over a snapshot body.
type snapReader struct {
	buf []byte
	err error
}

func (r *snapReader) bytes(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.buf)) < n {
		r.err = fmt.Errorf("truncated snapshot section (%d of %d bytes)", len(r.buf), n)
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *snapReader) uint32() uint32 {
	b := r.bytes(4)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) uint64() uint64 {
	b := r.bytes(8)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *snapReader) cells(n uint64) []uint64 {
	raw := r.bytes(8 * n)
	if r.err != nil {
		return nil
	}
	out := make([]uint64, n)
	vec.GetLE(out, raw)
	return out
}

// sortedUsers returns the roster's user indices in ascending order.
func sortedUsers(roster map[int][]byte) []int {
	out := make([]int, 0, len(roster))
	for u := range roster {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// sortedCampaignIDs returns a campaign directory's IDs in ascending
// order, the canonical section order.
func sortedCampaignIDs(campaigns map[uint32][]byte) []uint32 {
	out := make([]uint32, 0, len(campaigns))
	for id := range campaigns {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// sortedAdjustUsers returns an adjustment map's user indices ascending.
func sortedAdjustUsers(adjusts map[int][]uint64) []int {
	out := make([]int, 0, len(adjusts))
	for u := range adjusts {
		out = append(out, u)
	}
	sort.Ints(out)
	return out
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
