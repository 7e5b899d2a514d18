package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// walMagic heads every WAL segment file.
const walMagic = "EYWNWAL1"

// walBufSize is the append buffer: large enough that a paper-geometry
// report record (~150 KB) takes a couple of flushes, small enough that
// an idle flush is cheap.
const walBufSize = 1 << 18

// replayBufSize is the segment replay reader's buffer. Records that fit
// are checked and folded in place (ReadWALRecord), so the buffer sets
// how often the reader slides its unread tail to the front and refills:
// at 512 KiB one refill covers three paper-geometry (152 KB) reports.
// BenchmarkRecover/paper (2-core Xeon VM, median of 5) read 6.7 ms at
// 256 KiB, 6.2 ms at 512 KiB and 1 MiB, and 7.7–8.7 ms at 2–4 MiB; the
// small-record shape did not move.
const replayBufSize = 1 << 19

// ErrStoreClosed is returned by operations on a closed (or failed)
// store.
var ErrStoreClosed = errors.New("store: closed")

// Disk is the durable Store: WAL segments plus snapshots in one
// directory. Safe for concurrent use.
//
// Group commit: appends buffer under the store mutex; Sync flushes and
// fsyncs, and concurrent Sync callers coalesce — whoever becomes the
// leader fsyncs everything appended so far, followers whose records
// that covered return without touching the disk. With the wire layer
// calling Sync once per ack batch, k streamed reports cost one fsync.
type Disk struct {
	dir  string
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond // signals sync completion and rotation safety
	f       *os.File
	bw      *bufio.Writer
	enc     RecordEncoder // reusable encode scratch; guarded by mu
	gen     uint64
	seq     uint64 // records appended
	synced  uint64 // records known durable
	syncing bool   // a group-commit leader is mid-fsync
	err     error  // sticky I/O failure; everything fails after
	closed  bool

	// cfgVer and rosVer are the live deployment-wide config/roster
	// version counters, guarded by mu and updated in the same critical
	// section as the recConfig append (like roster below), so a snapshot
	// rotation always captures counters consistent with the records its
	// segments supersede.
	cfgVer uint32
	rosVer uint32

	reports atomic.Int64 // report appends since the last snapshot

	m *storeMetrics // pre-registered instrument handles, always non-nil

	snapMu sync.Mutex // serializes Snapshot calls

	// roster is the live bulletin board, kept for the next snapshot. It
	// is guarded by mu and updated in the same critical section as the
	// register append, so a snapshot's roster copy — taken inside the
	// rotation's critical section — is guaranteed to reflect every
	// register record in the segments the snapshot supersedes, without
	// depending on any caller-side locking.
	roster map[int][]byte

	// campaigns is the live campaign directory (ID → opaque canonical
	// encoding), guarded by mu with the same discipline as roster: it
	// advances in AppendCampaign's critical section, so a rotation's
	// copy reflects every recCampaign record the snapshot supersedes.
	campaigns map[uint32][]byte

	rounds []*RoundState // recovered at Open, consumed by the back-end
}

// Open opens (creating if needed) the store directory, recovers the
// round and roster state from the newest valid snapshot plus every WAL
// segment after it, and starts a fresh segment for new appends. The
// recovered state is available from Rounds and Roster.
func Open(dir string, opts Options) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	walGens, snapGens, maxGen, err := scanStoreDir(dir, true)
	if err != nil {
		return nil, err
	}

	rec, baseGen, _, _, err := recoverState(dir, walGens, snapGens)
	if err != nil {
		return nil, err
	}

	// New appends go to a fresh segment: the previous segment may end in
	// a torn record, and appending after one would hide every record
	// that follows it from the next recovery.
	gen := maxGen + 1
	f, err := createSegment(filepath.Join(dir, walName(gen)))
	if err != nil {
		return nil, err
	}
	// Stale files below the recovered snapshot are leftovers of a crash
	// between snapshot and prune; their content is in the snapshot.
	for _, g := range walGens {
		if g < baseGen {
			os.Remove(filepath.Join(dir, walName(g)))
		}
	}
	for _, g := range snapGens {
		if g < baseGen {
			os.Remove(filepath.Join(dir, snapName(g)))
		}
	}

	d := &Disk{
		dir:    dir,
		opts:   opts,
		f:      f,
		bw:     bufio.NewWriterSize(f, walBufSize),
		gen:    gen,
		cfgVer: rec.configVersion,
		rosVer: rec.rosterVersion,
		rounds: rec.sortedRounds(),
	}
	d.cond = sync.NewCond(&d.mu)
	d.roster = rec.roster
	d.campaigns = rec.campaigns
	d.m = newStoreMetrics(opts.Metrics)
	if opts.Metrics != nil {
		opts.Metrics.GaugeFunc("eyewnder_store_generation",
			"Active WAL segment generation.",
			func() float64 { return float64(d.Generation()) })
		replaySeconds, replayBytes := rec.replayTime.Seconds(), float64(rec.replayBytes)
		opts.Metrics.GaugeFunc("eyewnder_store_replay_seconds",
			"Time Open spent replaying WAL segments (snapshot load excluded).",
			func() float64 { return replaySeconds })
		opts.Metrics.GaugeFunc("eyewnder_store_replay_bytes",
			"WAL segment bytes Open replayed (magic included, up to each segment's last valid record).",
			func() float64 { return replayBytes })
	}
	return d, nil
}

// Generation returns the active WAL segment's generation. It advances
// on every rotation (and by one at Open, which always starts a fresh
// segment).
func (d *Disk) Generation() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.gen
}

// scanStoreDir lists the WAL and snapshot generations present in dir,
// with walGens sorted ascending and snapGens descending (newest first,
// the order snapshot selection wants). When clean is set, leftover .tmp
// files from an interrupted snapshot are removed; a read-only caller
// (Recover, Manifest) passes false.
func scanStoreDir(dir string, clean bool) (walGens, snapGens []uint64, maxGen uint64, err error) {
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, 0, err
	}
	for _, e := range names {
		name := e.Name()
		if filepath.Ext(name) == ".tmp" {
			if clean {
				os.Remove(filepath.Join(dir, name)) // interrupted snapshot
			}
			continue
		}
		if g, ok := parseGen(name, "wal-", ".log"); ok {
			walGens = append(walGens, g)
			if g > maxGen {
				maxGen = g
			}
		} else if g, ok := parseGen(name, "snap-", ".snap"); ok {
			snapGens = append(snapGens, g)
			if g > maxGen {
				maxGen = g
			}
		}
	}
	sort.Slice(snapGens, func(i, j int) bool { return snapGens[i] > snapGens[j] })
	sort.Slice(walGens, func(i, j int) bool { return walGens[i] < walGens[j] })
	return walGens, snapGens, maxGen, nil
}

// recoverState rebuilds round/roster state from the newest valid
// snapshot plus every WAL segment at or after it. It also reports the
// snapshot generation the recovery is based on, and the tail position —
// the generation of the last segment replayed and the byte offset just
// past its last valid record — which a replication follower resumes
// tailing from. snapGens must be sorted newest-first and walGens
// ascending (scanStoreDir's order).
func recoverState(dir string, walGens, snapGens []uint64) (rec *recovered, baseGen, tailGen uint64, tailOff int64, err error) {
	// Newest snapshot that validates wins; a torn one (crash mid-cycle)
	// is skipped and the previous generation carries the recovery.
	var snap *snapshotData
	for _, g := range snapGens {
		s, err := loadSnapshot(filepath.Join(dir, snapName(g)))
		if err == nil {
			snap, baseGen = s, g
			break
		}
	}
	rec = newRecovered(snap)
	start := time.Now()
	// One reader serves every segment: a directory restarted many times
	// holds many near-empty segments, and a fresh replay buffer for each
	// would cost more to allocate and zero than replaying them.
	var br *bufio.Reader
	for _, g := range walGens {
		if g < baseGen {
			continue // fully reflected in the snapshot
		}
		if br == nil {
			br = bufio.NewReaderSize(nil, replayBufSize)
		}
		off, err := replaySegment(filepath.Join(dir, walName(g)), rec, br)
		if err != nil {
			return nil, 0, 0, 0, err
		}
		tailGen, tailOff = g, off
		rec.replayBytes += off
	}
	rec.replayTime = time.Since(start)
	return rec, baseGen, tailGen, tailOff, nil
}

// replaySegment folds one WAL segment into rec and returns the byte
// offset just past the last record it applied. A record that fails its
// CRC ends the segment cleanly — everything before it is applied; a
// crash mid-append only ever leaves such a record at the tail, so
// nothing real can follow it. A record whose CRC *validates* but whose
// body does not parse is different: it means version skew or an
// encoder bug, and silently stopping there would discard
// fsync-acknowledged records behind it — so that refuses recovery
// loudly instead. br is the replay reader, reset onto the segment.
func replaySegment(path string, rec *recovered, br *bufio.Reader) (int64, error) {
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
		if err == io.EOF {
			return off, nil
		}
		if err != nil {
			return off, nil // torn tail: recovery stops at the last valid record
		}
		if err := rec.apply(kind, body); err != nil {
			return off, fmt.Errorf("store: %s: checksummed record does not parse (version skew?): %w", path, err)
		}
		off += walRecordOverhead + int64(len(body))
	}
}

// walRecordOverhead is the framing cost of one WAL record beyond its
// body: length(4) + kind(1) + crc(4).
const walRecordOverhead = 9

// createSegment creates a WAL segment with its magic written and synced.
func createSegment(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func walName(gen uint64) string { return fmt.Sprintf("wal-%016d.log", gen) }

func snapName(gen uint64) string { return fmt.Sprintf("snap-%016d.snap", gen) }

// parseGen extracts the generation from a store file name.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if len(name) != len(prefix)+16+len(suffix) ||
		name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
		return 0, false
	}
	var g uint64
	for _, c := range name[len(prefix) : len(prefix)+16] {
		if c < '0' || c > '9' {
			return 0, false
		}
		g = g*10 + uint64(c-'0')
	}
	return g, true
}

// Rounds implements Store.
func (d *Disk) Rounds() []*RoundState { return d.rounds }

// Roster implements Store.
func (d *Disk) Roster() map[int][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[int][]byte, len(d.roster))
	for u, k := range d.roster {
		out[u] = append([]byte(nil), k...)
	}
	return out
}

// ConfigVersions implements Store.
func (d *Disk) ConfigVersions() (uint32, uint32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.cfgVer, d.rosVer
}

// Campaigns implements Store.
func (d *Disk) Campaigns() map[uint32][]byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make(map[uint32][]byte, len(d.campaigns))
	for id, def := range d.campaigns {
		out[id] = append([]byte(nil), def...)
	}
	return out
}

// append runs one encoded record append under the store lock, honoring
// the sticky error and the SyncAlways policy.
func (d *Disk) append(encode func(w io.Writer) error) error {
	d.mu.Lock()
	if err := d.usableLocked(); err != nil {
		d.mu.Unlock()
		return err
	}
	if err := encode(d.bw); err != nil {
		d.failLocked(err)
		d.mu.Unlock()
		return err
	}
	d.seq++
	wrote := d.enc.lastWrote
	if d.opts.Sync != SyncAlways {
		d.mu.Unlock()
		d.m.walAppends.Inc()
		d.m.walBytes.Add(uint64(wrote))
		return nil
	}
	d.mu.Unlock()
	d.m.walAppends.Inc()
	d.m.walBytes.Add(uint64(wrote))
	return d.Sync()
}

// usableLocked reports the sticky failure state. Caller holds d.mu.
func (d *Disk) usableLocked() error {
	if d.closed {
		return ErrStoreClosed
	}
	return d.err
}

// failLocked records a sticky I/O failure. Once the WAL cannot be
// trusted to contain what the caller was promised, every subsequent
// operation fails rather than acknowledge reports that were never made
// durable. Caller holds d.mu.
func (d *Disk) failLocked(err error) {
	if d.err == nil {
		d.err = err
	}
	d.cond.Broadcast()
}

// AppendRegister implements Store. The in-memory roster is updated in
// the same critical section as the record append: a snapshot rotation
// can then never observe the record in a superseded segment without
// also observing the roster entry.
func (d *Disk) AppendRegister(user int, publicKey []byte) error {
	d.mu.Lock()
	if err := d.usableLocked(); err != nil {
		d.mu.Unlock()
		return err
	}
	if err := d.enc.register(d.bw, user, publicKey); err != nil {
		d.failLocked(err)
		d.mu.Unlock()
		return err
	}
	d.seq++
	wrote := d.enc.lastWrote
	if d.roster == nil {
		d.roster = make(map[int][]byte)
	}
	d.roster[user] = append([]byte(nil), publicKey...)
	sync := d.opts.Sync == SyncAlways
	d.mu.Unlock()
	d.m.walAppends.Inc()
	d.m.walBytes.Add(uint64(wrote))
	if sync {
		return d.Sync()
	}
	return nil
}

// AppendConfig implements Store. Like AppendRegister, the live version
// counters advance in the same critical section as the append, so a
// snapshot rotation captures counters consistent with the segments it
// supersedes.
func (d *Disk) AppendConfig(configVersion, rosterVersion uint32) error {
	d.mu.Lock()
	if err := d.usableLocked(); err != nil {
		d.mu.Unlock()
		return err
	}
	if err := d.enc.config(d.bw, configVersion, rosterVersion); err != nil {
		d.failLocked(err)
		d.mu.Unlock()
		return err
	}
	d.seq++
	wrote := d.enc.lastWrote
	if configVersion > d.cfgVer {
		d.cfgVer = configVersion
	}
	if rosterVersion > d.rosVer {
		d.rosVer = rosterVersion
	}
	sync := d.opts.Sync == SyncAlways
	d.mu.Unlock()
	d.m.walAppends.Inc()
	d.m.walBytes.Add(uint64(wrote))
	if sync {
		return d.Sync()
	}
	return nil
}

// AppendOpen implements Store.
func (d *Disk) AppendOpen(campaign uint32, round uint64, rosterSize, dRows, wCols int, seed uint64, keystream byte, configVersion, rosterVersion uint32) error {
	return d.append(func(w io.Writer) error {
		return d.enc.open(w, campaign, round, rosterSize, dRows, wCols, seed, keystream, configVersion, rosterVersion)
	})
}

// AppendReport implements Store. This is the ingestion hot path: the
// locking is inlined (no encode closure) and the encoder's scratch is
// reused, so a steady-state report append allocates nothing.
func (d *Disk) AppendReport(campaign uint32, round uint64, user, dRows, wCols int, n, seed uint64, keystream byte, configVersion uint32, cells []uint64) error {
	d.mu.Lock()
	if err := d.usableLocked(); err != nil {
		d.mu.Unlock()
		return err
	}
	if err := d.enc.Report(d.bw, campaign, round, user, dRows, wCols, n, seed, keystream, configVersion, cells); err != nil {
		d.failLocked(err)
		d.mu.Unlock()
		return err
	}
	d.seq++
	wrote := d.enc.lastWrote
	sync := d.opts.Sync == SyncAlways
	d.mu.Unlock()
	d.reports.Add(1)
	d.m.walAppends.Inc()
	d.m.walBytes.Add(uint64(wrote))
	if sync {
		return d.Sync()
	}
	return nil
}

// AppendAdjust implements Store.
func (d *Disk) AppendAdjust(campaign uint32, round uint64, user int, cells []uint64) error {
	return d.append(func(w io.Writer) error { return d.enc.adjust(w, campaign, round, user, cells) })
}

// AppendClose implements Store.
func (d *Disk) AppendClose(campaign uint32, round uint64) error {
	return d.append(func(w io.Writer) error { return d.enc.close(w, campaign, round) })
}

// AppendCampaign implements Store. Like AppendRegister, the live
// directory advances in the same critical section as the append, so a
// snapshot rotation captures a directory consistent with the segments
// it supersedes.
func (d *Disk) AppendCampaign(def []byte) error {
	d.mu.Lock()
	if err := d.usableLocked(); err != nil {
		d.mu.Unlock()
		return err
	}
	if err := d.enc.campaignDef(d.bw, def); err != nil {
		d.failLocked(err)
		d.mu.Unlock()
		return err
	}
	d.seq++
	wrote := d.enc.lastWrote
	if d.campaigns == nil {
		d.campaigns = make(map[uint32][]byte)
	}
	d.campaigns[binary.LittleEndian.Uint32(def)] = append([]byte(nil), def...)
	sync := d.opts.Sync == SyncAlways
	d.mu.Unlock()
	d.m.walAppends.Inc()
	d.m.walBytes.Add(uint64(wrote))
	if sync {
		return d.Sync()
	}
	return nil
}

// Sync implements Store: the group-committed durability barrier. The
// caller returns only once every record appended before the call is
// flushed (and, unless SyncOff, fsynced). One caller at a time leads
// the commit; everyone whose records it covered piggybacks.
func (d *Disk) Sync() error {
	d.mu.Lock()
	target := d.seq
	for {
		if err := d.usableLocked(); err != nil {
			d.mu.Unlock()
			return err
		}
		if d.synced >= target {
			d.mu.Unlock()
			return nil
		}
		if !d.syncing {
			break // become the leader
		}
		d.cond.Wait() // a leader is mid-fsync; it may cover us
	}
	d.syncing = true
	if err := d.bw.Flush(); err != nil {
		d.syncing = false
		d.failLocked(err)
		d.mu.Unlock()
		return err
	}
	covered := d.seq // flushed up to here; later appends buffer behind us
	f := d.f
	d.mu.Unlock()

	var err error
	if d.opts.Sync != SyncOff {
		start := time.Now()
		err = f.Sync()
		d.m.fsyncs.Inc()
		observeSince(d.m.fsyncLat, start)
	}

	d.mu.Lock()
	d.syncing = false
	if err != nil {
		d.failLocked(err)
	} else if covered > d.synced {
		d.synced = covered
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	return err
}

// ShouldSnapshot implements Store.
func (d *Disk) ShouldSnapshot() bool {
	every := d.opts.snapshotEvery()
	return every > 0 && d.reports.Load() >= int64(every)
}

// Snapshot implements Store. The sequence is what makes the snapshot
// safe to combine with its WAL segment:
//
//  1. Rotate: flush and fsync the current segment, then point appends
//     at a fresh segment of the next generation. Every record in the
//     old segment is now both durable and — because the capture below
//     happens after rotation — guaranteed to be reflected in the
//     captured state.
//  2. Capture: run the owner's callback with no store lock held (it
//     takes the back-end's round locks; holding the WAL lock across it
//     could deadlock against reporters mid-append).
//  3. Publish: write the snapshot to a temp file, fsync, rename,
//     fsync the directory.
//  4. Prune: delete every segment and snapshot older than the new one.
//
// A crash anywhere in between leaves a recoverable directory: before
// the rename, recovery uses the previous snapshot plus both segments;
// after it, the new snapshot plus the fresh segment.
func (d *Disk) Snapshot(capture func() ([]*RoundState, error)) error {
	d.snapMu.Lock()
	defer d.snapMu.Unlock()
	start := time.Now()

	rot, err := d.rotate()
	if err != nil {
		return err
	}
	// The cadence counter resets at the rotation, not at success: if the
	// snapshot write below fails persistently (disk full, say), the next
	// attempt comes after another SnapshotEvery reports — a bounded
	// retry, not a rotation per report on an already-struggling disk.
	d.reports.Store(0)

	states, err := capture()
	if err != nil {
		return err // WAL already rotated: harmless, the next snapshot retries
	}
	if err := writeSnapshot(filepath.Join(d.dir, snapName(rot.newGen)), rot.roster, rot.campaigns, states, rot.cfgVer, rot.rosVer); err != nil {
		return err
	}
	// Retention holds the newest RetainSegments sealed segments back
	// from pruning; each cycle's floor rises past the previous cycle's
	// survivors, so the gap-stop below still sees a contiguous run.
	lo := rot.oldGen
	if k := uint64(d.opts.RetainSegments); k > 0 {
		if lo > k {
			lo -= k
		} else {
			lo = 0
		}
	}
	for g := lo; g > 0; g-- {
		// Contiguous generations below the new snapshot; stop at the
		// first gap (already pruned).
		p1 := filepath.Join(d.dir, walName(g))
		p2 := filepath.Join(d.dir, snapName(g))
		e1, e2 := os.Remove(p1), os.Remove(p2)
		if e1 == nil {
			d.m.segsPruned.Inc()
		}
		if os.IsNotExist(e1) && os.IsNotExist(e2) {
			break
		}
	}
	d.m.snapshots.Inc()
	observeSince(d.m.snapshotLat, start)
	return nil
}

// rotation is the result of a WAL rotation: the generation sealed and
// the one opened, plus a consistent copy of the roster and version
// counters as of the rotation point (what a snapshot of the sealed
// prefix must record).
type rotation struct {
	oldGen, newGen uint64
	roster         map[int][]byte
	campaigns      map[uint32][]byte
	cfgVer, rosVer uint32
}

// rotate seals the active segment — flush, fsync, swap appends to a
// fresh segment of the next generation — and returns the rotation
// point. Caller must hold snapMu (rotations are serialized; d.gen moves
// only here).
func (d *Disk) rotate() (rotation, error) {
	// Create (and fsync) the next segment before taking the store lock:
	// those are two fsyncs appends need not stall behind. snapMu
	// serializes rotations and Open is not concurrent, so d.gen cannot
	// move under us.
	d.mu.Lock()
	newGen := d.gen + 1
	d.mu.Unlock()
	newPath := filepath.Join(d.dir, walName(newGen))
	f, err := createSegment(newPath)
	if err != nil {
		return rotation{}, err
	}
	// If the rotation below fails, the pre-created segment must go away:
	// the generation has not advanced, so the next attempt would try to
	// create the same (O_EXCL) path.
	abort := func() {
		f.Close()
		os.Remove(newPath)
	}

	d.mu.Lock()
	for d.syncing {
		d.cond.Wait() // let an in-flight group commit finish with its file
	}
	if err := d.usableLocked(); err != nil {
		d.mu.Unlock()
		abort()
		return rotation{}, err
	}
	// The old segment's flush+fsync stays under the lock: the moment the
	// swap below publishes `synced = seq`, every record in the old
	// segment must actually be durable, and an append sneaking in
	// between an unlocked fsync and the swap would break that.
	if err := d.bw.Flush(); err != nil {
		d.failLocked(err)
		d.mu.Unlock()
		abort()
		return rotation{}, err
	}
	if d.opts.Sync != SyncOff {
		if err := d.f.Sync(); err != nil {
			d.failLocked(err)
			d.mu.Unlock()
			abort()
			return rotation{}, err
		}
	}
	old, oldGen := d.f, d.gen
	d.f, d.bw, d.gen = f, bufio.NewWriterSize(f, walBufSize), newGen
	d.synced = d.seq // the old segment is durable in full
	// Copy the roster (and the version counters) inside the rotation's
	// critical section: they then reflect exactly the register/config
	// records up to the rotation point, so pruning the old segments
	// cannot lose a registration or a version bump.
	roster := make(map[int][]byte, len(d.roster))
	for u, k := range d.roster {
		roster[u] = k
	}
	campaigns := make(map[uint32][]byte, len(d.campaigns))
	for id, def := range d.campaigns {
		campaigns[id] = def
	}
	cfgVer, rosVer := d.cfgVer, d.rosVer
	d.mu.Unlock()
	old.Close()
	d.m.segsSealed.Inc()
	return rotation{oldGen: oldGen, newGen: newGen, roster: roster, campaigns: campaigns, cfgVer: cfgVer, rosVer: rosVer}, nil
}

// Close implements Store: flushes, fsyncs, and releases the segment.
func (d *Disk) Close() error {
	err := d.Sync()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	f := d.f
	d.cond.Broadcast()
	d.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if errors.Is(err, ErrStoreClosed) {
		err = nil
	}
	return err
}
