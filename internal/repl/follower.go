package repl

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"eyewnder/internal/backend"
	"eyewnder/internal/obs"
	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// Follower-side defaults.
const (
	// DefaultPoll is the manifest poll interval when Options does not
	// set one.
	DefaultPoll = 50 * time.Millisecond
	// DefaultChunk is the fetch chunk size when Options does not set
	// one.
	DefaultChunk = 256 << 10
	// opTimeout bounds every request/response exchange with the
	// primary, so a half-dead primary surfaces as a transient error
	// instead of wedging the tail loop.
	opTimeout = 15 * time.Second
	// fetchDepth is how many ReplFetch requests fetchInto keeps in
	// flight. The primary answers requests in order on one connection,
	// so the pipeline needs nothing from it: while the follower reads
	// and writes one chunk, the primary is already reading the next and
	// the round trip overlaps both. Four DefaultChunk requests (1 MiB)
	// keep a loopback or LAN link busy.
	fetchDepth = 4
)

// errRefused marks a ReplError answer to a fetch: the primary refused
// that request, and the connection stays in step for the next one.
var errRefused = errors.New("repl: primary refused fetch")

// errFellBehind marks a fetch that hit the primary's pruning: the
// bytes the follower wanted are gone, covered by a newer snapshot. The
// run loop answers it by resyncing from that snapshot.
var errFellBehind = errors.New("repl: segment pruned on primary, resyncing from newer snapshot")

// fatalError wraps an error replication must not continue past:
// version skew in the stream (store.ErrBadRecord), a deployment
// mismatch from ApplyEvent, or a local filesystem failure. The run
// loop stops tailing and surfaces it in Status; the warm replica keeps
// serving reads.
type fatalError struct{ err error }

func (e fatalError) Error() string { return e.err.Error() }
func (e fatalError) Unwrap() error { return e.err }

// Options configures a Follower.
type Options struct {
	// Dir is the local mirror directory (the follower's data dir — the
	// one promotion re-opens as a writable store).
	Dir string
	// Addr is the primary's replication listen address.
	Addr string
	// Poll is the manifest poll interval; 0 picks DefaultPoll.
	Poll time.Duration
	// Chunk caps each fetch request; 0 picks DefaultChunk, and the
	// primary clamps to MaxChunk regardless.
	Chunk int
	// StoreOpts are the store options promotion opens the mirror with
	// (fsync mode, snapshot cadence, segment retention).
	StoreOpts store.Options
	// Logf, when set, receives replication progress and warnings.
	Logf func(format string, args ...any)
	// Metrics is the observability registry the follower's instruments
	// (events applied, resyncs, chunk fetch latency, connection and lag
	// gauges) register in. nil means a private registry: the
	// instrumented paths run identically, nothing is exported. The
	// counters are written at the same sites as the Status fields, so
	// the /metrics view and the status line always agree.
	Metrics *obs.Registry
}

// Status is a snapshot of a follower's replication state.
type Status struct {
	// Connected reports whether the last exchange with the primary
	// succeeded. A dead primary flips this false while the warm
	// replica keeps serving.
	Connected bool
	// CaughtUp reports whether the last poll ended with every byte of
	// the primary's manifest fetched and applied.
	CaughtUp bool
	// TailGen and TailOff locate the live tail: the WAL segment being
	// tailed and the local bytes fetched of it.
	TailGen uint64
	// TailOff is the fetched byte count of the tail segment.
	TailOff int64
	// Events counts WAL events applied to the replica since the
	// follower started (resyncs rebuild the replica and reset nothing;
	// the counter only grows).
	Events uint64
	// Resyncs counts snapshot resyncs (startup's initial sync is the
	// first).
	Resyncs uint64
	// RemoteGen and RemoteOff locate the primary's newest WAL segment
	// as of the last manifest poll — the tip the follower is chasing.
	RemoteGen uint64
	// RemoteOff is the flushed byte size of the primary's newest WAL
	// segment as of the last manifest poll.
	RemoteOff int64
	// Err is the fatal error that stopped tailing, if any. The replica
	// still serves its last state; promotion is refused until the
	// operator intervenes.
	Err error
}

// Follower mirrors a primary's store directory and keeps a warm
// read-only replica back-end fed from the shipped WAL. Start it with
// StartFollower; stop the tail loop with Stop; turn the mirror into
// the writable deployment store with Promote.
type Follower struct {
	opts Options
	cfg  backend.Config
	m    *replMetrics // pre-registered instrument handles, always non-nil

	mu      sync.Mutex
	replica *backend.Backend
	status  Status

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	// Tail-loop state (run goroutine only).
	c          *conn
	needResync bool
	curGen     uint64 // segment being tailed (0 = uninitialized)
	curOff     int64  // local bytes of the tail segment
	curFile    *os.File
	parser     *store.SegmentParser
	torn       bool   // tail segment stopped at a torn/corrupt record
	snapGen    uint64 // newest remote snapshot being mirrored
	snapOff    int64
}

// StartFollower connects to the primary at opts.Addr, performs the
// initial sync (newest snapshot plus every WAL segment it does not
// hold), builds the warm replica, and starts the tail loop. cfg is the
// deployment configuration the promoted back-end will run with;
// Replica and Store are overridden. The primary must be reachable at
// start — a follower that cannot complete its initial sync has nothing
// to serve.
func StartFollower(opts Options, cfg backend.Config) (*Follower, error) {
	if opts.Poll <= 0 {
		opts.Poll = DefaultPoll
	}
	if opts.Chunk <= 0 {
		opts.Chunk = DefaultChunk
	}
	if opts.Chunk > MaxChunk {
		opts.Chunk = MaxChunk
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	cfg.Replica = true
	cfg.Store = nil
	f := &Follower{
		opts: opts,
		cfg:  cfg,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	f.m = newReplMetrics(opts.Metrics)
	if opts.Metrics != nil {
		registerFollowerGauges(opts.Metrics, f)
	}
	c, err := dialPrimary(opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("repl: dial primary: %w", err)
	}
	f.c = c
	if err := f.resync(); err != nil {
		c.close()
		return nil, fmt.Errorf("repl: initial sync: %w", err)
	}
	go f.run()
	return f, nil
}

// Replica returns the current warm replica back-end. Resyncs swap it;
// callers serving reads should fetch it per request rather than cache
// it.
func (f *Follower) Replica() *backend.Backend {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.replica
}

// Status returns the follower's current replication status.
func (f *Follower) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.status
}

// Stop ends the tail loop and closes the primary connection. The warm
// replica keeps serving reads. Stop is idempotent.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() { close(f.stop) })
	<-f.done
}

// Promote stops the tail loop and re-opens the mirror as the writable
// deployment store: the mirror directory goes through the ordinary
// crash-recovery path (store.Open), exactly as if the primary itself
// had restarted on this data dir — which is what makes the promoted
// state byte-identical to the primary's acknowledged state. The caller
// owns both returned handles and closes the store after the back-end.
//
// Promotion is refused while replication has a recorded fatal error:
// a mirror that stopped applying mid-stream is not known to hold every
// acknowledged record.
func (f *Follower) Promote() (*backend.Backend, *store.Disk, error) {
	f.Stop()
	f.mu.Lock()
	rep := f.replica
	f.replica = nil
	err := f.status.Err
	f.mu.Unlock()
	if err != nil {
		return nil, nil, fmt.Errorf("repl: refusing promotion, replication stopped on: %w", err)
	}
	if rep != nil {
		rep.Close()
	}
	disk, err := store.Open(f.opts.Dir, f.opts.StoreOpts)
	if err != nil {
		return nil, nil, err
	}
	cfg := f.cfg
	cfg.Replica = false
	cfg.Store = disk
	b, err := backend.New(cfg)
	if err != nil {
		disk.Close()
		return nil, nil, err
	}
	return b, disk, nil
}

// run is the tail loop: poll the manifest, fetch new bytes, apply
// events; reconnect on transient failures, resync on pruning, stop on
// fatal damage.
func (f *Follower) run() {
	defer close(f.done)
	defer func() {
		if f.c != nil {
			f.c.close()
			f.c = nil
		}
		if f.curFile != nil {
			f.curFile.Close()
			f.curFile = nil
		}
	}()
	for {
		select {
		case <-f.stop:
			return
		default:
		}
		err := f.step()
		switch {
		case err == nil:
		case errors.Is(err, errFellBehind):
			f.needResync = true
			continue // resync immediately, no poll delay
		default:
			var fe fatalError
			if errors.As(err, &fe) {
				f.opts.Logf("repl: replication stopped: %v", err)
				f.mu.Lock()
				f.status.Err = err
				f.status.Connected = false
				f.mu.Unlock()
				return
			}
			// Transient (network, primary down): drop the connection,
			// keep serving the warm replica, retry next poll.
			if f.c != nil {
				f.c.close()
				f.c = nil
			}
			f.mu.Lock()
			f.status.Connected = false
			f.status.CaughtUp = false
			f.mu.Unlock()
		}
		select {
		case <-f.stop:
			return
		case <-time.After(f.opts.Poll):
		}
	}
}

// step performs one unit of loop work: connect if needed, resync if
// flagged, otherwise poll once.
func (f *Follower) step() error {
	if f.c == nil {
		c, err := dialPrimary(f.opts.Addr)
		if err != nil {
			return err
		}
		f.c = c
	}
	if f.needResync {
		if err := f.resync(); err != nil {
			return err
		}
		f.needResync = false
		return nil
	}
	return f.pollOnce()
}

// resync brings the mirror to a consistent base and rebuilds the warm
// replica from it: fetch the primary's newest snapshot and every WAL
// segment at or above it, build a fresh replica back-end over a
// read-only view of the mirror (store.Recover) — its state loads
// through the same WAL applier a restarted primary runs, reading the
// WAL once — then truncate the local tail to the last valid record that
// replay found. It is both the startup path and the fell-behind path;
// mid-follow it replaces the replica atomically, so readers only ever
// see a complete state.
func (f *Follower) resync() error {
	if f.curFile != nil {
		f.curFile.Close()
		f.curFile = nil
	}
	// Fetching can race the primary's pruning: a segment listed in the
	// manifest may be gone by the time its bytes are requested. Retry
	// with a fresh manifest until a full pass lands.
	for {
		select {
		case <-f.stop:
			return errors.New("repl: stopped during resync")
		default:
		}
		files, err := f.c.manifest()
		if err != nil {
			return err
		}
		again, err := f.fetchBase(files)
		if err != nil {
			return err
		}
		if !again {
			break
		}
		f.opts.Logf("repl: resync raced pruning, retrying with fresh manifest")
	}
	rec, err := store.Recover(f.opts.Dir)
	if err != nil {
		return fatalError{err}
	}
	cfg := f.cfg
	cfg.Replica = true
	cfg.Store = rec
	replica, err := backend.New(cfg)
	if err != nil {
		return fatalError{err}
	}
	// New consumed the replay, which located the last valid record: drop
	// torn bytes past it — they re-fetch from the primary, which holds
	// the same bytes (or their completion).
	if rec.TailGen() != 0 {
		tail := filepath.Join(f.opts.Dir, store.FileInfo{Kind: store.FileWAL, Gen: rec.TailGen()}.Name())
		if st, err := os.Stat(tail); err == nil && st.Size() > rec.TailOff() {
			if err := os.Truncate(tail, rec.TailOff()); err != nil {
				replica.Close()
				return fatalError{err}
			}
		}
	}
	f.curGen = rec.TailGen()
	f.curOff = rec.TailOff()
	f.torn = false
	f.parser = store.NewSegmentParser()
	f.parser.SkipTo(rec.TailOff())

	f.m.resyncs.Inc()
	f.mu.Lock()
	old := f.replica
	f.replica = replica
	f.status.Connected = true
	f.status.Resyncs++
	f.status.TailGen = f.curGen
	f.status.TailOff = f.curOff
	f.mu.Unlock()
	if old != nil {
		old.Close()
	}
	return nil
}

// fetchBase fetches the resync base: the newest snapshot in the
// manifest (in full) and every WAL segment at or above its generation,
// each up to its manifest size. It returns again=true when a fetch hit
// pruning and the caller should retry with a fresh manifest.
func (f *Follower) fetchBase(files []wire.ReplFileInfo) (again bool, err error) {
	var base uint64
	for _, fi := range files {
		if store.FileKind(fi.FileKind) == store.FileSnapshot && fi.Gen > base {
			base = fi.Gen
		}
	}
	for _, fi := range files {
		kind := store.FileKind(fi.FileKind)
		if fi.Gen < base && kind == store.FileWAL {
			continue // covered by the base snapshot
		}
		if kind == store.FileSnapshot && fi.Gen != base {
			continue // only the newest snapshot matters
		}
		gone, err := f.fetchInto(fi, fi.Size)
		if err != nil {
			return false, err
		}
		if gone {
			return true, nil
		}
	}
	if base > 0 {
		f.snapGen = base
		f.snapOff = f.localSize(store.FileInfo{Kind: store.FileSnapshot, Gen: base})
		f.pruneBelow(base)
	}
	return false, nil
}

// fetchInto appends the byte range [localSize, size) of one remote
// file to its local mirror, keeping up to fetchDepth chunk requests in
// flight. gone=true reports the file was pruned on the primary
// mid-fetch.
//
// Only contiguous bytes are written: each response answers the oldest
// request in flight, and the first request always starts at the local
// size. A response that breaks the sequence — ReplChunkGone, an empty
// chunk, a short chunk, or a ReplError — stops the pipeline, and the
// responses still in flight are read and discarded (drain) before
// fetchInto returns or, after a short chunk, re-requests from the new
// local size; the connection is then back in step for its next
// exchange.
func (f *Follower) fetchInto(fi wire.ReplFileInfo, size int64) (gone bool, err error) {
	info := store.FileInfo{Kind: store.FileKind(fi.FileKind), Gen: fi.Gen}
	off := f.localSize(info)
	if off >= size {
		return false, nil
	}
	w, err := os.OpenFile(filepath.Join(f.opts.Dir, info.Name()), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return false, fatalError{err}
	}
	defer w.Close()
	var inflight []pendingFetch // oldest first; the oldest starts at off
	next := off                 // first byte not yet requested
	for off < size {
		for len(inflight) < fetchDepth && next < size {
			want := size - next
			if want > int64(f.opts.Chunk) {
				want = int64(f.opts.Chunk)
			}
			p := pendingFetch{want: want, sent: time.Now()}
			if err := f.c.sendFetch(byte(info.Kind), info.Gen, next, uint32(want)); err != nil {
				return false, err
			}
			inflight = append(inflight, p)
			next += want
		}
		p := inflight[0]
		inflight = inflight[1:]
		data, flags, err := f.c.readChunk()
		observeSince(f.m.fetchLat, p.sent)
		switch {
		case errors.Is(err, errRefused):
			return false, f.drain(inflight, err)
		case err != nil:
			return false, err // stream position unknowable: the caller drops the connection
		case int64(len(data)) > p.want:
			return false, fmt.Errorf("%w: %d-byte chunk for a %d-byte request", wire.ErrReplProto, len(data), p.want)
		case flags&wire.ReplChunkGone != 0:
			return true, f.drain(inflight, nil)
		case len(data) == 0:
			// The flushed size moved below the manifest's claim; the next
			// poll settles it.
			return false, f.drain(inflight, nil)
		}
		if _, err := w.Write(data); err != nil {
			return false, f.drain(inflight, fatalError{err})
		}
		off += int64(len(data))
		if int64(len(data)) < p.want {
			// The requests behind a short chunk start past a gap: discard
			// their answers and re-request from the local size.
			if err := f.drain(inflight, nil); err != nil {
				return false, err
			}
			inflight, next = inflight[:0], off
		}
	}
	return false, nil
}

// pendingFetch is one chunk request fetchInto has written and not yet
// read the answer to.
type pendingFetch struct {
	want int64     // bytes requested
	sent time.Time // when the request was written: the latency clock
}

// drain reads and discards the answers to the requests still in
// flight, observing each in the fetch-latency histogram like any other
// chunk. It returns err — or, when err is nil, the transport error that
// cut the drain short.
func (f *Follower) drain(inflight []pendingFetch, err error) error {
	for _, p := range inflight {
		_, _, rerr := f.c.readChunk()
		observeSince(f.m.fetchLat, p.sent)
		if rerr != nil && !errors.Is(rerr, errRefused) {
			if err == nil {
				err = rerr
			}
			return err
		}
	}
	return err
}

// fetch is one unpipelined chunk exchange, with its latency recorded
// (failures included — a slow refusal is still a slow exchange).
func (f *Follower) fetch(fileKind byte, gen uint64, off int64, maxLen uint32) (data []byte, flags byte, err error) {
	start := time.Now()
	if err := f.c.sendFetch(fileKind, gen, off, maxLen); err != nil {
		return nil, 0, err
	}
	data, flags, err = f.c.readChunk()
	observeSince(f.m.fetchLat, start)
	return data, flags, err
}

// localSize returns the local mirror size of a store file (0 when
// absent).
func (f *Follower) localSize(info store.FileInfo) int64 {
	st, err := os.Stat(filepath.Join(f.opts.Dir, info.Name()))
	if err != nil {
		return 0
	}
	return st.Size()
}

// pruneBelow mirrors the primary's snapshot compaction locally:
// segments and snapshots below gen are covered by the snapshot at gen
// and can go. Same downward gap-stop idiom as the primary's prune.
func (f *Follower) pruneBelow(gen uint64) {
	for g := gen - 1; g > 0; g-- {
		w := os.Remove(filepath.Join(f.opts.Dir, store.FileInfo{Kind: store.FileWAL, Gen: g}.Name()))
		s := os.Remove(filepath.Join(f.opts.Dir, store.FileInfo{Kind: store.FileSnapshot, Gen: g}.Name()))
		if w != nil && s != nil {
			return
		}
	}
}

// pollOnce runs one tail iteration: fetch the manifest, extend the
// tail segment (applying events as records complete), advance across
// sealed segments, and mirror any new snapshot.
func (f *Follower) pollOnce() error {
	files, err := f.c.manifest()
	if err != nil {
		return err
	}
	wals := make(map[uint64]wire.ReplFileInfo)
	var minWal uint64
	var remote wire.ReplFileInfo // newest WAL segment (the primary's tip)
	var newest wire.ReplFileInfo // newest snapshot
	for _, fi := range files {
		switch store.FileKind(fi.FileKind) {
		case store.FileWAL:
			wals[fi.Gen] = fi
			if minWal == 0 || fi.Gen < minWal {
				minWal = fi.Gen
			}
			if fi.Gen > remote.Gen {
				remote = fi
			}
		case store.FileSnapshot:
			if fi.Gen > newest.Gen {
				newest = fi
			}
		}
	}
	if remote.Gen > 0 {
		f.mu.Lock()
		f.status.RemoteGen = remote.Gen
		f.status.RemoteOff = remote.Size
		f.mu.Unlock()
	}
	if f.curGen == 0 {
		// Nothing mirrored yet (a fake-source test primary with no WAL
		// at startup): initialize from scratch via the resync path.
		if minWal == 0 {
			f.setStatus(true, len(files) == 0)
			return nil
		}
		return errFellBehind
	}

	caughtUp := false
	for {
		info, ok := wals[f.curGen]
		if !ok {
			if minWal > f.curGen {
				return errFellBehind // tail segment pruned under us
			}
			caughtUp = true // manifest raced a rotation; next poll has it
			break
		}
		if err := f.tailSegment(info); err != nil {
			return err
		}
		if !info.Sealed || f.curOff < info.Size {
			caughtUp = f.curOff >= info.Size
			break
		}
		// Sealed and fully fetched: this segment is done. Leftover
		// unparsed bytes are a torn tail the primary abandoned (it
		// crashed mid-append and rotated on restart) — recovery stops
		// there too, so skipping them keeps the replica aligned.
		if rem := f.curOff - f.parser.Offset(); rem > 0 && !f.torn {
			f.opts.Logf("repl: segment %d sealed with %d-byte torn tail, skipping", f.curGen, rem)
		}
		if f.curFile != nil {
			f.curFile.Close()
			f.curFile = nil
		}
		f.curGen++
		f.curOff = 0
		f.torn = false
		f.parser = store.NewSegmentParser()
	}

	// Mirror the newest snapshot and prune what it covers, once the
	// tail has moved past it (segments below the snapshot may still be
	// mid-apply until then).
	if newest.Gen > 0 {
		if f.snapGen != newest.Gen {
			f.snapGen = newest.Gen
			f.snapOff = f.localSize(store.FileInfo{Kind: store.FileSnapshot, Gen: newest.Gen})
		}
		if f.snapOff < newest.Size {
			if _, err := f.fetchInto(newest, newest.Size); err != nil {
				return err
			}
			f.snapOff = f.localSize(store.FileInfo{Kind: store.FileSnapshot, Gen: newest.Gen})
		}
		if f.snapOff >= newest.Size && f.curGen >= newest.Gen {
			f.pruneBelow(newest.Gen)
		}
	}
	f.setStatus(true, caughtUp)
	return nil
}

// tailSegment extends the current tail segment to the manifest size,
// feeding fetched bytes through the parser and applying completed
// records to the replica.
func (f *Follower) tailSegment(info wire.ReplFileInfo) error {
	if f.curOff >= info.Size {
		return nil
	}
	if f.curFile == nil {
		name := store.FileInfo{Kind: store.FileWAL, Gen: f.curGen}.Name()
		w, err := os.OpenFile(filepath.Join(f.opts.Dir, name), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fatalError{err}
		}
		f.curFile = w
	}
	for f.curOff < info.Size {
		want := info.Size - f.curOff
		if want > int64(f.opts.Chunk) {
			want = int64(f.opts.Chunk)
		}
		data, flags, err := f.fetch(byte(store.FileWAL), f.curGen, f.curOff, uint32(want))
		if err != nil {
			return err
		}
		if flags&wire.ReplChunkGone != 0 {
			return errFellBehind
		}
		if len(data) == 0 {
			break
		}
		if _, err := f.curFile.Write(data); err != nil {
			return fatalError{err}
		}
		f.curOff += int64(len(data))
		if err := f.applyChunk(data); err != nil {
			return err
		}
		f.mu.Lock()
		f.status.TailGen = f.curGen
		f.status.TailOff = f.curOff
		f.mu.Unlock()
	}
	return nil
}

// applyChunk feeds one fetched chunk through the parser and applies
// every completed record. A corrupt record marks the segment torn —
// replay stops there cleanly, matching recovery; version skew
// (ErrBadRecord) and replica refusals are fatal.
func (f *Follower) applyChunk(data []byte) error {
	if f.torn {
		return nil // keep mirroring bytes, stop applying: recovery will stop at the same spot
	}
	f.parser.Feed(data)
	replica := f.Replica()
	for {
		ev, err := f.parser.Next()
		if err != nil {
			if errors.Is(err, store.ErrCorruptRecord) {
				f.torn = true
				f.opts.Logf("repl: segment %d torn at %d: %v", f.curGen, f.parser.Offset(), err)
				return nil
			}
			return fatalError{fmt.Errorf("segment %d at %d: %w", f.curGen, f.parser.Offset(), err)}
		}
		if ev == nil {
			return nil
		}
		if err := replica.ApplyEvent(ev); err != nil {
			return fatalError{err}
		}
		f.m.events.Inc()
		f.mu.Lock()
		f.status.Events++
		f.mu.Unlock()
	}
}

// setStatus records the outcome of a successful poll.
func (f *Follower) setStatus(connected, caughtUp bool) {
	f.mu.Lock()
	f.status.Connected = connected
	f.status.CaughtUp = caughtUp
	f.status.TailGen = f.curGen
	f.status.TailOff = f.curOff
	f.mu.Unlock()
}

// conn is one replication connection to the primary: a request/response
// pair per operation, with deadlines so a wedged primary turns into a
// transient error.
type conn struct {
	nc  net.Conn
	buf []byte
}

// dialPrimary connects and exchanges hellos.
func dialPrimary(addr string) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, opTimeout)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(opTimeout))
	if err := wire.WriteReplHello(nc); err != nil {
		nc.Close()
		return nil, err
	}
	if _, err := wire.ReadReplHello(nc); err != nil {
		nc.Close()
		return nil, err
	}
	nc.SetDeadline(time.Time{})
	return &conn{nc: nc}, nil
}

func (c *conn) close() { c.nc.Close() }

// manifest requests and decodes the primary's shipping manifest.
func (c *conn) manifest() ([]wire.ReplFileInfo, error) {
	c.nc.SetDeadline(time.Now().Add(opTimeout))
	defer c.nc.SetDeadline(time.Time{})
	if err := wire.WriteReplFrame(c.nc, wire.ReplManifestReq, nil); err != nil {
		return nil, err
	}
	kind, body, buf, err := wire.ReadReplFrame(c.nc, c.buf)
	c.buf = buf
	if err != nil {
		return nil, err
	}
	switch kind {
	case wire.ReplManifest:
		return wire.DecodeReplManifest(body)
	case wire.ReplError:
		return nil, fmt.Errorf("repl: primary refused manifest: %s", body)
	default:
		return nil, fmt.Errorf("%w: unexpected frame %#02x", wire.ErrReplProto, kind)
	}
}

// sendFetch writes one chunk request. Its answer is read by
// readChunk; requests may be written ahead of reading their answers,
// which the primary sends in request order.
func (c *conn) sendFetch(fileKind byte, gen uint64, off int64, maxLen uint32) error {
	c.nc.SetWriteDeadline(time.Now().Add(opTimeout))
	defer c.nc.SetWriteDeadline(time.Time{})
	req := wire.EncodeReplFetch(wire.ReplFetchReq{FileKind: fileKind, Gen: gen, Off: off, MaxLen: maxLen})
	return wire.WriteReplFrame(c.nc, wire.ReplFetch, req)
}

// readChunk reads the answer to the oldest unanswered chunk request. A
// ReplError answer returns an error wrapping errRefused (the stream is
// still in step); any other error leaves the connection unusable. The
// returned data aliases the connection's buffer and is valid until the
// next read.
func (c *conn) readChunk() (data []byte, flags byte, err error) {
	c.nc.SetReadDeadline(time.Now().Add(opTimeout))
	defer c.nc.SetReadDeadline(time.Time{})
	kind, body, buf, err := wire.ReadReplFrame(c.nc, c.buf)
	c.buf = buf
	if err != nil {
		return nil, 0, err
	}
	switch kind {
	case wire.ReplChunk:
		if len(body) < 1 {
			return nil, 0, fmt.Errorf("%w: empty chunk frame", wire.ErrReplProto)
		}
		return body[1:], body[0], nil
	case wire.ReplError:
		return nil, 0, fmt.Errorf("%w: %s", errRefused, body)
	default:
		return nil, 0, fmt.Errorf("%w: unexpected frame %#02x", wire.ErrReplProto, kind)
	}
}
