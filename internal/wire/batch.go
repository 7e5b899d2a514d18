package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eyewnder/internal/campaign"
	"eyewnder/internal/obs"
)

// Batched acknowledgements and per-connection report pipelining.
//
// Every report and adjustment share travels this way: SubmitReportFrame
// negotiates on first use, and a ReportStream keeps a window in flight;
// a report frame on a connection that never negotiated drops it
// (wire.go). Acknowledging each frame would cost twice — the connection
// could not carry frame k+1 until the client had parsed the ack for
// frame k, and every ack would be a per-report allocation — so:
//
//  1. The client sends a TypeAckBatch request. The server answers with
//     its batch size k (the -ack-batch flag) and switches the connection
//     into batched mode: streamed report frames are no longer answered
//     individually. Instead the server requests one *binary ack frame*
//     per k consumed frames — plus a flush whenever the socket goes idle,
//     whenever a frame opens a different round than its predecessor, and
//     whenever the client sends an explicit flush marker.
//
//  2. In batched mode the connection is *pipelined* in three stages: the
//     read loop keeps decoding frames off the socket into pooled cell
//     slices and hands them to a per-connection fold goroutine over a
//     bounded channel, so frame k+1 is being decoded while the
//     ReportSink folds frame k. The channel bound preserves backpressure
//     (a slow sink stops the read loop, which stops the TCP window), and
//     the pool discipline is unchanged: each buffer is recycled as soon
//     as its frame is folded.
//
//  3. The fold goroutine decides *when* an ack is due (cadence) but
//     never waits for one: it posts an ack request and keeps folding. A
//     per-connection acker goroutine *delivers* acks — it takes the
//     newest request, runs the sink's durability barrier, writes one ack
//     frame, and repeats. Requests posted while a barrier or write is in
//     flight coalesce into the next ack, so with a durable sink the
//     frames consumed during fsync N form batch N+1.
//
// Ack frame layout (server → client): a 4-byte big-endian header word
// with the top bit set and the payload length in the low 31 bits, then
// seq(8, little-endian) ‖ status(1) ‖ error text. seq is the CUMULATIVE
// count of sequence slots consumed on the connection — every report
// frame and every flush marker occupies one slot — so acks are
// idempotent and loss-tolerant: a later ack supersedes any number of
// earlier ones. status 0 is success; status 1 carries the error text of
// the first failing frame since the previous ack, and the client
// surfaces it on its next Submit/Flush (error propagation without
// stalling the window). The top bit never collides with report frames
// because those travel in the opposite direction.
//
// The client tracks (sent, acked) cumulative counters per connection and
// blocks only when sent-acked reaches its window; the server's
// flush-on-idle guarantees that a blocked client always gets an ack even
// mid-batch, so no timer is needed on either side.

// DefaultAckBatch is the initial ack batch size k when StreamOpts does
// not fix one: adaptive connections start here and adjust from the
// observed in-flight depth.
const DefaultAckBatch = 16

// maxAdaptiveAckBatch caps the per-connection batch an adaptive
// connection can grow to: beyond ~64 frames per ack the ack overhead is
// already amortized into noise, while a larger window only delays error
// propagation.
const maxAdaptiveAckBatch = 64

// defaultPipelineDepth bounds the decoded-but-unfolded frames buffered
// per connection (the decode-ahead window).
const defaultPipelineDepth = 4

// ackFixed is the fixed ack payload: seq(8) + status(1).
const ackFixed = 9

// maxAckPayload caps an ack frame's payload (bounded error text).
const maxAckPayload = ackFixed + 1024

// Errors of the batched-ack path.
var (
	ErrBadAckFrame = errors.New("wire: malformed ack frame")
	ErrStreaming   = errors.New("wire: a report stream is open on this connection")
)

// StreamOpts configures a server's batched-ack streaming behaviour.
type StreamOpts struct {
	// AckBatch is k: the streamed report frames after which a batched
	// connection requests an ack. Requests posted while the previous
	// ack's durability barrier or write is still in flight coalesce, so
	// a loaded connection is acked less often than every k frames. 0
	// (the default) makes k adaptive per connection: it starts at
	// DefaultAckBatch, shrinks (by halving, toward the in-flight depth
	// the fold loop actually observed, floor 2) whenever the pipeline
	// runs dry with no barrier in flight — a client with a small window
	// gets prompt acks — and doubles, up to maxAdaptiveAckBatch, while
	// the backlog never drains. A positive value fixes k for every
	// connection: at most one ack request per k frames. 1 requests an
	// ack for every frame, which is one ack per frame only when nothing
	// is in flight (a depth-1 client).
	AckBatch int
	// Config, when non-nil, is called to answer each Hello frame with
	// the current negotiated round config (see handshake.go). It must be
	// safe for concurrent use and should always reflect the *latest*
	// config — the server, not the flag set of any one binary, is the
	// source of truth. nil answers Hellos with WelcomeNoConfig.
	Config func() ConfigFrame
	// Campaigns, when non-nil, is called to answer each campaign
	// directory request (see campaign.go) with the currently
	// provisioned campaigns in strictly increasing ID order. It must be
	// safe for concurrent use. nil answers requests with an empty
	// directory.
	Campaigns func() []campaign.Campaign
	// Metrics is the observability registry the server's wire
	// instruments (report frames decoded, ack batches emitted,
	// handshakes answered/rejected) register in. nil means a private
	// registry: the instrumented paths run identically, nothing is
	// exported.
	Metrics *obs.Registry
}

// appendAckFrame appends one encoded ack frame to dst. An empty errMsg
// encodes success; anything else is truncated to the payload cap and
// carried as status 1.
func appendAckFrame(dst []byte, seq uint64, errMsg string) []byte {
	if len(errMsg) > maxAckPayload-ackFixed {
		errMsg = errMsg[:maxAckPayload-ackFixed]
	}
	var hdr [4 + ackFixed]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(ackFixed+len(errMsg))|reportFlag)
	binary.LittleEndian.PutUint64(hdr[4:], seq)
	if errMsg != "" {
		hdr[12] = 1
	}
	dst = append(dst, hdr[:]...)
	return append(dst, errMsg...)
}

// readAckFrame reads one binary ack frame, header word included. A
// non-empty errMsg reports the remote (sink-side) failure the ack
// carries; err reports transport or framing failures.
func readAckFrame(r io.Reader) (seq uint64, errMsg string, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, "", err
	}
	word := binary.BigEndian.Uint32(hdr[:])
	if word&reportFlag == 0 {
		return 0, "", ErrBadAckFrame
	}
	n := word &^ reportFlag
	if n < ackFixed || n > maxAckPayload {
		return 0, "", ErrBadAckFrame
	}
	var buf [maxAckPayload]byte
	if _, err := io.ReadFull(r, buf[:n]); err != nil {
		return 0, "", fmt.Errorf("wire: short ack frame: %w", err)
	}
	seq = binary.LittleEndian.Uint64(buf[0:])
	if buf[8] != 0 {
		errMsg = string(buf[ackFixed:n])
		if errMsg == "" {
			errMsg = "unspecified remote failure"
		}
	}
	return seq, errMsg, nil
}

// writeFlushMarker writes the zero-length report header word that forces
// the server to acknowledge everything consumed so far.
func writeFlushMarker(w io.Writer) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], reportFlag)
	_, err := w.Write(hdr[:])
	return err
}

// --- server side ---

// streamItem is one unit of work handed from a connection's read loop to
// its fold goroutine: a decoded frame backed by a pooled buffer, or a
// flush marker.
type streamItem struct {
	rb    *reportBuf
	f     *ReportFrame
	flush bool
}

// connStream is the per-connection batched-mode state: the bounded
// pipeline channel into the fold goroutine, the (initial) batch, and the
// hand-off to the connection's acker.
type connStream struct {
	ch       chan streamItem
	done     chan struct{} // closed when the fold goroutine exits
	k        int           // initial batch, reported at negotiation
	adaptive bool          // fold loop adjusts k from observed in-flight depth
	ack      acker

	// onPost, when set, observes every ack request right after the fold
	// goroutine posts it, in order. Tests pin the ack cadence with it:
	// the acks on the wire are the same requests after coalescing.
	onPost func(seq uint64)
}

// acker is the hand-off from a connection's fold goroutine, which posts
// ack requests, to its ack goroutine (ackLoop), which delivers them. A
// request is a cumulative seq plus the first error text posted since the
// ack goroutine last took one. A newer request replaces an untaken older
// one, so posting never blocks.
type acker struct {
	mu     sync.Mutex
	seq    uint64 // newest posted seq
	errMsg string // first error text posted since the last take

	// wake holds at most one "a request is waiting" token; the fold
	// goroutine closes it after its last post.
	wake      chan struct{}
	done      chan struct{} // closed when the ack goroutine exits
	delivered atomic.Uint64 // newest seq the ack goroutine is done with
}

// post requests an ack covering seq without blocking.
func (a *acker) post(seq uint64, errMsg string) {
	a.mu.Lock()
	a.seq = seq
	if a.errMsg == "" {
		a.errMsg = errMsg
	}
	a.mu.Unlock()
	select {
	case a.wake <- struct{}{}:
	default: // a token is already waiting; its pass will take this request
	}
}

// take returns the newest request and clears its error text.
func (a *acker) take() (seq uint64, errMsg string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	seq, errMsg = a.seq, a.errMsg
	a.errMsg = ""
	return seq, errMsg
}

func newConnStream(k int, adaptive bool, depth int) *connStream {
	return &connStream{
		ch:   make(chan streamItem, depth),
		done: make(chan struct{}),
		k:    k, adaptive: adaptive,
		ack: acker{wake: make(chan struct{}, 1), done: make(chan struct{})},
	}
}

// startStream switches a connection into batched mode: subsequent report
// frames flow through the pipeline channel to a dedicated fold goroutine,
// and a dedicated ack goroutine answers them.
func (s *Server) startStream(conn net.Conn, wmu *sync.Mutex) *connStream {
	k, adaptive := s.opts.AckBatch, false
	if k < 1 {
		k, adaptive = DefaultAckBatch, true
	}
	st := newConnStream(k, adaptive, defaultPipelineDepth)
	s.runStream(conn, wmu, st)
	return st
}

// runStream starts st's fold and ack goroutines, both counted in s.wg so
// neither outlives Server.Close.
func (s *Server) runStream(conn net.Conn, wmu *sync.Mutex, st *connStream) {
	s.wg.Add(2)
	go s.foldLoop(st)
	go s.ackLoop(conn, wmu, &st.ack)
}

// clampAckBatch bounds an adaptive batch size.
func clampAckBatch(k int) int {
	if k < 1 {
		return 1
	}
	if k > maxAdaptiveAckBatch {
		return maxAdaptiveAckBatch
	}
	return k
}

// idleAckBatch is an adaptive connection's batch after the pipeline ran
// dry with pending slots unacked. With no ack in flight the client
// drained at the current cadence, so k shrinks toward the depth it
// sustained — but by halving, with a floor of 2, not straight to
// pending: a momentarily empty channel (frame in flight on the socket,
// not yet decoded) is indistinguishable from a drained client window,
// and a one-observation collapse to k=1 would cost a durable sink one
// fsync per report on exactly the steady streams the batch exists to
// amortize. With an ack in flight the dry pipeline means the client's
// window is waiting on us, not that the client drained, so k stays.
func idleAckBatch(k, pending int, inFlight bool) int {
	if inFlight || pending >= k {
		return k
	}
	if k = k / 2; k < pending {
		k = pending
	}
	if k < 2 {
		k = 2
	}
	return k
}

// stop closes the pipeline, waits for the fold goroutine to drain it,
// then waits for the ack goroutine to deliver (or, on a dead connection,
// drop) the last ack. The caller must have stopped sending (the read
// loop has returned) and should already have closed conn so a blocked
// ack write cannot stall the drain.
func (st *connStream) stop() {
	close(st.ch)
	<-st.done
	<-st.ack.done
}

// foldLoop is a connection's fold goroutine: it consumes decoded frames
// while the read loop decodes the next one, folds them into the sink,
// recycles the pooled buffers, and decides the ack cadence. It posts an
// ack request every k frames, on any sink error (immediately, so the
// client learns which batch failed), on a round boundary (the previous
// round's tail must not wait for an unrelated batch to fill), on an
// explicit flush marker, and whenever the pipeline runs dry while frames
// are unacked — the flush-on-idle that guarantees a window-blocked client
// always unblocks without either side arming a timer. Posting never
// blocks: the connection's ack goroutine (ackLoop) runs the durability
// barrier and writes the ack, and the frames folded meanwhile ride the
// next one.
//
// On an adaptive connection (StreamOpts.AckBatch 0) k tracks the
// observed in-flight depth: an idle flush with no ack in flight halves
// it (idleAckBatch); a full batch with more frames already queued means
// sustained backlog, so k doubles up to maxAdaptiveAckBatch. A fixed k
// (AckBatch ≥ 1) never adjusts.
func (s *Server) foldLoop(st *connStream) {
	defer s.wg.Done()
	defer close(st.done)
	defer close(st.ack.wake) // after the last post: the acker drains it and exits
	var (
		k         = st.k // current batch; adjusts when st.adaptive
		seq       uint64 // sequence slots consumed, cumulative
		posted    uint64 // seq of the newest ack request
		pending   int    // slots consumed since the last ack request
		lastRound uint64
		haveRound bool
	)
	post := func(errMsg string) {
		pending, posted = 0, seq
		st.ack.post(seq, errMsg)
		if st.onPost != nil {
			st.onPost(seq)
		}
	}
	for {
		var it streamItem
		var ok bool
		select {
		case it, ok = <-st.ch:
		default:
			// Pipeline dry: the socket is idle, flush the partial batch.
			if pending > 0 {
				if st.adaptive {
					k = idleAckBatch(k, pending, st.ack.delivered.Load() < posted)
				}
				post("")
			}
			it, ok = <-st.ch
		}
		if !ok {
			return
		}
		if it.flush {
			seq++
			post("")
			continue
		}
		if haveRound && it.f.Round != lastRound && pending > 0 {
			post("")
		}
		lastRound, haveRound = it.f.Round, true
		err := s.sink.ConsumeReport(it.f)
		reportBufPool.Put(it.rb)
		seq++
		pending++
		if err != nil {
			post(err.Error())
			continue
		}
		if pending >= k {
			backlog := len(st.ch) > 0
			post("")
			if st.adaptive && backlog {
				k = clampAckBatch(k * 2)
			}
		}
	}
}

// ackLoop is a connection's ack goroutine. Each pass takes the newest
// ack request, runs the sink's durability barrier (ReportDurability),
// and writes one ack frame covering every slot requested so far;
// requests posted during the barrier or the write coalesce into the
// next pass. The store's group commit still merges concurrent barriers
// across connections.
//
// Acked ⇒ durable: an ack covering slot S is written only after a
// SyncReports call that began after slot S's ConsumeReport returned.
// This holds because the fold goroutine posts a request covering S only
// after ConsumeReport(S) returns, and the acker calls SyncReports after
// taking the request.
//
// After a failed ack write the connection is dead: the acker stops
// syncing and writing but keeps taking requests, so folding continues.
func (s *Server) ackLoop(conn net.Conn, wmu *sync.Mutex, a *acker) {
	defer s.wg.Done()
	defer close(a.done)
	dur, _ := s.sink.(ReportDurability)
	m := s.metrics()
	var (
		acked   uint64 // seq covered by the last ack taken
		dead    bool   // an ack write failed; keep draining, stop acking
		scratch []byte // reused ack encode buffer
	)
	for range a.wake {
		seq, errMsg := a.take()
		if seq == acked {
			continue // an earlier pass already took this request
		}
		if !dead {
			if dur != nil {
				// A sync failure must reach the client even when the ack
				// already carries a (possibly benign) per-frame sink error —
				// the client keeps only the first remote error stickily,
				// and a lost-durability report must not hide behind a
				// duplicate-report message.
				start := time.Now()
				err := dur.SyncReports()
				m.syncWait.Observe(time.Since(start))
				if err != nil {
					if errMsg == "" {
						errMsg = err.Error()
					} else {
						errMsg = err.Error() + " (after: " + errMsg + ")"
					}
				}
			}
			scratch = appendAckFrame(scratch[:0], seq, errMsg)
			start := time.Now()
			wmu.Lock()
			_, err := conn.Write(scratch)
			wmu.Unlock()
			m.ackFlush.Observe(time.Since(start))
			m.ackBatches.Inc()
			m.ackFrames.ObserveCount(seq - acked)
			dead = err != nil
		}
		acked = seq
		a.delivered.Store(seq)
	}
}

// --- client side ---

// ReportStream is the client's windowed submission handle on a
// connection that has negotiated batched acknowledgements. Submit keeps
// up to `window` frames in flight and only blocks on the network once
// the window fills; Flush forces the server to acknowledge everything.
// The first sink-side failure the server reports is sticky: it surfaces
// on the next Submit/Flush/Close and poisons the stream (the connection
// itself survives and is reusable after Close).
//
// A ReportStream owns its connection until Close: Do and
// SubmitReportFrame return ErrStreaming while it is open. It is not
// safe for concurrent use — one submitting goroutine per stream.
type ReportStream struct {
	c      *Client
	conn   net.Conn
	k      int
	window int
	remote error // first error ack (sink-side); sticky
	dead   error // transport failure; stream and connection unusable
	closed bool

	// OnAck, when set, observes every ack the stream consumes: acked is
	// the new cumulative acknowledged sequence count (see Sent for the
	// matching submit-side counter). Load harnesses use it to attribute
	// an ack timestamp to each in-flight slot and compute ack-latency
	// percentiles. Called synchronously from Submit/Flush/Close on the
	// submitting goroutine; keep it cheap.
	OnAck func(acked uint64)
}

// OpenReportStream negotiates batched acknowledgements (first use only —
// the mode is sticky per connection) and opens a windowed submission
// stream. window bounds the unacknowledged frames in flight; 0 picks
// twice the server's ack batch.
func (c *Client) OpenReportStream(window int) (*ReportStream, error) {
	if err := c.negotiateAckBatch(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, ErrClosed
	}
	if c.streaming {
		return nil, ErrStreaming
	}
	if window < 1 {
		window = 2 * c.ackBatch
	}
	c.streaming = true
	return &ReportStream{c: c, conn: c.conn, k: c.ackBatch, window: window}, nil
}

// negotiateAckBatch performs the TypeAckBatch exchange once per
// connection.
func (c *Client) negotiateAckBatch() error {
	c.mu.Lock()
	negotiated := c.ackBatch > 0
	c.mu.Unlock()
	if negotiated {
		return nil
	}
	var resp AckBatchResp
	if err := c.Do(TypeAckBatch, AckBatchReq{}, &resp); err != nil {
		return err
	}
	if resp.K < 1 {
		resp.K = 1
	}
	c.mu.Lock()
	c.ackBatch = resp.K
	c.mu.Unlock()
	return nil
}

// readAckInto consumes one binary ack frame and advances the connection's
// cumulative window. The first remote (sink-side) error is accumulated
// into *remote; transport and protocol failures are returned. The caller
// holds the submission discipline (c.mu for one-shot submits, the open
// ReportStream otherwise).
func (c *Client) readAckInto(remote *error) error {
	seq, errMsg, err := readAckFrame(c.br)
	if err != nil {
		return err
	}
	if seq < c.rsAcked || seq > c.rsSent {
		return fmt.Errorf("%w: ack %d outside window [%d, %d]", ErrBadAckFrame, seq, c.rsAcked, c.rsSent)
	}
	c.rsAcked = seq
	if errMsg != "" && *remote == nil {
		*remote = fmt.Errorf("wire: remote error: %s", errMsg)
	}
	return nil
}

// Submit streams one report, blocking only while the in-flight window is
// full. A sink-side failure reported by the server surfaces here (or on
// Flush/Close) once its ack arrives, and poisons the stream.
func (s *ReportStream) Submit(f *ReportFrame) error {
	if s.closed {
		return ErrClosed
	}
	if s.dead != nil {
		return s.dead
	}
	if s.remote != nil {
		return s.remote
	}
	if err := s.c.rw.write(s.conn, f); err != nil {
		s.dead = err
		return err
	}
	s.c.rsSent++
	for s.c.rsSent-s.c.rsAcked >= uint64(s.window) {
		if err := s.readAck(); err != nil {
			return err
		}
	}
	return s.remote
}

// Flush writes a flush marker and blocks until the server has
// acknowledged every frame submitted so far, returning the first
// sink-side failure among them (if any).
func (s *ReportStream) Flush() error {
	if s.closed {
		return ErrClosed
	}
	if s.dead != nil {
		return s.dead
	}
	if err := writeFlushMarker(s.conn); err != nil {
		s.dead = err
		return err
	}
	s.c.rsSent++
	for s.c.rsAcked < s.c.rsSent {
		if err := s.readAck(); err != nil {
			return err
		}
	}
	return s.remote
}

// readAck consumes one ack for the stream, recording remote errors
// stickily and transport errors fatally.
func (s *ReportStream) readAck() error {
	if err := s.c.readAckInto(&s.remote); err != nil {
		s.dead = err
		return err
	}
	if s.OnAck != nil {
		s.OnAck(s.c.rsAcked)
	}
	return nil
}

// InFlight returns the sequence slots (frames and flush markers) written
// but not yet acknowledged.
func (s *ReportStream) InFlight() int {
	return int(s.c.rsSent - s.c.rsAcked)
}

// Close flushes outstanding frames, releases the connection back to
// request/response use, and returns the stream's first error: the drain
// leaves no stray acks behind, so a subsequent Do (or a new
// ReportStream) finds the connection clean.
func (s *ReportStream) Close() error {
	if s.closed {
		return nil
	}
	var err error
	if s.dead == nil {
		err = s.Flush()
	}
	s.closed = true
	s.c.mu.Lock()
	s.c.streaming = false
	s.c.mu.Unlock()
	if s.dead != nil {
		return s.dead
	}
	return err
}
