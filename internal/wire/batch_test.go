package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// countingSink counts consumed frames and optionally fails chosen users.
type countingSink struct {
	mu     sync.Mutex
	frames []ReportFrame // header copies only; Cells not retained
	failOn map[int]error
}

func (s *countingSink) ConsumeReport(f *ReportFrame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.failOn[f.User]; err != nil {
		return err
	}
	cp := *f
	cp.Cells = nil
	s.frames = append(s.frames, cp)
	return nil
}

func (s *countingSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.frames)
}

func batchedPair(t *testing.T, sink ReportSink, opts StreamOpts) (*Server, *Client) {
	t.Helper()
	echo := func(m *Msg) (string, interface{}, error) { return "echo", struct{}{}, nil }
	srv, err := ServeWithSinkOpts("127.0.0.1:0", echo, sink, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return srv, cli
}

// A batched stream must deliver every frame to the sink, in order, with
// the suite byte intact, and leave the connection clean for JSON use.
func TestBatchedStreamRoundTrip(t *testing.T) {
	sink := &countingSink{}
	_, cli := batchedPair(t, sink, StreamOpts{AckBatch: 4})
	s, err := cli.OpenReportStream(0)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 11
	for i := 0; i < frames; i++ {
		f := testFrame(64)
		f.User = i
		f.Keystream = 0x01
		if err := s.Submit(f); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s.InFlight(); got != 0 {
		t.Fatalf("in flight after flush = %d", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sink.mu.Lock()
	got := append([]ReportFrame(nil), sink.frames...)
	sink.mu.Unlock()
	if len(got) != frames {
		t.Fatalf("sink saw %d frames, want %d", len(got), frames)
	}
	for i, f := range got {
		if f.User != i || f.Keystream != 0x01 {
			t.Fatalf("frame %d = %+v", i, f)
		}
	}
	// The connection must be reusable for request/response traffic.
	if err := cli.Do("ping", nil, nil); err != nil {
		t.Fatalf("connection not clean after stream close: %v", err)
	}
	// And for one-shot submits, which now ride the batched binary path.
	if err := cli.SubmitReportFrame(testFrame(64)); err != nil {
		t.Fatalf("one-shot submit after stream: %v", err)
	}
	if sink.count() != frames+1 {
		t.Fatalf("one-shot frame not folded")
	}
}

// k = 1 with a window of 1 (a depth-1 client, nothing for the acker to
// coalesce) must ack every frame individually: each Submit returns
// fully acked.
func TestBatchedAckK1DegeneratesToSync(t *testing.T) {
	sink := &countingSink{}
	_, cli := batchedPair(t, sink, StreamOpts{AckBatch: 1})
	s, err := cli.OpenReportStream(1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Submit(testFrame(64)); err != nil {
			t.Fatal(err)
		}
		if got := s.InFlight(); got != 0 {
			t.Fatalf("submit %d: %d frames in flight under k=1/window=1, want 0", i, got)
		}
		if sink.count() != i+1 {
			t.Fatalf("submit %d: sink saw %d frames", i, sink.count())
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// While a stream is open the connection belongs to it: Do and
// SubmitReportFrame must refuse rather than interleave with acks.
func TestStreamOwnsConnection(t *testing.T) {
	_, cli := batchedPair(t, &countingSink{}, StreamOpts{})
	s, err := cli.OpenReportStream(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := cli.Do("ping", nil, nil); !errors.Is(err, ErrStreaming) {
		t.Fatalf("Do during stream err = %v", err)
	}
	if err := cli.SubmitReportFrame(testFrame(64)); !errors.Is(err, ErrStreaming) {
		t.Fatalf("SubmitReportFrame during stream err = %v", err)
	}
	if _, err := cli.OpenReportStream(0); !errors.Is(err, ErrStreaming) {
		t.Fatalf("second OpenReportStream err = %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cli.Do("ping", nil, nil); err != nil {
		t.Fatal(err)
	}
}

// An error ack mid-batch must surface the failing frame's message on a
// later Submit/Flush, poison the stream, leave earlier and later frames
// folded, and leave the connection usable after Close.
func TestBatchedAckErrorMidBatch(t *testing.T) {
	sink := &countingSink{failOn: map[int]error{3: fmt.Errorf("round closed")}}
	_, cli := batchedPair(t, sink, StreamOpts{AckBatch: 2})
	s, err := cli.OpenReportStream(64) // window large: error arrives asynchronously
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		f := testFrame(64)
		f.User = i
		if err := s.Submit(f); err != nil {
			// Acceptable: the error ack may already have been drained.
			if !strings.Contains(err.Error(), "round closed") {
				t.Fatalf("submit %d: %v", i, err)
			}
		}
	}
	if err := s.Flush(); err == nil || !strings.Contains(err.Error(), "round closed") {
		t.Fatalf("flush err = %v, want the mid-batch sink error", err)
	}
	// Sticky: the stream is poisoned for further submissions.
	if err := s.Submit(testFrame(64)); err == nil || !strings.Contains(err.Error(), "round closed") {
		t.Fatalf("post-error submit err = %v", err)
	}
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "round closed") {
		t.Fatalf("close err = %v", err)
	}
	// Frames other than the failing one were folded.
	if got := sink.count(); got != 5 {
		t.Fatalf("sink saw %d frames, want 5 (all but the failing one)", got)
	}
	// The connection survives: the failure was the round's, not the wire's.
	if err := cli.Do("ping", nil, nil); err != nil {
		t.Fatalf("connection did not survive error ack: %v", err)
	}
}

// Dropping the connection with unacknowledged frames in flight must not
// lose the frames the server already received, leak the fold goroutine,
// or disturb other connections.
func TestBatchedConnCloseWithUnackedFrames(t *testing.T) {
	sink := &countingSink{}
	srv, cli := batchedPair(t, sink, StreamOpts{AckBatch: 64})
	s, err := cli.OpenReportStream(64)
	if err != nil {
		t.Fatal(err)
	}
	const frames = 8
	for i := 0; i < frames; i++ {
		if err := s.Submit(testFrame(64)); err != nil {
			t.Fatal(err)
		}
	}
	// No flush: kill the connection with everything unacked.
	if err := cli.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for sink.count() < frames {
		if time.Now().After(deadline) {
			t.Fatalf("server folded %d of %d frames sent before close", sink.count(), frames)
		}
		time.Sleep(time.Millisecond)
	}
	// The server keeps serving fresh connections.
	cli2, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli2.Close()
	if err := cli2.Do("ping", nil, nil); err != nil {
		t.Fatal(err)
	}
}

// Losing the server mid-stream (ack loss) must surface as a transport
// error on Submit/Flush rather than a hang.
func TestBatchedAckLossServerGone(t *testing.T) {
	sink := &countingSink{}
	srv, cli := batchedPair(t, sink, StreamOpts{AckBatch: 4})
	s, err := cli.OpenReportStream(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Submit(testFrame(64)); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	var last error
	for i := 0; i < 64; i++ {
		if last = s.Submit(testFrame(64)); last != nil {
			break
		}
	}
	if last == nil {
		last = s.Flush()
	}
	if last == nil {
		t.Fatal("stream survived server shutdown")
	}
	if err := s.Close(); err == nil {
		t.Fatal("close after transport failure returned nil")
	}
}

// Short or corrupt ack frames must be rejected cleanly.
func TestReadAckFrameShortAndCorrupt(t *testing.T) {
	valid := appendAckFrame(nil, 42, "")
	for cut := 0; cut < len(valid); cut++ {
		if _, _, err := readAckFrame(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
	// Header word without the flag bit is not an ack frame.
	notAck := append([]byte(nil), valid...)
	notAck[0] &^= 0x80
	if _, _, err := readAckFrame(bytes.NewReader(notAck)); !errors.Is(err, ErrBadAckFrame) {
		t.Fatalf("flagless header err = %v", err)
	}
	// Oversized payload length.
	huge := appendAckFrame(nil, 1, "")
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := readAckFrame(bytes.NewReader(huge)); !errors.Is(err, ErrBadAckFrame) {
		t.Fatalf("oversized payload err = %v", err)
	}
	// Error text round-trips, and over-long text is truncated not refused.
	seq, msg, err := readAckFrame(bytes.NewReader(appendAckFrame(nil, 7, "boom")))
	if err != nil || seq != 7 || msg != "boom" {
		t.Fatalf("decode = %d %q %v", seq, msg, err)
	}
	long := strings.Repeat("x", 4*maxAckPayload)
	if _, msg, err := readAckFrame(bytes.NewReader(appendAckFrame(nil, 7, long))); err != nil || len(msg) != maxAckPayload-ackFixed {
		t.Fatalf("long text decode: len=%d err=%v", len(msg), err)
	}
}

// An ack with a sequence number outside the client's window is a
// protocol violation and must kill the stream, not corrupt the counters.
func TestAckSequenceOutsideWindow(t *testing.T) {
	srvConn, cliConn := net.Pipe()
	defer srvConn.Close()
	c := &Client{conn: cliConn, ackBatch: 1}
	done := make(chan error, 1)
	go func() {
		// Fake server: swallow the frame+marker, ack far beyond sent.
		io.ReadFull(srvConn, make([]byte, 4+reportPreamble+8*64+4))
		srvConn.Write(appendAckFrame(nil, 99, ""))
		done <- nil
	}()
	err := c.SubmitReportFrame(testFrame(64))
	if !errors.Is(err, ErrBadAckFrame) {
		t.Fatalf("out-of-window ack err = %v", err)
	}
	<-done
}

// gateSink holds the fold of every frame of round hold until release is
// closed.
type gateSink struct {
	countingSink
	hold    uint64
	release chan struct{}
}

func (s *gateSink) ConsumeReport(f *ReportFrame) error {
	if f.Round == s.hold {
		<-s.release
	}
	return s.countingSink.ConsumeReport(f)
}

// The fold goroutine must request an ack for the pending batch when a
// frame opens a different round than its predecessor, before folding
// the new round's frame — the previous round's tail must not wait on an
// unrelated batch. The round-2 frame's fold is held until the test has
// read an ack, so that ack can only be the boundary's: it covers exactly
// the three round-1 frames although k=100 is nowhere near full and the
// pipeline never ran dry.
func TestFoldLoopFlushesOnRoundBoundary(t *testing.T) {
	sink := &gateSink{hold: 2, release: make(chan struct{})}
	s := &Server{sink: sink, opts: StreamOpts{AckBatch: 100}}
	st := newConnStream(100, false, 8)
	// Queue everything before the folder starts so the channel never runs
	// dry mid-sequence (which would trigger the idle flush instead).
	for i := 0; i < 3; i++ {
		rb := reportBufPool.Get().(*reportBuf)
		st.ch <- streamItem{rb: rb, f: &ReportFrame{User: i, Round: 1}}
	}
	rb := reportBufPool.Get().(*reportBuf)
	st.ch <- streamItem{rb: rb, f: &ReportFrame{User: 3, Round: 2}}
	ps := startPipeStream(t, s, st, 4)

	seq, msg, err := readAckFrame(ps.cli)
	if err != nil || msg != "" {
		t.Fatalf("boundary ack: %d %q %v", seq, msg, err)
	}
	if seq != 3 {
		t.Fatalf("boundary ack seq = %d, want 3", seq)
	}
	// Then the idle flush for the round-2 frame.
	close(sink.release)
	seq, msg, err = readAckFrame(ps.cli)
	if err != nil || msg != "" || seq != 4 {
		t.Fatalf("idle ack: %d %q %v", seq, msg, err)
	}
	if got := ps.postedUntil(4); !slices.Equal(got, []uint64{3, 4}) {
		t.Fatalf("ack requests = %v, want [3 4]", got)
	}
	close(st.ch)
	<-st.done
	<-st.ack.done
	if sink.count() != 4 {
		t.Fatalf("sink saw %d frames, want 4", sink.count())
	}
}

// A server without a sink must refuse the negotiation.
func TestAckBatchNegotiationNoSink(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", func(m *Msg) (string, interface{}, error) {
		return "echo", struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.OpenReportStream(0); err == nil || !strings.Contains(err.Error(), "does not accept") {
		t.Fatalf("negotiation err = %v", err)
	}
	// The refusal must not wedge the connection.
	if err := cli.Do("ping", nil, nil); err != nil {
		t.Fatal(err)
	}
}

// FuzzReadAckFrame hammers the binary ack decoder: arbitrary input must
// never panic, and every accepted decode must re-encode to a frame that
// decodes identically (the codec is its own reference).
func FuzzReadAckFrame(f *testing.F) {
	f.Add(appendAckFrame(nil, 0, ""))
	f.Add(appendAckFrame(nil, 1<<40, "round closed"))
	f.Add([]byte{})
	f.Add([]byte{0x80, 0, 0, ackFixed})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, msg, err := readAckFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		seq2, msg2, err2 := readAckFrame(bytes.NewReader(appendAckFrame(nil, seq, msg)))
		if err2 != nil || seq2 != seq || msg2 != msg {
			t.Fatalf("re-encode mismatch: (%d %q) -> (%d %q %v)", seq, msg, seq2, msg2, err2)
		}
	})
}
