package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

func testFrame(cells int) *ReportFrame {
	f := &ReportFrame{User: 3, Round: 7, D: 2, W: cells / 2, N: 42, Seed: 9, Cells: make([]uint64, cells)}
	for i := range f.Cells {
		f.Cells[i] = uint64(i)*0x9e3779b9 + 1
	}
	return f
}

// readBack consumes the header word and payload WriteReportFrame produced.
func readBack(t *testing.T, data []byte) (*ReportFrame, error) {
	t.Helper()
	if len(data) < 4 {
		t.Fatalf("frame too short to hold a header: %d bytes", len(data))
	}
	word := binary.BigEndian.Uint32(data)
	if word&reportFlag == 0 {
		t.Fatal("report frame header does not set the report flag")
	}
	buf := reportBufPool.Get().(*reportBuf)
	defer reportBufPool.Put(buf)
	return readReportFrame(bytes.NewReader(data[4:]), word&^reportFlag, buf)
}

func TestReportFrameRoundTrip(t *testing.T) {
	want := testFrame(64)
	var wire bytes.Buffer
	if err := WriteReportFrame(&wire, want); err != nil {
		t.Fatal(err)
	}
	got, err := readBack(t, wire.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.User != want.User || got.Round != want.Round || got.D != want.D ||
		got.W != want.W || got.N != want.N || got.Seed != want.Seed {
		t.Fatalf("header round trip: got %+v want %+v", got, want)
	}
	for i := range want.Cells {
		if got.Cells[i] != want.Cells[i] {
			t.Fatalf("cell %d = %d, want %d", i, got.Cells[i], want.Cells[i])
		}
	}
}

func TestReportFrameWriteValidation(t *testing.T) {
	f := testFrame(64)
	f.Cells = f.Cells[:10] // length no longer d·w
	if err := WriteReportFrame(io.Discard, f); !errors.Is(err, ErrBadReportFrame) {
		t.Fatalf("short cells err = %v", err)
	}
	f = testFrame(64)
	f.D = 0
	if err := WriteReportFrame(io.Discard, f); !errors.Is(err, ErrBadReportFrame) {
		t.Fatalf("zero depth err = %v", err)
	}
}

func TestReportFrameShortPayload(t *testing.T) {
	want := testFrame(64)
	var wire bytes.Buffer
	if err := WriteReportFrame(&wire, want); err != nil {
		t.Fatal(err)
	}
	full := wire.Bytes()
	// Truncate at every structurally interesting point: inside the
	// preamble and inside the cell block.
	for _, cut := range []int{4, 4 + 10, 4 + reportPreamble - 1, 4 + reportPreamble + 9, len(full) - 1} {
		word := binary.BigEndian.Uint32(full)
		buf := reportBufPool.Get().(*reportBuf)
		_, err := readReportFrame(bytes.NewReader(full[4:cut]), word&^reportFlag, buf)
		reportBufPool.Put(buf)
		if err == nil {
			t.Fatalf("truncation at %d bytes not detected", cut)
		}
	}
}

func TestReportFrameCorruptHeader(t *testing.T) {
	corrupt := func(mutate func(pre []byte), wantErr string) {
		t.Helper()
		want := testFrame(64)
		var wire bytes.Buffer
		if err := WriteReportFrame(&wire, want); err != nil {
			t.Fatal(err)
		}
		data := wire.Bytes()
		mutate(data[4:])
		_, err := readBack(t, data)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("err = %v, want %q", err, wantErr)
		}
	}
	// d = 0 rows.
	corrupt(func(pre []byte) { binary.LittleEndian.PutUint64(pre[16:], 0) }, "malformed")
	// d over the geometry cap.
	corrupt(func(pre []byte) { binary.LittleEndian.PutUint64(pre[16:], 1<<21) }, "malformed")
	// d·w no longer matching the payload length.
	corrupt(func(pre []byte) { binary.LittleEndian.PutUint64(pre[24:], 99) }, "malformed")
	// user index beyond any roster.
	corrupt(func(pre []byte) { binary.LittleEndian.PutUint64(pre[0:], 1<<40) }, "malformed")
}

func TestReportFramePayloadLengthBounds(t *testing.T) {
	buf := reportBufPool.Get().(*reportBuf)
	defer reportBufPool.Put(buf)
	if _, err := readReportFrame(bytes.NewReader(nil), reportPreamble-1, buf); !errors.Is(err, ErrBadReportFrame) {
		t.Fatalf("undersized payload err = %v", err)
	}
	if _, err := readReportFrame(bytes.NewReader(nil), MaxFrame+1, buf); !errors.Is(err, ErrBadReportFrame) {
		t.Fatalf("oversized payload err = %v", err)
	}
}

// The pooled reader must not allocate per frame once warm (beyond the
// returned frame header itself): the cell slice and, where used, the
// byte scratch are recycled.
func TestReportFrameReaderPooledAllocs(t *testing.T) {
	want := testFrame(4096)
	var wire bytes.Buffer
	if err := WriteReportFrame(&wire, want); err != nil {
		t.Fatal(err)
	}
	data := wire.Bytes()
	word := binary.BigEndian.Uint32(data)
	buf := reportBufPool.Get().(*reportBuf)
	defer reportBufPool.Put(buf)
	rd := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(data[4:])
		if _, err := readReportFrame(rd, word&^reportFlag, buf); err != nil {
			t.Fatal(err)
		}
	})
	// One small alloc for the ReportFrame header; the 32 KiB cell block
	// must come from the warm buffer, not the heap.
	if allocs > 2 {
		t.Fatalf("pooled reader allocates %v times per frame, want <= 2", allocs)
	}
}

// recordingSink keeps copies of consumed frames (Cells are pooled, so a
// sink that retains must copy — as documented).
type recordingSink struct {
	mu     sync.Mutex
	frames []ReportFrame
	err    error
}

func (s *recordingSink) ConsumeReport(f *ReportFrame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	cp := *f
	cp.Cells = append([]uint64(nil), f.Cells...)
	s.frames = append(s.frames, cp)
	return nil
}

// A connection must be able to interleave streamed report frames with
// ordinary JSON messages, and the sink must see exactly the cells sent.
func TestServerStreamedReports(t *testing.T) {
	sink := &recordingSink{}
	echo := func(m *Msg) (string, interface{}, error) { return "echo", struct{}{}, nil }
	srv, err := ServeWithSinkOpts("127.0.0.1:0", echo, sink, StreamOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 3; i++ {
		f := testFrame(128)
		f.User = i
		if err := cli.SubmitReportFrame(f); err != nil {
			t.Fatal(err)
		}
		if err := cli.Do("ping", nil, nil); err != nil { // JSON interleave
			t.Fatal(err)
		}
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.frames) != 3 {
		t.Fatalf("sink saw %d frames, want 3", len(sink.frames))
	}
	for i, f := range sink.frames {
		if f.User != i || f.Round != 7 || len(f.Cells) != 128 {
			t.Fatalf("frame %d = %+v", i, f)
		}
		want := testFrame(128)
		for j := range want.Cells {
			if f.Cells[j] != want.Cells[j] {
				t.Fatalf("frame %d cell %d = %d, want %d", i, j, f.Cells[j], want.Cells[j])
			}
		}
	}
}

// A sink error must surface to the submitting client as a remote error,
// and the connection must survive it.
func TestServerStreamedReportSinkError(t *testing.T) {
	sink := &recordingSink{err: fmt.Errorf("round closed")}
	srv, err := ServeWithSinkOpts("127.0.0.1:0", func(m *Msg) (string, interface{}, error) {
		return "echo", struct{}{}, nil
	}, sink, StreamOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if err := cli.SubmitReportFrame(testFrame(64)); err == nil || !strings.Contains(err.Error(), "round closed") {
		t.Fatalf("err = %v", err)
	}
	if err := cli.Do("ping", nil, nil); err != nil {
		t.Fatalf("connection did not survive sink error: %v", err)
	}
}

// tallySink counts the frames it consumes and the durability barriers
// the server runs.
type tallySink struct {
	mu              sync.Mutex
	consumed, syncs int
}

func (s *tallySink) ConsumeReport(*ReportFrame) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.consumed++
	return nil
}

func (s *tallySink) SyncReports() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncs++
	return nil
}

// A report frame on a connection that never negotiated batched acks has
// no ack to be answered with: the server drops the connection without
// consuming the frame or running a durability barrier.
func TestReportFrameRequiresBatchedAcks(t *testing.T) {
	sink := &tallySink{}
	srv, err := ServeWithSinkOpts("127.0.0.1:0", func(m *Msg) (string, interface{}, error) {
		return "echo", struct{}{}, nil
	}, sink, StreamOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := WriteReportFrame(conn, testFrame(64)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var b [1]byte
	n, err := conn.Read(b[:])
	if n != 0 || !(errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET)) {
		t.Fatalf("read after an unnegotiated report frame = %d, %v; want EOF or a reset", n, err)
	}
	sink.mu.Lock()
	defer sink.mu.Unlock()
	if sink.consumed != 0 || sink.syncs != 0 {
		t.Fatalf("sink saw %d ConsumeReport and %d SyncReports calls, want 0 and 0", sink.consumed, sink.syncs)
	}
}

// A server without a sink rejects streamed reports gracefully.
func TestServerStreamedReportNoSink(t *testing.T) {
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
	if err := cli.SubmitReportFrame(testFrame(64)); err == nil || !strings.Contains(err.Error(), "does not accept") {
		t.Fatalf("err = %v", err)
	}
}
