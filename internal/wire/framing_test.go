package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"eyewnder/internal/sketch"
	"eyewnder/internal/vec"
)

// envelopeFrame is the reference encoding of one JSON message: the
// header word, then json.Marshal of the Msg envelope around the
// separately marshalled payload.
func envelopeFrame(t *testing.T, typ string, payload interface{}) []byte {
	t.Helper()
	env := Msg{Type: typ}
	if payload != nil {
		raw, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		env.Payload = raw
	}
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

// writeMsg splices the envelope around the payload instead of marshalling
// it twice; the bytes must not change, for every message type.
func TestWriteMsgByteIdentity(t *testing.T) {
	html := "<b>&amp;</b> \u2028 é \x01"
	cases := []struct {
		typ     string
		payload interface{}
	}{
		{TypeOPRFPublicKey, nil},
		{TypeOPRFPublicKeyOK, OPRFPublicKeyResp{N: []byte{1, 2, 3}, E: 65537}},
		{TypeOPRFEvaluate, OPRFEvaluateReq{Blinded: bytes.Repeat([]byte{0xAB}, 256)}},
		{TypeOPRFEvaluateOK, OPRFEvaluateResp{Signed: []byte{9}}},
		{TypeRegister, RegisterReq{User: 7, PublicKey: []byte{4, 5}}},
		{TypeRegisterOK, RegisterResp{RosterSize: 96}},
		{TypeRoster, struct{}{}},
		{TypeRosterOK, RosterResp{PublicKeys: [][]byte{{1}, {2, 3}}, ConfigVersion: 4, RosterVersion: 3}},
		{TypeAckBatch, AckBatchReq{}},
		{TypeAckBatchOK, AckBatchResp{K: 16}},
		{TypeRoundStatus, CloseRoundReq{Campaign: 2, Round: 9}},
		{TypeRoundStatusOK, RoundStatusResp{Round: 9, Reported: 3, Missing: []int{1, 4}, Sealed: true, Adjusted: 2}},
		{TypeCloseRound, CloseRoundReq{Round: 3, AdjustWaitMS: 1}},
		{TypeCloseRoundOK, CloseRoundResp{Round: 3, UsersTh: 2.718281828459045, DistinctAds: 301}},
		{TypeRoundCounts, RoundCountsReq{Campaign: 1, Round: 3}},
		{TypeRoundCountsOK, RoundCountsResp{Round: 3, Counts: map[uint64]uint64{99: 2, 7: 1, 1 << 40: 3}}},
		{TypeThreshold, ThresholdReq{Round: 3}},
		{TypeThresholdOK, ThresholdResp{Round: 3, UsersTh: 1e-9}},
		{TypeAuditAd, AuditAdReq{Campaign: 3, Round: 12, AdID: 123456789}},
		{TypeAuditAdOK, AuditAdResp{Users: 4}},
		{TypeCampaignAdd, CampaignAddReq{ID: 5, Name: html, Epsilon: 0.001, KeystreamSet: true, CadenceSec: 60}},
		{TypeCampaignAddOK, CampaignAddResp{ID: 5, Campaigns: 2}},
		{TypePromote, PromoteReq{}},
		{TypePromoteOK, PromoteResp{Rounds: 3}},
		{TypeRosterOK, []string{"a", html}},
		{"error", ErrorPayload{Error: html}},
		{"error", nil},
		// Payloads that marshal to null, and types json must escape.
		{TypeRoundCountsOK, (*RoundCountsResp)(nil)},
		{TypeRosterOK, RosterResp{}},
		{html, AuditAdResp{Users: 1}},
		{"", nil},
		{"\"quoted\\", json.RawMessage(` { "a" : [1, 2] } `)},
	}
	for _, tc := range cases {
		want := envelopeFrame(t, tc.typ, tc.payload)
		var got bytes.Buffer
		if err := writeMsg(&got, new([]byte), tc.typ, tc.payload); err != nil {
			t.Fatalf("%q: %v", tc.typ, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("%q: frame\n got %q\nwant %q", tc.typ, got.Bytes(), want)
		}
	}
	if err := writeMsg(io.Discard, new([]byte), "bad", func() {}); err == nil {
		t.Fatal("unmarshallable payload accepted")
	}
}

// countingConn counts the Writes issued on a connection.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// countingListener wraps every accepted connection in a countingConn.
type countingListener struct {
	net.Listener
	accepted chan *countingConn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: c}
	l.accepted <- cc
	return cc, nil
}

// A control op's request and its response each leave in one Write, and
// so do the handshake and the campaign directory exchange.
func TestControlOpOneWritePerMessage(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := &countingListener{Listener: inner, accepted: make(chan *countingConn, 1)}
	audit := func(m *Msg) (string, interface{}, error) {
		var req AuditAdReq
		if err := m.Decode(&req); err != nil {
			return "", nil, err
		}
		return TypeAuditAdOK, AuditAdResp{Users: req.AdID % 7}, nil
	}
	srv := serve(lis, audit, nil, StreamOpts{})
	defer srv.Close()
	nc, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	cliConn := &countingConn{Conn: nc}
	cli := newClient(cliConn)
	defer cli.Close()
	srvConn := <-lis.accepted

	ops := []struct {
		name string
		do   func() error
	}{
		{"audit_ad", func() error {
			var resp AuditAdResp
			if err := cli.Do(TypeAuditAd, AuditAdReq{Round: 1, AdID: 40}, &resp); err != nil {
				return err
			}
			if resp.Users != 40%7 {
				return errors.New("wrong audit answer")
			}
			return nil
		}},
		{"handshake", func() error {
			_, err := cli.Handshake()
			if errors.Is(err, ErrNoConfig) {
				return nil
			}
			return err
		}},
		{"campaign directory", func() error {
			_, err := cli.CampaignDirectory()
			return err
		}},
	}
	for _, op := range ops {
		c0, s0 := cliConn.writes.Load(), srvConn.writes.Load()
		if err := op.do(); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		// The response has been read, so its Write was counted.
		if c, s := cliConn.writes.Load()-c0, srvConn.writes.Load()-s0; c != 1 || s != 1 {
			t.Fatalf("%s: %d client writes, %d server writes; want 1 each", op.name, c, s)
		}
	}
}

// One Write carrying a JSON request, a Hello, the batched-ack
// negotiation, three report frames, a flush marker and another JSON
// request: all of it sits in the server's read buffer at once, including
// the frames behind the switch into batched mode. Every message must be
// answered, and the sink must see exactly the cells sent.
func TestServerCoalescedInput(t *testing.T) {
	sink := &recordingSink{}
	echo := func(m *Msg) (string, interface{}, error) {
		return "echo", map[string]string{"of": m.Type}, nil
	}
	srv, err := ServeWithSinkOpts("127.0.0.1:0", echo, sink, StreamOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))

	var in bytes.Buffer
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(writeMsg(&in, new([]byte), "first", nil))
	must(WriteHelloFrame(&in))
	must(writeMsg(&in, new([]byte), TypeAckBatch, AckBatchReq{}))
	var sent []*ReportFrame
	for u := 0; u < 3; u++ {
		f := testFrame(64)
		f.User = u
		for i := range f.Cells {
			f.Cells[i] += uint64(u) << 32
		}
		sent = append(sent, f)
		must(WriteReportFrame(&in, f))
	}
	must(writeFlushMarker(&in))
	must(writeMsg(&in, new([]byte), "last", nil))
	if in.Len() > readBufSize {
		t.Fatalf("input is %d bytes; it must fit one server read buffer", in.Len())
	}
	if _, err := conn.Write(in.Bytes()); err != nil {
		t.Fatal(err)
	}

	br := bufio.NewReader(conn)
	echoOf := func(m *Msg) string {
		t.Helper()
		var p map[string]string
		if m.Type != "echo" || m.Decode(&p) != nil {
			t.Fatalf("answer %+v is not an echo", m)
		}
		return p["of"]
	}
	m, err := ReadMsg(br)
	must(err)
	if of := echoOf(m); of != "first" {
		t.Fatalf("first answer echoes %q", of)
	}
	if status, _, err := ReadWelcomeFrame(br); err != nil || status != WelcomeNoConfig {
		t.Fatalf("welcome = %d, %v", status, err)
	}
	if m, err = ReadMsg(br); err != nil || m.Type != TypeAckBatchOK {
		t.Fatalf("ack-batch answer = %+v, %v", m, err)
	}
	// The acks come from the connection's ack goroutine and the last echo
	// from its read loop, so those two may interleave.
	var acked uint64
	lastEchoed := false
	for acked < 4 || !lastEchoed {
		word, err := br.Peek(4)
		must(err)
		if word[0]&0x80 == 0 {
			m, err := ReadMsg(br)
			must(err)
			if of := echoOf(m); of != "last" || lastEchoed {
				t.Fatalf("unexpected echo of %q", of)
			}
			lastEchoed = true
			continue
		}
		seq, errMsg, err := readAckFrame(br)
		must(err)
		if errMsg != "" || seq < acked || seq > 4 {
			t.Fatalf("ack seq %d (after %d), error %q", seq, acked, errMsg)
		}
		acked = seq
	}

	sink.mu.Lock()
	defer sink.mu.Unlock()
	if len(sink.frames) != len(sent) {
		t.Fatalf("sink saw %d frames, want %d", len(sink.frames), len(sent))
	}
	for i, f := range sink.frames {
		if f.User != sent[i].User || len(f.Cells) != len(sent[i].Cells) {
			t.Fatalf("frame %d = user %d, %d cells", i, f.User, len(f.Cells))
		}
		for j := range f.Cells {
			if f.Cells[j] != sent[i].Cells[j] {
				t.Fatalf("frame %d cell %d = %d, want %d", i, j, f.Cells[j], sent[i].Cells[j])
			}
		}
	}
}

// readRecorder records how many bytes each Read delivered and where.
type readRecorder struct {
	r     io.Reader
	reads []recordedRead
}

type recordedRead struct {
	at uintptr
	n  int
}

func (rr *readRecorder) Read(p []byte) (int, error) {
	n, err := rr.r.Read(p)
	if n > 0 {
		rr.reads = append(rr.reads, recordedRead{uintptr(unsafe.Pointer(&p[0])), n})
	}
	return n, err
}

// Through the connection's buffered reader, all but at most one buffer's
// worth of a paper-geometry cell block is read straight into the pooled
// cell slice.
func TestReportCellBlockReadsDirect(t *testing.T) {
	d, w, err := sketch.Dimensions(0.001, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	f := &ReportFrame{D: d, W: w, Cells: make([]uint64, d*w)}
	if _, ok := vec.AsBytes(f.Cells); !ok {
		t.Skip("big-endian host: cells are decoded from a byte scratch")
	}
	var frame bytes.Buffer
	if err := WriteReportFrame(&frame, f); err != nil {
		t.Fatal(err)
	}
	rec := &readRecorder{r: bytes.NewReader(frame.Bytes())}
	br := bufio.NewReaderSize(rec, readBufSize)
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		t.Fatal(err)
	}
	rb := reportBufPool.Get().(*reportBuf)
	defer reportBufPool.Put(rb)
	got, err := readReportFrame(br, binary.BigEndian.Uint32(hdr[:])&^reportFlag, rb)
	if err != nil {
		t.Fatal(err)
	}
	block := 8 * len(got.Cells)
	lo := uintptr(unsafe.Pointer(&got.Cells[0]))
	direct := 0
	for _, r := range rec.reads {
		if r.at >= lo && r.at < lo+uintptr(block) {
			direct += r.n
		}
	}
	if direct < block-readBufSize {
		t.Fatalf("%d of %d cell bytes read directly into the cell slice; want >= %d", direct, block, block-readBufSize)
	}
}

// ackingConn is a scripted server end for client-side measurements: it
// swallows writes and answers every flush marker with an ack covering
// every slot written so far.
type ackingConn struct {
	net.Conn // nil: only Read and Write are called
	slots    uint64
	acks     bytes.Buffer
	scratch  []byte
}

func (c *ackingConn) Write(p []byte) (int, error) {
	switch {
	case len(p) == 4 && binary.BigEndian.Uint32(p) == reportFlag:
		c.slots++
		c.scratch = appendAckFrame(c.scratch[:0], c.slots, "")
		c.acks.Write(c.scratch)
	case len(p) == 4+reportPreamble:
		c.slots++ // the header of a report frame
	}
	return len(p), nil
}

func (c *ackingConn) Read(p []byte) (int, error) {
	if c.acks.Len() == 0 {
		return 0, errors.New("read with no ack due")
	}
	return c.acks.Read(p)
}

// The client's depth-1 submit path — one frame, one flush, one ack — may
// not allocate more than it did with a separate header write: the header
// scratch lives in the Client.
func TestSubmitPathAllocs(t *testing.T) {
	c := newClient(&ackingConn{})
	c.ackBatch = 1
	rs, err := c.OpenReportStream(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	f := testFrame(1360)
	allocs := testing.AllocsPerRun(500, func() {
		if err := rs.Submit(f); err != nil {
			t.Fatal(err)
		}
		if err := rs.Flush(); err != nil {
			t.Fatal(err)
		}
	})
	// 4 when the report header was a stack array that escaped through
	// the Write; the flush marker and the ack read still cost 3.
	if allocs > 3 {
		t.Fatalf("submit + flush allocates %v times, want <= 3", allocs)
	}
}

// gateListener makes the Close/accept race deterministic. Its first
// Accept returns first; its second blocks until first is closed — which
// happens in Close's sweep of open connections — and then returns late.
type gateListener struct {
	addr         net.Addr
	first, late  net.Conn
	swept        chan struct{}
	secondAccept chan struct{}
	closed       chan struct{}
	n            int
	closeOnce    sync.Once
}

func (l *gateListener) Accept() (net.Conn, error) {
	l.n++
	switch l.n {
	case 1:
		return l.first, nil
	case 2:
		close(l.secondAccept)
		<-l.swept
		return l.late, nil
	}
	<-l.closed
	return nil, net.ErrClosed
}

func (l *gateListener) Close() error {
	l.closeOnce.Do(func() { close(l.closed) })
	return nil
}

func (l *gateListener) Addr() net.Addr { return l.addr }

// closeHookConn runs onClose on its first Close.
type closeHookConn struct {
	net.Conn
	once    sync.Once
	onClose func()
}

func (c *closeHookConn) Close() error {
	c.once.Do(c.onClose)
	return c.Conn.Close()
}

// A connection that Accept returns after Close has swept the open
// connections must still be closed, or Close waits on its reader forever.
func TestServerCloseRacesAccept(t *testing.T) {
	srv1, cli1 := net.Pipe()
	srv2, cli2 := net.Pipe()
	defer cli1.Close()
	defer cli2.Close()
	l := &gateListener{
		addr:  &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)},
		late:  srv2,
		swept: make(chan struct{}), secondAccept: make(chan struct{}), closed: make(chan struct{}),
	}
	l.first = &closeHookConn{Conn: srv1, onClose: func() { close(l.swept) }}
	s := serve(l, echoHandler, nil, StreamOpts{})
	// The second Accept has begun, so the first conn is registered.
	<-l.secondAccept
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close hung: the connection accepted during Close was never closed")
	}
	// The late conn was closed by the server: its peer sees EOF.
	cli2.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := cli2.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("late conn peer read = %v, want EOF", err)
	}
}

// readMsgUnbuffered is ReadMsg as it read a frame before connections
// were buffered: the header word and the body each read unbuffered.
func readMsgUnbuffered(r io.Reader) (*Msg, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	var m Msg
	if err := json.Unmarshal(buf, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// FuzzReadMsg checks that reading JSON frames through a buffered reader
// decodes exactly what unbuffered reads decode: for arbitrary input,
// message by message, the same message or an error on both sides.
func FuzzReadMsg(f *testing.F) {
	var two bytes.Buffer
	writeMsg(&two, new([]byte), TypeAuditAd, AuditAdReq{Round: 1, AdID: 2})
	writeMsg(&two, new([]byte), "ping", nil)
	writeMsg(&two, new([]byte), "error", ErrorPayload{Error: "<x>"})
	f.Add(two.Bytes())
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add([]byte{0, 0, 0, 9, '{'})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		plain := bytes.NewReader(data)
		br := bufio.NewReaderSize(bytes.NewReader(data), 16) // small: frames straddle refills
		for i := 0; i < 8; i++ {
			want, werr := readMsgUnbuffered(plain)
			got, gerr := ReadMsg(br)
			if (werr != nil) != (gerr != nil) {
				t.Fatalf("message %d: buffered err %v, unbuffered err %v", i, gerr, werr)
			}
			if werr != nil {
				return
			}
			if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("message %d: buffered %+v, unbuffered %+v", i, got, want)
			}
		}
	})
}

// BenchmarkControlRoundTrip times one audit_ad-shaped JSON request and
// its response over loopback TCP: the real-time audit's wire cost.
func BenchmarkControlRoundTrip(b *testing.B) {
	audit := func(m *Msg) (string, interface{}, error) {
		var req AuditAdReq
		if err := m.Decode(&req); err != nil {
			return "", nil, err
		}
		return TypeAuditAdOK, AuditAdResp{Users: req.AdID % 5}, nil
	}
	srv, err := Serve("127.0.0.1:0", audit)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	req := AuditAdReq{Campaign: 1, Round: 42, AdID: 123456}
	b.ReportAllocs()
	for b.Loop() {
		var resp AuditAdResp
		if err := cli.Do(TypeAuditAd, req, &resp); err != nil {
			b.Fatal(err)
		}
	}
}

// discardSink folds nothing.
type discardSink struct{}

func (discardSink) ConsumeReport(*ReportFrame) error { return nil }

// BenchmarkDepth1Report times one small-geometry report (eps 0.01,
// 10.9 KB of cells) streamed with a flush marker, to its ack, over
// loopback TCP into a sink that does nothing.
func BenchmarkDepth1Report(b *testing.B) {
	d, w, err := sketch.Dimensions(0.01, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	srv, err := ServeWithSinkOpts("127.0.0.1:0", echoHandler, discardSink{}, StreamOpts{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	defer cli.Close()
	rs, err := cli.OpenReportStream(0)
	if err != nil {
		b.Fatal(err)
	}
	defer rs.Close()
	f := &ReportFrame{D: d, W: w, Cells: make([]uint64, d*w)}
	b.SetBytes(int64(8 * d * w))
	b.ReportAllocs()
	for b.Loop() {
		if err := rs.Submit(f); err != nil {
			b.Fatal(err)
		}
		if err := rs.Flush(); err != nil {
			b.Fatal(err)
		}
	}
}
