// Package wire is eyeWnder's message layer: length-prefixed JSON frames
// over TCP. It carries the two client conversations of Figure 1 —
// extension ↔ back-end (blinded reports, thresholds, ad audits) and
// extension ↔ oprf-server (blinded PRF evaluations).
//
// Frame format: 4-byte big-endian payload length, then a JSON envelope
// {"type": ..., "payload": ...}. Payload size is capped to keep a
// misbehaving peer from ballooning memory; a ~200 KB blinded CMS (the
// paper's Section 7.1 number) fits comfortably.
//
// JSON carries control operations only. Reports and adjustment shares
// travel as binary frames (see stream.go): the header word's top bit
// marks a frame whose cell block is read directly into pooled cell
// slices, with no JSON envelope and no per-report copies. A connection
// must negotiate batched acknowledgements (see batch.go) before its
// first such frame: the server answers streamed reports with cumulative
// binary acks — at most one per k frames, coalesced while a durability
// barrier is in flight — while per-connection fold and ack goroutines
// pipeline frame decode, aggregate folds and ack barriers.
package wire

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxFrame bounds a single frame's payload (16 MiB).
const MaxFrame = 16 << 20

// readBufSize is the per-connection read buffer. It is small on purpose:
// bufio reads a destination at least this large straight from the
// socket, so of a report's cell block only the bytes already buffered
// when it begins and a tail shorter than the buffer are copied through
// it.
const readBufSize = 4 << 10

// Errors returned by the package.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
	ErrClosed        = errors.New("wire: connection closed")
)

// Msg is one framed message.
type Msg struct {
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload,omitempty"`
}

// Decode unmarshals the payload into v.
func (m *Msg) Decode(v interface{}) error {
	if len(m.Payload) == 0 {
		return errors.New("wire: empty payload")
	}
	return json.Unmarshal(m.Payload, v)
}

// writeMsg frames one message into *buf, which it keeps for reuse, and
// writes it in a single Write. The bytes are those of
// json.Marshal(Msg{typ, json.Marshal(payload)}) behind the length word,
// with the payload marshalled once: the envelope is spliced around it
// rather than re-encoded, which would re-scan and re-compact the whole
// payload.
func writeMsg(w io.Writer, buf *[]byte, typ string, payload interface{}) error {
	quoted, err := json.Marshal(typ)
	if err != nil {
		return err
	}
	frame := append((*buf)[:0], 0, 0, 0, 0)
	frame = append(frame, `{"type":`...)
	frame = append(frame, quoted...)
	if payload != nil {
		raw, err := json.Marshal(payload)
		if err != nil {
			return fmt.Errorf("wire: marshal %s: %w", typ, err)
		}
		frame = append(frame, `,"payload":`...)
		frame = append(frame, raw...)
	}
	frame = append(frame, '}')
	*buf = frame
	if len(frame)-4 > MaxFrame {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	_, err = w.Write(frame)
	return err
}

// ReadMsg reads one framed message.
func ReadMsg(r io.Reader) (*Msg, error) {
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
		return nil, fmt.Errorf("wire: bad frame: %w", err)
	}
	return &m, nil
}

// Handler answers one request message with a response message.
type Handler func(*Msg) (respType string, resp interface{}, err error)

// ErrorPayload is the body of "error" responses.
type ErrorPayload struct {
	Error string `json:"error"`
}

// Server accepts connections and serves request/response exchanges with a
// Handler. One goroutine per connection; requests on a connection are
// processed in order. Servers constructed with ServeWithSinkOpts additionally
// accept streamed report frames, routed to the ReportSink instead of the
// Handler, on connections that negotiated batched acknowledgements
// (TypeAckBatch, see batch.go): such a connection gains a fold goroutine
// that pipelines frame decode against sink folds, and an ack goroutine
// that runs the durability barrier and writes acks off the fold path.
type Server struct {
	lis     net.Listener
	handler Handler
	sink    ReportSink // nil: streamed report frames are rejected
	opts    StreamOpts
	m       *wireMetrics // pre-registered instrument handles, always non-nil

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	done  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup
}

// Serve starts a server on addr ("127.0.0.1:0" picks a free port).
func Serve(addr string, handler Handler) (*Server, error) {
	return ServeWithSinkOpts(addr, handler, nil, StreamOpts{})
}

// ServeWithSinkOpts starts a server that also accepts streamed report
// frames, delivering them to sink, with the given batched-ack options.
func ServeWithSinkOpts(addr string, handler Handler, sink ReportSink, opts StreamOpts) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve(lis, handler, sink, opts), nil
}

// serve starts a server on an open listener, which it then owns.
func serve(lis net.Listener, handler Handler, sink ReportSink, opts StreamOpts) *Server {
	s := &Server{
		lis:     lis,
		handler: handler,
		sink:    sink,
		opts:    opts,
		m:       newWireMetrics(opts.Metrics),
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
				// Transient accept error: back off briefly.
				time.Sleep(10 * time.Millisecond)
				continue
			}
		}
		s.mu.Lock()
		select {
		case <-s.done:
			// Close has begun and may already have swept s.conns: a conn
			// registered now would never be closed, and Close would wait
			// on its serveConn forever.
			s.mu.Unlock()
			conn.Close()
			return
		default:
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	// wmu serializes everything the server writes on this connection:
	// JSON responses from this goroutine and, in batched mode, binary
	// acks from the ack goroutine.
	var wmu sync.Mutex
	// st is non-nil once the connection has negotiated batched
	// acknowledgements: report frames flow through its bounded channel
	// to the fold goroutine. Before that, a report frame drops the
	// connection.
	var st *connStream
	defer func() {
		// Close the socket first so an ack goroutine blocked on an ack
		// write to a stalled peer errors out, then drain the pipeline
		// (every queued pooled buffer is folded and recycled).
		conn.Close()
		if st != nil {
			st.stop()
		}
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	// wbuf is the connection's JSON response buffer, reused under wmu:
	// each response leaves in one Write.
	var wbuf []byte
	writeResp := func(respType string, resp interface{}) error {
		wmu.Lock()
		defer wmu.Unlock()
		return writeMsg(conn, &wbuf, respType, resp)
	}
	// br is the connection's one reader: every header word and payload is
	// read through it, so a small frame costs no read syscall of its own,
	// while the bulk of a cell block is still read straight into the
	// pooled slice (see readBufSize).
	br := bufio.NewReaderSize(conn, readBufSize)
	// buf is the connection's JSON frame buffer, grown to the largest
	// frame seen and reused across requests. This removes the per-request
	// frame allocation; json.Unmarshal still copies the payload bytes into
	// Msg.Payload (RawMessage), so nothing handed to the handler aliases
	// buf.
	var buf []byte
	// shard is this connection's slot in the sharded decode counter —
	// taken once here so the per-frame bump below is one uncontended
	// atomic add.
	m := s.metrics()
	shard := m.framesDecoded.NextShard()
	for {
		var hdr [4]byte
		if _, err := io.ReadFull(br, hdr[:]); err != nil {
			return // EOF or broken peer: drop the connection
		}
		word := binary.BigEndian.Uint32(hdr[:])

		if word&reportFlag != 0 {
			n := word &^ reportFlag
			if n == helloPayload {
				// Config handshake (handshake.go). A Hello's payload
				// length is distinguishable from every other top-bit
				// frame (reports are ≥ reportPreamble, flush markers 0),
				// and it may arrive at any point in the conversation —
				// a long-lived client re-checks the config between
				// rounds on the same connection.
				if err := s.answerHello(br, conn, &wmu); err != nil {
					return
				}
				continue
			}
			if n == campaignDirReqPayload {
				// Campaign directory request (campaign.go), routed by
				// payload length exactly like the Hello.
				if err := s.answerCampaignDir(br, conn, &wmu); err != nil {
					return
				}
				continue
			}
			if st == nil {
				// A report frame or flush marker on a connection that
				// never negotiated batched acks (TypeAckBatch) is
				// malformed: there is no per-frame ack to answer it with.
				return
			}
			// Pipeline the frame to the fold goroutine and immediately
			// decode the next one. The channel bound is the
			// backpressure: a saturated sink blocks this send, which
			// stops the socket read, which closes the TCP window.
			if n == 0 {
				st.ch <- streamItem{flush: true}
				continue
			}
			rb := reportBufPool.Get().(*reportBuf)
			frame, err := readReportFrame(br, n, rb)
			if err != nil {
				reportBufPool.Put(rb)
				return
			}
			m.framesDecoded.Inc(shard)
			st.ch <- streamItem{rb: rb, f: frame}
			continue
		}

		if word > MaxFrame {
			return
		}
		if int(word) > cap(buf) {
			buf = make([]byte, word)
		}
		buf = buf[:word]
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		var req Msg
		if err := json.Unmarshal(buf, &req); err != nil {
			return
		}
		if req.Type == TypeAckBatch {
			// Wire-level negotiation, answered here rather than by the
			// application handler: it flips this connection's streamed
			// reports to batched binary acks (idempotently).
			if s.sink == nil {
				if err := writeResp("error", ErrorPayload{Error: ErrNoSink.Error()}); err != nil {
					return
				}
				continue
			}
			if st == nil {
				st = s.startStream(conn, &wmu)
			}
			if err := writeResp(TypeAckBatchOK, AckBatchResp{K: st.k}); err != nil {
				return
			}
			continue
		}
		respType, resp, err := s.handler(&req)
		if err != nil {
			respType, resp = "error", ErrorPayload{Error: err.Error()}
		}
		if err := writeResp(respType, resp); err != nil {
			return
		}
	}
}

// Close stops accepting and tears down open connections (waiting for
// per-connection fold and ack goroutines to drain). Safe to call more
// than once.
func (s *Server) Close() error {
	var err error
	s.once.Do(func() {
		close(s.done)
		err = s.lis.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
	})
	s.wg.Wait()
	return err
}

// Client is a synchronous request/response connection to a Server.
// It is safe for concurrent use; requests are serialized. Report
// submission can additionally run windowed over batched binary acks —
// see OpenReportStream in batch.go.
type Client struct {
	mu   sync.Mutex
	conn net.Conn
	br   *bufio.Reader // every read of conn goes through it
	wbuf []byte        // JSON request buffer, reused under mu
	rw   reportWriter  // report-frame header scratch

	// Batched-ack state (batch.go). ackBatch > 0 once the connection has
	// negotiated batched acknowledgements; report submissions are then
	// answered by binary ack frames, and the cumulative rsSent/rsAcked
	// sequence counters (frames + flush markers) track the in-flight
	// window. streaming marks an open ReportStream, which owns the
	// connection until Close.
	ackBatch  int
	streaming bool
	rsSent    uint64
	rsAcked   uint64
}

// Dial connects to a wire server.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return newClient(conn), nil
}

// newClient wraps an open connection to a wire server.
func newClient(conn net.Conn) *Client {
	return &Client{conn: conn, br: bufio.NewReaderSize(conn, readBufSize)}
}

// Do sends a request and decodes the response into respOut (which may be
// nil to discard). A server-side "error" response surfaces as an error.
// While a ReportStream is open on the connection Do returns ErrStreaming:
// the response would interleave with binary ack frames.
func (c *Client) Do(reqType string, payload interface{}, respOut interface{}) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return ErrClosed
	}
	if c.streaming {
		return ErrStreaming
	}
	if err := writeMsg(c.conn, &c.wbuf, reqType, payload); err != nil {
		return err
	}
	resp, err := ReadMsg(c.br)
	if err != nil {
		return err
	}
	if err := respError(resp); err != nil {
		return err
	}
	if respOut == nil {
		return nil
	}
	return resp.Decode(respOut)
}

// respError surfaces a server-side "error" response as a Go error.
func respError(resp *Msg) error {
	if resp.Type != "error" {
		return nil
	}
	var ep ErrorPayload
	if err := resp.Decode(&ep); err != nil {
		return errors.New("wire: remote error")
	}
	return fmt.Errorf("wire: remote error: %s", ep.Error)
}

// Close shuts the connection down.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}
