package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"syscall"
)

// The config handshake: a typed Hello/Welcome exchange at connection
// open that makes the server the single source of truth for protocol
// state. Before it existed, every roster member had to be launched with
// flags matching every other binary (-epsilon/-delta/-id-space,
// -keystream, the roster size); one operator typo meant a report whose
// geometry or blinding suite silently disagreed with the round's. Now a
// client sends a Hello frame as its first exchange and the server
// answers with a Welcome carrying the full negotiated round config —
// sketch geometry, ad-ID space, blinding-keystream suite, roster
// version + size, Users_th estimator policy, and ack-batch policy —
// stamped with a config version. The client adopts the advertised
// config wholesale and stamps the version into every report preamble;
// the aggregator rejects stale versions (privacy.ErrIncompatibleConfig)
// instead of corrupting the round.
//
// Framing: both directions reuse the top-bit binary frame convention of
// stream.go (header word, top bit set, low 31 bits = payload length).
// The payloads are magic-tagged and fixed-size, and their lengths are
// deliberately distinguishable from every other top-bit frame: a report
// frame's payload is ≥ reportPreamble (56) bytes, a flush marker's is
// 0, a Hello's is exactly helloPayload (16), and a Welcome only ever
// travels server→client in direct response to a Hello.
//
//	Hello   (client → server):  magic "EYWHELO1" (8) ‖ minRev(4, LE) ‖ maxRev(4, LE)
//	Welcome (server → client):  magic "EYWWELC1" (8) ‖ status(1) ‖ rev(4)
//	                            ‖ configVersion(4) ‖ rosterVersion(4)
//	                            ‖ rosterSize(4) ‖ epsilon(8, IEEE 754 bits)
//	                            ‖ delta(8) ‖ idSpace(8) ‖ keystream(1)
//	                            ‖ group(1) ‖ estimator(1) ‖ ackBatch(4)
//	                            ‖ reserved(8)
//
// [minRev, maxRev] is the handshake-revision range the client speaks;
// the server answers within it or rejects with WelcomeIncompatible. An
// old server predating the handshake treats the Hello as a malformed
// report frame and drops the connection — the client surfaces that as
// ErrNoHandshake rather than hanging. A client that never sends a Hello
// has no config version to stamp: its reports carry version 0, which
// no round accepts.

// HandshakeRevision is the Hello/Welcome revision this build speaks.
const HandshakeRevision = 1

// Handshake frame magics.
const (
	helloMagic   = "EYWHELO1"
	welcomeMagic = "EYWWELC1"
)

// Payload sizes. helloPayload is load-bearing: it is how serveConn
// tells a Hello apart from a report frame (whose payload is ≥
// reportPreamble) and a flush marker (0).
const (
	helloPayload   = 16
	welcomePayload = 64
)

// Welcome status codes.
const (
	// WelcomeOK: the frame carries the advertised round config.
	WelcomeOK = 0
	// WelcomeNoConfig: the server speaks the handshake but has no round
	// config to advertise (e.g. a bare wire.Server with no backend).
	WelcomeNoConfig = 1
	// WelcomeIncompatible: no common handshake revision.
	WelcomeIncompatible = 2
)

// Group suite identifiers advertised in the Welcome.
const (
	// GroupP256 is NIST P-256 Diffie–Hellman blinding keys (the only
	// suite currently deployed).
	GroupP256 = 0
)

// Errors of the handshake.
var (
	// ErrBadHelloFrame marks a malformed Hello payload.
	ErrBadHelloFrame = errors.New("wire: malformed hello frame")
	// ErrBadWelcomeFrame marks a malformed Welcome frame.
	ErrBadWelcomeFrame = errors.New("wire: malformed welcome frame")
	// ErrNoHandshake is returned by Client.Handshake when the server
	// dropped the connection on the Hello — the signature of a release
	// that predates the config handshake.
	ErrNoHandshake = errors.New("wire: server does not speak the config handshake (older release?)")
	// ErrNoConfig is returned by Client.Handshake when the server
	// answered WelcomeNoConfig.
	ErrNoConfig = errors.New("wire: server has no round config to advertise")
	// ErrIncompatibleHandshake is returned by Client.Handshake when the
	// server answered WelcomeIncompatible.
	ErrIncompatibleHandshake = errors.New("wire: no common handshake revision with server")
)

// ConfigFrame is the negotiated round config as it travels in a Welcome
// frame: everything a client needs to participate in aggregation
// without any operator-supplied protocol flag.
type ConfigFrame struct {
	// ConfigVersion names this exact config; reports carry it and the
	// aggregator rejects stale versions.
	ConfigVersion uint32
	// RosterVersion counts bulletin-board changes; RosterSize is the
	// enrolled-user count.
	RosterVersion uint32
	RosterSize    uint32
	// Epsilon and Delta fix the CMS geometry; IDSpace the ad-ID space.
	Epsilon, Delta float64
	IDSpace        uint64
	// Keystream is the blinding-suite byte (blind.Keystream) and Group
	// the DH group identifier (GroupP256).
	Keystream byte
	Group     byte
	// Estimator is the Users_th estimator policy byte
	// (detector.Estimator) the server applies at round close —
	// advertised so clients know how the published threshold is derived.
	Estimator byte
	// AckBatch is the server's streamed-report ack-batch policy: 0 =
	// adaptive per connection, k ≥ 1 = fixed.
	AckBatch uint32
	// Campaigns is the number of provisioned campaigns beyond the
	// implicit campaign 0, riding in two formerly reserved Welcome
	// bytes. A nonzero count invites the client to fetch the campaign
	// directory (CampaignDirectory); single-campaign servers wrote
	// zeros there, so old peers read "no extra campaigns" — exactly
	// their world — and old clients ignore the bytes entirely.
	Campaigns uint16
}

// WriteHelloFrame writes a Hello advertising the revision range
// [HandshakeRevision, HandshakeRevision].
func WriteHelloFrame(w io.Writer) error {
	var buf [4 + helloPayload]byte
	binary.BigEndian.PutUint32(buf[0:], uint32(helloPayload)|reportFlag)
	copy(buf[4:], helloMagic)
	binary.LittleEndian.PutUint32(buf[12:], HandshakeRevision)
	binary.LittleEndian.PutUint32(buf[16:], HandshakeRevision)
	_, err := w.Write(buf[:])
	return err
}

// ReadHelloFrame reads a Hello payload (header word already consumed)
// and returns the client's supported revision range. Exported so the
// fuzz harness exercises exactly the decoder the server runs.
func ReadHelloFrame(r io.Reader) (minRev, maxRev uint32, err error) {
	var buf [helloPayload]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: short payload: %v", ErrBadHelloFrame, err)
	}
	if string(buf[:8]) != helloMagic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrBadHelloFrame)
	}
	minRev = binary.LittleEndian.Uint32(buf[8:])
	maxRev = binary.LittleEndian.Uint32(buf[12:])
	if minRev == 0 || maxRev < minRev {
		return 0, 0, fmt.Errorf("%w: revision range [%d, %d]", ErrBadHelloFrame, minRev, maxRev)
	}
	return minRev, maxRev, nil
}

// WriteWelcomeFrame writes a Welcome with the given status and (for
// WelcomeOK) config.
func WriteWelcomeFrame(w io.Writer, status byte, cfg ConfigFrame) error {
	var buf [4 + welcomePayload]byte
	binary.BigEndian.PutUint32(buf[0:], uint32(welcomePayload)|reportFlag)
	p := buf[4:]
	copy(p, welcomeMagic)
	p[8] = status
	binary.LittleEndian.PutUint32(p[9:], HandshakeRevision)
	binary.LittleEndian.PutUint32(p[13:], cfg.ConfigVersion)
	binary.LittleEndian.PutUint32(p[17:], cfg.RosterVersion)
	binary.LittleEndian.PutUint32(p[21:], cfg.RosterSize)
	binary.LittleEndian.PutUint64(p[25:], math.Float64bits(cfg.Epsilon))
	binary.LittleEndian.PutUint64(p[33:], math.Float64bits(cfg.Delta))
	binary.LittleEndian.PutUint64(p[41:], cfg.IDSpace)
	p[49] = cfg.Keystream
	p[50] = cfg.Group
	p[51] = cfg.Estimator
	binary.LittleEndian.PutUint32(p[52:], cfg.AckBatch)
	binary.LittleEndian.PutUint16(p[56:], cfg.Campaigns)
	// p[58:64] reserved, zero.
	_, err := w.Write(buf[:])
	return err
}

// ReadWelcomeFrame reads one Welcome frame (header word included) and
// returns its status and config.
func ReadWelcomeFrame(r io.Reader) (status byte, cfg ConfigFrame, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, cfg, err
	}
	word := binary.BigEndian.Uint32(hdr[:])
	if word&reportFlag == 0 || word&^reportFlag != welcomePayload {
		return 0, cfg, fmt.Errorf("%w: header %#08x", ErrBadWelcomeFrame, word)
	}
	var p [welcomePayload]byte
	if _, err := io.ReadFull(r, p[:]); err != nil {
		return 0, cfg, fmt.Errorf("%w: short payload: %v", ErrBadWelcomeFrame, err)
	}
	if string(p[:8]) != welcomeMagic {
		return 0, cfg, fmt.Errorf("%w: bad magic", ErrBadWelcomeFrame)
	}
	status = p[8]
	cfg = ConfigFrame{
		ConfigVersion: binary.LittleEndian.Uint32(p[13:]),
		RosterVersion: binary.LittleEndian.Uint32(p[17:]),
		RosterSize:    binary.LittleEndian.Uint32(p[21:]),
		Epsilon:       math.Float64frombits(binary.LittleEndian.Uint64(p[25:])),
		Delta:         math.Float64frombits(binary.LittleEndian.Uint64(p[33:])),
		IDSpace:       binary.LittleEndian.Uint64(p[41:]),
		Keystream:     p[49],
		Group:         p[50],
		Estimator:     p[51],
		AckBatch:      binary.LittleEndian.Uint32(p[52:]),
		Campaigns:     binary.LittleEndian.Uint16(p[56:]),
	}
	return status, cfg, nil
}

// answerHello consumes a Hello payload from r (header word already read
// by serveConn) and responds with the advertised config — or
// WelcomeNoConfig when the server has none, or WelcomeIncompatible when
// the revision ranges do not overlap. A malformed Hello is a framing
// error: the stream position is unknown, so the connection drops.
func (s *Server) answerHello(r io.Reader, conn net.Conn, wmu *sync.Mutex) error {
	minRev, maxRev, err := ReadHelloFrame(r)
	if err != nil {
		return err
	}
	m := s.metrics()
	status, cfg := byte(WelcomeOK), ConfigFrame{}
	switch {
	case minRev > HandshakeRevision || maxRev < HandshakeRevision:
		status = WelcomeIncompatible
		m.handshakeRejected.Inc()
	case s.opts.Config == nil:
		status = WelcomeNoConfig
	default:
		cfg = s.opts.Config()
	}
	m.handshakes.Inc()
	wmu.Lock()
	defer wmu.Unlock()
	return WriteWelcomeFrame(conn, status, cfg)
}

// Handshake performs the Hello/Welcome exchange and returns the round
// config the server advertises. It shares the connection's
// request/response discipline with Do (ErrStreaming while a
// ReportStream is open). Against a server predating the handshake the
// connection is dropped; that surfaces as ErrNoHandshake — callers
// should treat the connection as dead afterwards.
func (c *Client) Handshake() (ConfigFrame, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return ConfigFrame{}, ErrClosed
	}
	if c.streaming {
		return ConfigFrame{}, ErrStreaming
	}
	if err := WriteHelloFrame(c.conn); err != nil {
		return ConfigFrame{}, err
	}
	status, cfg, err := c.readWelcome()
	if err != nil {
		return ConfigFrame{}, err
	}
	switch status {
	case WelcomeOK:
		return cfg, nil
	case WelcomeNoConfig:
		return ConfigFrame{}, ErrNoConfig
	case WelcomeIncompatible:
		return ConfigFrame{}, ErrIncompatibleHandshake
	}
	return ConfigFrame{}, fmt.Errorf("%w: status %d", ErrBadWelcomeFrame, status)
}

// readWelcome reads the Welcome, mapping a dropped connection — EOF or
// a connection reset right after the Hello — to ErrNoHandshake: an old
// server treats the Hello as a malformed report frame and hangs up.
// Other failures (timeouts, transient network errors against a
// perfectly handshake-capable server) pass through unchanged, so the
// operator is not sent down a wrong-version debugging path by a blip.
func (c *Client) readWelcome() (byte, ConfigFrame, error) {
	status, cfg, err := ReadWelcomeFrame(c.br)
	if err != nil && !errors.Is(err, ErrBadWelcomeFrame) && isConnDropped(err) {
		return 0, cfg, fmt.Errorf("%w: %v", ErrNoHandshake, err)
	}
	return status, cfg, err
}

// isConnDropped reports whether err is the signature of the peer
// closing the connection on us: EOF (clean close), an unexpected EOF
// mid-frame, or a connection reset.
func isConnDropped(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}
