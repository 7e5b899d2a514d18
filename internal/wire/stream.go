package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"eyewnder/internal/privacy"
	"eyewnder/internal/vec"
)

// Streamed report frames: the one way a report enters the back-end. A
// JSON envelope would cost three full copies of the ~150 KB sketch per
// report (base64 text, the decoded []byte, the unmarshalled cell slice)
// plus the JSON parse itself. A report frame instead carries the sketch
// header and the raw little-endian cell block; the server reads the cells
// off the socket into a pooled []uint64 — on little-endian hosts the bulk
// of the block goes straight into the cell slice's backing memory (see
// readBufSize) — and hands the borrowed slice to a ReportSink, which
// folds it into the round aggregate and returns. No intermediate []byte
// of the message ever exists, and steady-state ingestion allocates
// nothing per report.
//
// Framing: the 4-byte big-endian header word sets its top bit to mark a
// report frame (JSON payload lengths are capped at MaxFrame = 16 MiB, so
// the bit is never set by the JSON path); the low 31 bits are the payload
// length. The payload is a 56-byte preamble — user, round, d, w, n, seed
// as little-endian uint64, then the blinding-keystream suite byte, the
// frame-kind byte (report or adjustment share), the 16-bit campaign ID
// (zero = the legacy single campaign; formerly reserved bytes), and
// the negotiated config version as a little-endian
// uint32 — followed by the 8·d·w-byte cell block. The
// preamble length is itself protocol state: both endpoints must run the
// same revision (a mismatched peer fails the length check and is
// dropped), so like the cell layout it changes only in lockstep across
// a deployment. A header
// word with the top bit set and a zero payload length is a *flush
// marker*: it carries no report, but on a connection running batched
// acknowledgements (see batch.go) it occupies one sequence slot and
// forces the server to acknowledge everything consumed so far.

// reportFlag marks a header word as a streamed report frame (and, from
// server to client, a binary ack frame — the directions never mix).
const reportFlag = 1 << 31

// reportPreamble is the fixed payload prefix: user(8) round(8) d(8) w(8)
// n(8) seed(8) keystream(1) kind(1) campaign(2) configVersion(4).
const reportPreamble = 56

// maxWireCampaign is the largest campaign ID a frame can carry: the
// campaign rides in the preamble's two formerly reserved bytes, so the
// wire revision caps IDs at 16 bits (the registry's uint32 headroom is
// for future frame widenings).
const maxWireCampaign = 0xFFFF

// Frame kinds, carried in the preamble byte after the keystream suite
// (formerly the first reserved byte, so every pre-kind frame decodes as
// kind 0 — a report). Kind 1 is a second-round adjustment share riding
// the same batched streaming path as reports: same preamble, same cell
// block, same cumulative ack slots and durability barrier, so the
// adjustment round scales exactly like the report round. Routing by a
// preamble byte rather than by payload length matters because an
// adjustment payload is indistinguishable from a report's by size.
// Like every frame-format revision this deploys in lockstep
// (ARCHITECTURE.md §5): a pre-kind server reads an adjustment frame as
// a report — from a user whose report already folded in, so it fails
// the duplicate check and surfaces as an explicit error ack, never as
// silent corruption.
const (
	FrameKindReport byte = 0
	FrameKindAdjust byte = 1
)

// Report-frame geometry bounds, mirroring the sketch deserializer's: d·w
// is additionally capped by MaxFrame, so a hostile header cannot provoke
// a huge pool allocation.
const (
	maxReportDepth = 1 << 20
	maxReportWidth = 1 << 32
)

// Errors of the streaming path.
var (
	ErrBadReportFrame = errors.New("wire: malformed report frame")
	ErrNoSink         = errors.New("wire: server does not accept streamed reports")
)

// ReportFrame is one streamed report: the sketch header fields of the
// binary CMS serialization plus the flat cell vector, with the submitting
// user and round prepended.
//
// On the server side Cells is a pooled slice borrowed from the frame
// reader: it is valid only for the duration of the ReportSink call and
// must not be retained (fold it into the aggregate, or copy).
type ReportFrame struct {
	User  int
	Round uint64
	D, W  int
	N     uint64
	Seed  uint64
	// Keystream is the blinding-suite byte (blind.Keystream): it names
	// how the report's cells were blinded so the aggregator can reject a
	// report whose pairwise terms would not cancel against the round's.
	// Zero is the original HMAC-SHA256 suite, so reports blinded before
	// the suite existed still aggregate correctly. Note the byte rode in
	// on a preamble widening (48 → 56 bytes) — a wire-format revision
	// that, like every frame-header change, deploys in lockstep across
	// all endpoints (ARCHITECTURE.md §5); a 48-byte-preamble peer cannot
	// interoperate with this revision.
	Keystream byte
	// ConfigVersion is the negotiated round-config version the report
	// was built under (see handshake.go), riding in what used to be
	// reserved preamble bytes. The aggregator rejects any version but
	// the round's own (privacy.ErrIncompatibleConfig): it means the
	// reporter blinded against another roster. Versions start at 1, so
	// a frame from a peer that never negotiated carries 0 and bounces.
	ConfigVersion uint32
	// Kind distinguishes what the cell block is: FrameKindReport (zero —
	// a blinded CMS, the only kind that existed before the byte) or
	// FrameKindAdjust (a second-round adjustment share). For adjustment
	// frames D and W still carry the sketch geometry (the share is one
	// flat cell vector of the same shape) while N and Seed are zero.
	Kind byte
	// Campaign is the counting campaign the frame belongs to, riding as
	// a 16-bit value in the two formerly reserved preamble bytes. Zero
	// is the implicit legacy campaign, so single-campaign peers (which
	// write zeros there) interoperate byte-identically in both
	// directions. The writer refuses values above 0xFFFF.
	Campaign uint32
	Cells    []uint64
}

// ReportFrameOf renders a blinded report as its streamed frame — the
// one report-to-frame conversion, shared by the TCP and the in-process
// client adapters. Cells aliases the report's sketch, not a copy.
func ReportFrameOf(rep *privacy.Report) *ReportFrame {
	cms := rep.Sketch
	return &ReportFrame{
		User: rep.User, Campaign: rep.Campaign, Round: rep.Round,
		D: cms.Depth(), W: cms.Width(),
		N: cms.N(), Seed: cms.Seed(),
		Keystream:     byte(rep.Keystream),
		ConfigVersion: rep.ConfigVersion,
		Cells:         cms.FlatCells(),
	}
}

// AdjustFrame builds a streamed second-round adjustment share: the
// submitting reporter's summed pairwise terms toward the round's missing
// users, as one cell vector of the round's d×w geometry. It travels the
// same batched, pipelined, durability-barriered path as report frames.
func AdjustFrame(user int, round uint64, d, w int, ks byte, cv uint32, cells []uint64) *ReportFrame {
	return &ReportFrame{
		User: user, Round: round, D: d, W: w,
		Keystream: ks, ConfigVersion: cv,
		Kind: FrameKindAdjust, Cells: cells,
	}
}

// ReportSink consumes streamed report frames. Implementations must
// tolerate concurrent calls (one per connection) and must not retain
// f.Cells past the call.
type ReportSink interface {
	ConsumeReport(f *ReportFrame) error
}

// ReportDurability is optionally implemented by a ReportSink whose
// consumed reports must reach stable storage before they are
// acknowledged (the back-end's write-ahead log). The server calls
// SyncReports before every binary ack, and only after the reports it
// covers were consumed, so the acknowledgement is a durability barrier.
// The call runs on the connection's ack goroutine while folding
// continues, and one call covers every frame consumed before it began. A
// SyncReports failure is reported to the client in place of the ack:
// the reports were consumed but cannot be promised durable.
type ReportDurability interface {
	SyncReports() error
}

// reportBuf is the per-frame scratch a connection borrows from the pool:
// the cell slice payloads decode into and, on big-endian hosts only, the
// byte buffer the socket is read into first. Pooling a struct pointer
// (rather than the slices themselves) keeps Put allocation-free, so
// steady-state ingestion recycles one object per frame with zero garbage.
type reportBuf struct {
	cells []uint64
	raw   []byte // big-endian fallback only; nil on little-endian hosts
}

var reportBufPool = sync.Pool{New: func() interface{} { return new(reportBuf) }}

// cellSlice returns b.cells resized to n, growing the backing array only
// when a larger geometry arrives than the pool has seen.
func (b *reportBuf) cellSlice(n int) []uint64 {
	if cap(b.cells) < n {
		b.cells = make([]uint64, n)
	}
	return b.cells[:cap(b.cells)][:n]
}

// WriteReportFrame writes one streamed report in a single (vectored)
// Write. The cell block goes out as the slice's raw byte view on
// little-endian hosts (no encode copy); elsewhere it is encoded through a
// scratch buffer.
func WriteReportFrame(w io.Writer, f *ReportFrame) error {
	var rw reportWriter
	return rw.write(w, f)
}

// reportWriter is the scratch a report frame is written from: the header
// word and preamble, and the vector that carries them and the cell block
// out in one writev. A Client keeps one, so submitting a frame allocates
// nothing.
type reportWriter struct {
	hdr  [4 + reportPreamble]byte
	iov  [2][]byte
	bufs net.Buffers
}

func (rw *reportWriter) write(w io.Writer, f *ReportFrame) error {
	cells := uint64(f.D) * uint64(f.W)
	if f.D < 1 || f.W < 1 || uint64(len(f.Cells)) != cells || f.Campaign > maxWireCampaign {
		return ErrBadReportFrame
	}
	payload := uint64(reportPreamble) + 8*cells
	if payload > MaxFrame {
		return ErrFrameTooLarge
	}
	hdr := rw.hdr[:]
	binary.BigEndian.PutUint32(hdr[0:], uint32(payload)|reportFlag)
	binary.LittleEndian.PutUint64(hdr[4:], uint64(f.User))
	binary.LittleEndian.PutUint64(hdr[12:], f.Round)
	binary.LittleEndian.PutUint64(hdr[20:], uint64(f.D))
	binary.LittleEndian.PutUint64(hdr[28:], uint64(f.W))
	binary.LittleEndian.PutUint64(hdr[36:], f.N)
	binary.LittleEndian.PutUint64(hdr[44:], f.Seed)
	hdr[52] = f.Keystream
	hdr[53] = f.Kind
	binary.LittleEndian.PutUint16(hdr[54:], uint16(f.Campaign))
	binary.LittleEndian.PutUint32(hdr[56:], f.ConfigVersion)
	view, ok := vec.AsBytes(f.Cells)
	if !ok {
		view = make([]byte, 8*len(f.Cells))
		vec.PutLE(view, f.Cells)
	}
	// WriteTo consumes the vector as it writes, so it is rebuilt per
	// frame, and cleared after so the scratch keeps no caller cells alive.
	rw.iov = [2][]byte{hdr, view}
	rw.bufs = rw.iov[:]
	_, err := rw.bufs.WriteTo(w)
	rw.iov = [2][]byte{}
	return err
}

// readReportFrame reads a report payload of length n (header word already
// consumed, flag stripped) into buf's pooled cell slice. The returned
// frame's Cells alias buf; recycle buf only after the frame is consumed.
func readReportFrame(r io.Reader, n uint32, buf *reportBuf) (*ReportFrame, error) {
	if n < reportPreamble || n > MaxFrame {
		return nil, ErrBadReportFrame
	}
	var pre [reportPreamble]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return nil, fmt.Errorf("wire: short report frame: %w", err)
	}
	user := binary.LittleEndian.Uint64(pre[0:])
	round := binary.LittleEndian.Uint64(pre[8:])
	d64 := binary.LittleEndian.Uint64(pre[16:])
	w64 := binary.LittleEndian.Uint64(pre[24:])
	nTotal := binary.LittleEndian.Uint64(pre[32:])
	seed := binary.LittleEndian.Uint64(pre[40:])
	ks := pre[48]
	kind := pre[49]
	campaign := binary.LittleEndian.Uint16(pre[50:])
	cv := binary.LittleEndian.Uint32(pre[52:])
	if user > 1<<31 || d64 < 1 || w64 < 1 || d64 > maxReportDepth || w64 > maxReportWidth {
		return nil, ErrBadReportFrame
	}
	if kind > FrameKindAdjust {
		return nil, ErrBadReportFrame
	}
	cells := d64 * w64 // ≤ 2⁵² by the bounds above: no overflow
	if uint64(n) != reportPreamble+8*cells {
		return nil, ErrBadReportFrame
	}
	dst := buf.cellSlice(int(cells))
	if view, ok := vec.AsBytes(dst); ok {
		// Zero-copy: the socket read lands in the cell slice's memory.
		if _, err := io.ReadFull(r, view); err != nil {
			return nil, fmt.Errorf("wire: short report frame: %w", err)
		}
	} else {
		if cap(buf.raw) < int(8*cells) {
			buf.raw = make([]byte, 8*cells)
		}
		raw := buf.raw[:8*cells]
		if _, err := io.ReadFull(r, raw); err != nil {
			return nil, fmt.Errorf("wire: short report frame: %w", err)
		}
		vec.GetLE(dst, raw)
	}
	return &ReportFrame{
		User: int(user), Round: round,
		D: int(d64), W: int(w64),
		N: nTotal, Seed: seed, Keystream: ks, ConfigVersion: cv, Kind: kind,
		Campaign: uint32(campaign), Cells: dst,
	}, nil
}

// SubmitReportFrame streams one report (or adjustment share) over the
// client connection and waits for its acknowledgement. It shares the
// connection's request serialization with Do. The first call negotiates
// batched acknowledgements, so the round trip is the frame and a flush
// marker out, binary acks back; for sustained submission open a
// ReportStream instead, which keeps a window of frames in flight.
func (c *Client) SubmitReportFrame(f *ReportFrame) error {
	if err := c.negotiateAckBatch(); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return ErrClosed
	}
	if c.streaming {
		return ErrStreaming
	}
	if err := c.rw.write(c.conn, f); err != nil {
		return err
	}
	c.rsSent++
	if err := writeFlushMarker(c.conn); err != nil {
		return err
	}
	c.rsSent++
	var remote error
	for c.rsAcked < c.rsSent {
		if err := c.readAckInto(&remote); err != nil {
			return err
		}
	}
	return remote
}
