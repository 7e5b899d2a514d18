package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"eyewnder/internal/vec"
)

// WAL record framing. Every record is
//
//	┌────────────┬────────┬──────────┬─────────────────┐
//	│ length     │ kind   │ body     │ crc32c          │
//	│ 4 B, LE    │ 1 B    │ length B │ 4 B, LE, over   │
//	│ = len(body)│        │          │ kind ‖ body     │
//	└────────────┴────────┴──────────┴─────────────────┘
//
// The CRC (Castagnoli) is what makes torn writes detectable: a crash
// mid-append leaves a record whose length field, body, or checksum is
// incomplete, and replay stops cleanly at the last record that checks
// out. The length field is validated against maxRecordBody before any
// allocation, so a corrupt length cannot provoke a huge read buffer.
//
// Record kinds and body layouts (all integers little-endian):
//
//	recRegister  user(8) publicKey(rest)
//	recOpen      round(8) roster(8) d(8) w(8) seed(8) keystream(1)
//	             [configVersion(4) rosterVersion(4) [campaign(4)]]
//	recReport    user(8) round(8) d(8) w(8) n(8) seed(8) keystream(1)
//	             reserved(1) campaign(2) configVersion(4) cells(8·d·w)
//	             — the wire frame payload
//	recAdjust    round(8) user(8) [campaign(4)] cells(8·c)
//	recClose     round(8) [campaign(4)]
//	recConfig    configVersion(4) rosterVersion(4)
//	recCampaign  one canonical campaign encoding (campaign.AppendBinary)
//
// The report body deliberately mirrors the streamed wire frame's
// payload byte-for-byte (wire/stream.go): the back-end logs the report
// while its pooled cell slice is still borrowed from the connection,
// and reusing the frame layout keeps that append a straight copy with
// no re-marshalling. recOpen's trailing version pair rode in with the
// negotiated-config redesign; a 41-byte body (written by an older
// release) decodes with both versions zero, the unversioned deployment
// style. recConfig logs a bump of the deployment-wide config/roster
// version counters (a registration changed the bulletin board), so
// recovery restores the exact negotiated state, not just the round
// contents.
//
// Campaign tagging rode in with the multi-campaign service: a report's
// campaign occupies two formerly reserved preamble bytes (still the
// wire frame payload, byte-for-byte), while recOpen, recAdjust, and
// recClose grew length-discriminated campaign variants. Campaign 0 —
// the implicit legacy campaign — always writes the legacy layouts, so
// a single-campaign deployment's WAL is byte-identical to one written
// by a pre-campaign release, and old data dirs keep recovering.
// recCampaign logs a campaign provisioning; its body is the campaign
// registry's canonical encoding, stored and replayed opaquely so the
// recovered directory is byte-identical to what was advertised.

// Record kinds.
const (
	recRegister = 0x01
	recOpen     = 0x02
	recReport   = 0x03
	recAdjust   = 0x04
	recClose    = 0x05
	recConfig   = 0x06
	recCampaign = 0x07
)

// reportPreamble is the fixed prefix of a report body: user(8) round(8)
// d(8) w(8) n(8) seed(8) keystream(1) reserved(1) campaign(2)
// configVersion(4) — identical to the wire report frame's preamble.
const reportPreamble = 56

// maxRecordCampaign caps the campaign ID a record can carry, mirroring
// the wire layer's 16-bit frame field so a logged report body stays a
// byte-for-byte copy of its frame payload.
const maxRecordCampaign = 0xFFFF

// Round-open body sizes: openBodyV1 predates the config handshake,
// openBody appends configVersion(4) rosterVersion(4), and
// openBodyCampaign appends campaign(4) — written only for campaign ≠ 0
// so legacy deployments stay byte-identical.
const (
	openBodyV1       = 41
	openBody         = 49
	openBodyCampaign = 53
)

// campaignBodyMin is the smallest valid recCampaign body — the campaign
// registry's fixed encoding prefix (campaign.AppendBinary); the store
// treats the body opaquely beyond the leading little-endian ID.
const campaignBodyMin = 40

// configBody is the size of a recConfig body.
const configBody = 8

// maxRecordBody caps a record body (mirrors wire.MaxFrame): the largest
// legitimate record is a report, whose cell block the wire layer
// already caps at 16 MiB.
const maxRecordBody = 16 << 20

// Geometry bounds for decoded report headers, mirroring the wire
// layer's: d·w is additionally tied to the record length, so a hostile
// header cannot claim more cells than the record carries.
const (
	maxReportDepth = 1 << 20
	maxReportWidth = 1 << 32
)

// Errors of the record layer.
var (
	// ErrCorruptRecord marks a record whose length, kind, or checksum is
	// invalid — the point where a segment's replay stops.
	ErrCorruptRecord = errors.New("store: corrupt WAL record")
	// ErrBadRecord marks a structurally valid record whose body does not
	// parse (wrong size for its kind, impossible geometry).
	ErrBadRecord = errors.New("store: malformed WAL record body")
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecordEncoder frames WAL records onto an io.Writer. The header,
// fixed-prefix, and checksum scratch live in the encoder rather than on
// the stack: small byte arrays handed through the io.Writer interface
// escape, and those per-append allocations (three of them) were the
// last ones left on the durable report-ingestion path. A long-lived
// encoder — the Disk store owns one, serialized by its append lock —
// makes every append allocation-free (TestRecordEncoderReportZeroAllocs
// holds it at 0 allocs/op). The zero value is ready to use; an encoder
// is not safe for concurrent use.
type RecordEncoder struct {
	hdr  [5]byte
	pre  [reportPreamble]byte // largest fixed body prefix
	tail [4]byte
	cell []byte // cell-block scratch for hosts without a zero-copy byte view

	// lastWrote is the framed size (overhead + body) of the last record
	// successfully written — read by the store's byte counters under
	// the same lock that serializes the encoder.
	lastWrote int
}

// cellBytes returns the little-endian byte block for cells: the slice's
// raw byte view where the layout allows it (little-endian hosts outside
// purego builds), otherwise an encoder-owned scratch buffer the cells
// are re-encoded into. The scratch grows to the largest block seen and
// is then reused, keeping the append path allocation-free under both
// dispatch modes. The returned slice is valid until the next call.
func (e *RecordEncoder) cellBytes(cells []uint64) []byte {
	if view, ok := vec.AsBytes(cells); ok {
		return view
	}
	n := 8 * len(cells)
	if cap(e.cell) < n {
		e.cell = make([]byte, n)
	}
	raw := e.cell[:n]
	vec.PutLE(raw, cells)
	return raw
}

// record writes one framed record: the 5-byte length+kind header, the
// fixed body prefix (from e.pre), an optional variable block, and the
// trailing CRC over kind+body. The variable block is written as given,
// so a report's cell view streams straight from the caller's (possibly
// pooled) memory.
func (e *RecordEncoder) record(w io.Writer, kind byte, fixed, rest []byte) error {
	n := len(fixed) + len(rest)
	if n > maxRecordBody {
		return fmt.Errorf("%w: %d-byte body", ErrBadRecord, n)
	}
	binary.LittleEndian.PutUint32(e.hdr[0:], uint32(n))
	e.hdr[4] = kind
	if _, err := w.Write(e.hdr[:]); err != nil {
		return err
	}
	crc := crc32.Update(0, castagnoli, e.hdr[4:5])
	if len(fixed) > 0 {
		if _, err := w.Write(fixed); err != nil {
			return err
		}
		crc = crc32.Update(crc, castagnoli, fixed)
	}
	if len(rest) > 0 {
		if _, err := w.Write(rest); err != nil {
			return err
		}
		crc = crc32.Update(crc, castagnoli, rest)
	}
	binary.LittleEndian.PutUint32(e.tail[:], crc)
	if _, err := w.Write(e.tail[:]); err != nil {
		return err
	}
	e.lastWrote = walRecordOverhead + n
	return nil
}

// ReadWALRecord reads one framed record from r. buf is an optional
// reusable scratch buffer; the returned body aliases it (or a grown
// replacement, also returned) and is valid until the next call. A clean
// end of input returns io.EOF; a torn or corrupt record returns
// ErrCorruptRecord. Exported so the fuzz harness and offline WAL tools
// share the exact decoder recovery runs.
//
// When r can also Peek and Discard (a *bufio.Reader — what segment
// replay passes) and the framed record fits r's buffer, the record is
// checked and returned in place: the body then aliases r's buffer, still
// valid until the next call on r, and buf is returned untouched. A
// record larger than the buffer takes the copying path, and both paths
// classify torn and corrupt input identically.
func ReadWALRecord(r io.Reader, buf []byte) (kind byte, body, newBuf []byte, err error) {
	if pr, ok := r.(peekDiscarder); ok {
		return readWALRecordInPlace(pr, buf)
	}
	return readWALRecordCopy(r, buf)
}

// peekDiscarder is the part of *bufio.Reader the in-place path uses.
type peekDiscarder interface {
	io.Reader
	Peek(n int) ([]byte, error)
	Discard(n int) (int, error)
}

// readWALRecordInPlace serves a record from r's buffer when it fits. A
// Peek that comes back short for any reason other than bufio's
// ErrBufferFull means the input ended (or failed) inside the record —
// the same torn cases the copying path reports.
func readWALRecordInPlace(r peekDiscarder, buf []byte) (kind byte, body, newBuf []byte, err error) {
	hdr, err := r.Peek(5)
	if len(hdr) < 5 {
		if len(hdr) == 0 && err == io.EOF {
			return 0, nil, buf, io.EOF
		}
		return 0, nil, buf, fmt.Errorf("%w: torn header: %v", ErrCorruptRecord, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	kind = hdr[4]
	if n > maxRecordBody {
		return 0, nil, buf, fmt.Errorf("%w: %d-byte body", ErrCorruptRecord, n)
	}
	frame, err := r.Peek(walRecordOverhead + int(n))
	if errors.Is(err, bufio.ErrBufferFull) {
		// Larger than the buffer: the copying path reads it through.
		return readWALRecordCopy(r, buf)
	}
	if err != nil {
		return 0, nil, buf, fmt.Errorf("%w: torn record: %v", ErrCorruptRecord, err)
	}
	body = frame[5 : 5+n]
	crc := crc32.Update(0, castagnoli, frame[4:5])
	crc = crc32.Update(crc, castagnoli, body)
	if binary.LittleEndian.Uint32(frame[5+n:]) != crc {
		return 0, nil, buf, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	r.Discard(len(frame)) // cannot fail: the bytes are buffered
	return kind, body, buf, nil
}

// readWALRecordCopy reads a record through r into buf.
func readWALRecordCopy(r io.Reader, buf []byte) (kind byte, body, newBuf []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		if err == io.EOF {
			return 0, nil, buf, io.EOF
		}
		return 0, nil, buf, fmt.Errorf("%w: %v", ErrCorruptRecord, err)
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, buf, fmt.Errorf("%w: torn header: %v", ErrCorruptRecord, err)
	}
	n := binary.LittleEndian.Uint32(hdr[0:4])
	kind = hdr[4]
	if n > maxRecordBody {
		return 0, nil, buf, fmt.Errorf("%w: %d-byte body", ErrCorruptRecord, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	body = buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, buf, fmt.Errorf("%w: torn body: %v", ErrCorruptRecord, err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return 0, nil, buf, fmt.Errorf("%w: torn checksum: %v", ErrCorruptRecord, err)
	}
	crc := crc32.Update(0, castagnoli, hdr[4:5])
	crc = crc32.Update(crc, castagnoli, body)
	if binary.LittleEndian.Uint32(tail[:]) != crc {
		return 0, nil, buf, fmt.Errorf("%w: checksum mismatch", ErrCorruptRecord)
	}
	return kind, body, buf, nil
}

// Report frames one report event — the wire frame's payload (56-byte
// preamble + little-endian cell block) as a WAL record — onto w. On
// little-endian hosts the cell block is written as the slice's raw byte
// view, so the append is one header write plus one bulk copy of memory
// the wire layer already holds. Exported so the pipeline bench measures
// exactly the encoder the hot path runs.
func (e *RecordEncoder) Report(w io.Writer, campaign uint32, round uint64, user, d, wd int, n, seed uint64, keystream byte, configVersion uint32, cells []uint64) error {
	if d < 1 || wd < 1 || uint64(d) > maxReportDepth || uint64(wd) >= maxReportWidth ||
		uint64(d)*uint64(wd) != uint64(len(cells)) {
		return fmt.Errorf("%w: report geometry d=%d w=%d cells=%d", ErrBadRecord, d, wd, len(cells))
	}
	if campaign > maxRecordCampaign {
		return fmt.Errorf("%w: campaign %d", ErrBadRecord, campaign)
	}
	pre := e.pre[:reportPreamble]
	binary.LittleEndian.PutUint64(pre[0:], uint64(user))
	binary.LittleEndian.PutUint64(pre[8:], round)
	binary.LittleEndian.PutUint64(pre[16:], uint64(d))
	binary.LittleEndian.PutUint64(pre[24:], uint64(wd))
	binary.LittleEndian.PutUint64(pre[32:], n)
	binary.LittleEndian.PutUint64(pre[40:], seed)
	pre[48], pre[49] = keystream, 0
	binary.LittleEndian.PutUint16(pre[50:], uint16(campaign))
	binary.LittleEndian.PutUint32(pre[52:], configVersion)
	return e.record(w, recReport, pre, e.cellBytes(cells))
}

// reportRecord is a decoded report body. Cells is the raw little-endian
// cell block, aliasing the record buffer.
type reportRecord struct {
	User          uint64
	Round         uint64
	D, W          uint64
	N             uint64
	Seed          uint64
	Keystream     byte
	Campaign      uint32
	ConfigVersion uint32
	Cells         []byte
}

// decodeReportBody parses a recReport body. The geometry is validated
// against the body length before use, so a corrupt-but-checksummed
// record cannot claim cells it does not carry.
func decodeReportBody(body []byte) (reportRecord, error) {
	if len(body) < reportPreamble {
		return reportRecord{}, fmt.Errorf("%w: short report body", ErrBadRecord)
	}
	rec := reportRecord{
		User:          binary.LittleEndian.Uint64(body[0:]),
		Round:         binary.LittleEndian.Uint64(body[8:]),
		D:             binary.LittleEndian.Uint64(body[16:]),
		W:             binary.LittleEndian.Uint64(body[24:]),
		N:             binary.LittleEndian.Uint64(body[32:]),
		Seed:          binary.LittleEndian.Uint64(body[40:]),
		Keystream:     body[48],
		Campaign:      uint32(binary.LittleEndian.Uint16(body[50:])),
		ConfigVersion: binary.LittleEndian.Uint32(body[52:]),
	}
	if rec.User > 1<<31 || rec.D < 1 || rec.W < 1 || rec.D > maxReportDepth || rec.W > maxReportWidth {
		return reportRecord{}, fmt.Errorf("%w: report header", ErrBadRecord)
	}
	cells := rec.D * rec.W // ≤ 2⁵² by the bounds above: no overflow
	if uint64(len(body)) != reportPreamble+8*cells {
		return reportRecord{}, fmt.Errorf("%w: report body %d bytes, want %d cells", ErrBadRecord, len(body), cells)
	}
	rec.Cells = body[reportPreamble:]
	return rec, nil
}

// open frames a round-open event onto w, carrying the round config the
// round is pinned to. Campaign 0 writes the legacy 49-byte body;
// provisioned campaigns append their ID.
func (e *RecordEncoder) open(w io.Writer, campaign uint32, round uint64, roster, d, wd int, seed uint64, keystream byte, configVersion, rosterVersion uint32) error {
	body := e.pre[:openBodyCampaign]
	binary.LittleEndian.PutUint64(body[0:], round)
	binary.LittleEndian.PutUint64(body[8:], uint64(roster))
	binary.LittleEndian.PutUint64(body[16:], uint64(d))
	binary.LittleEndian.PutUint64(body[24:], uint64(wd))
	binary.LittleEndian.PutUint64(body[32:], seed)
	body[40] = keystream
	binary.LittleEndian.PutUint32(body[41:], configVersion)
	binary.LittleEndian.PutUint32(body[45:], rosterVersion)
	if campaign == 0 {
		return e.record(w, recOpen, body[:openBody], nil)
	}
	binary.LittleEndian.PutUint32(body[49:], campaign)
	return e.record(w, recOpen, body, nil)
}

// openRecord is a decoded round-open body.
type openRecord struct {
	Round         uint64
	Roster        uint64
	D, W          uint64
	Seed          uint64
	Keystream     byte
	Campaign      uint32
	ConfigVersion uint32
	RosterVersion uint32
}

// decodeOpenBody parses a recOpen body. The 41-byte pre-handshake
// layout decodes with zero config/roster versions — the unversioned
// deployment style, accepted so old data dirs keep recovering — and
// the 49-byte pre-campaign layout decodes as campaign 0.
func decodeOpenBody(body []byte) (openRecord, error) {
	if len(body) != openBody && len(body) != openBodyV1 && len(body) != openBodyCampaign {
		return openRecord{}, fmt.Errorf("%w: open body %d bytes", ErrBadRecord, len(body))
	}
	rec := openRecord{
		Round:     binary.LittleEndian.Uint64(body[0:]),
		Roster:    binary.LittleEndian.Uint64(body[8:]),
		D:         binary.LittleEndian.Uint64(body[16:]),
		W:         binary.LittleEndian.Uint64(body[24:]),
		Seed:      binary.LittleEndian.Uint64(body[32:]),
		Keystream: body[40],
	}
	if len(body) >= openBody {
		rec.ConfigVersion = binary.LittleEndian.Uint32(body[41:])
		rec.RosterVersion = binary.LittleEndian.Uint32(body[45:])
	}
	if len(body) == openBodyCampaign {
		rec.Campaign = binary.LittleEndian.Uint32(body[49:])
		if rec.Campaign == 0 {
			// A campaign-variant body claiming campaign 0 is an encoder
			// bug: campaign 0 always writes the legacy layout.
			return openRecord{}, fmt.Errorf("%w: campaign-variant open for campaign 0", ErrBadRecord)
		}
	}
	if rec.Roster > 1<<31 || rec.D < 1 || rec.W < 1 || rec.D > maxReportDepth || rec.W > maxReportWidth ||
		rec.D*rec.W > maxSnapshotCells {
		return openRecord{}, fmt.Errorf("%w: open header", ErrBadRecord)
	}
	return rec, nil
}

// config frames a deployment-wide config/roster version bump onto w.
func (e *RecordEncoder) config(w io.Writer, configVersion, rosterVersion uint32) error {
	body := e.pre[:configBody]
	binary.LittleEndian.PutUint32(body[0:], configVersion)
	binary.LittleEndian.PutUint32(body[4:], rosterVersion)
	return e.record(w, recConfig, body, nil)
}

// decodeConfigBody parses a recConfig body.
func decodeConfigBody(body []byte) (configVersion, rosterVersion uint32, err error) {
	if len(body) != configBody {
		return 0, 0, fmt.Errorf("%w: config body %d bytes", ErrBadRecord, len(body))
	}
	return binary.LittleEndian.Uint32(body[0:]), binary.LittleEndian.Uint32(body[4:]), nil
}

// adjust frames an adjustment-share upload onto w. Campaign 0 writes
// the legacy 16-byte prefix; provisioned campaigns append their ID,
// which the decoder discriminates by the prefix remainder (cells are
// always whole 8-byte words).
func (e *RecordEncoder) adjust(w io.Writer, campaign uint32, round uint64, user int, cells []uint64) error {
	if campaign > maxRecordCampaign {
		return fmt.Errorf("%w: campaign %d", ErrBadRecord, campaign)
	}
	pre := e.pre[:20]
	binary.LittleEndian.PutUint64(pre[0:], round)
	binary.LittleEndian.PutUint64(pre[8:], uint64(user))
	if campaign == 0 {
		return e.record(w, recAdjust, pre[:16], e.cellBytes(cells))
	}
	binary.LittleEndian.PutUint32(pre[16:], campaign)
	return e.record(w, recAdjust, pre, e.cellBytes(cells))
}

// adjustRecord is a decoded adjustment body. Cells aliases the record
// buffer.
type adjustRecord struct {
	Round    uint64
	User     uint64
	Campaign uint32
	Cells    []byte
}

// decodeAdjustBody parses a recAdjust body. The prefix length mod 8
// distinguishes the layouts: 16-byte legacy prefix leaves the cell
// region a multiple of 8, the 20-byte campaign prefix leaves remainder
// 4.
func decodeAdjustBody(body []byte) (adjustRecord, error) {
	if len(body) < 16 {
		return adjustRecord{}, fmt.Errorf("%w: adjust body %d bytes", ErrBadRecord, len(body))
	}
	rec := adjustRecord{
		Round: binary.LittleEndian.Uint64(body[0:]),
		User:  binary.LittleEndian.Uint64(body[8:]),
	}
	switch (len(body) - 16) % 8 {
	case 0:
		rec.Cells = body[16:]
	case 4:
		if len(body) < 20 {
			return adjustRecord{}, fmt.Errorf("%w: adjust body %d bytes", ErrBadRecord, len(body))
		}
		rec.Campaign = binary.LittleEndian.Uint32(body[16:])
		rec.Cells = body[20:]
		if rec.Campaign == 0 || rec.Campaign > maxRecordCampaign {
			return adjustRecord{}, fmt.Errorf("%w: adjust campaign %d", ErrBadRecord, rec.Campaign)
		}
	default:
		return adjustRecord{}, fmt.Errorf("%w: adjust body %d bytes", ErrBadRecord, len(body))
	}
	if rec.User > 1<<31 {
		return adjustRecord{}, fmt.Errorf("%w: adjust user", ErrBadRecord)
	}
	return rec, nil
}

// close frames a round-close event onto w. Campaign 0 writes the
// legacy 8-byte body; provisioned campaigns append their ID.
func (e *RecordEncoder) close(w io.Writer, campaign uint32, round uint64) error {
	if campaign > maxRecordCampaign {
		return fmt.Errorf("%w: campaign %d", ErrBadRecord, campaign)
	}
	body := e.pre[:12]
	binary.LittleEndian.PutUint64(body, round)
	if campaign == 0 {
		return e.record(w, recClose, body[:8], nil)
	}
	binary.LittleEndian.PutUint32(body[8:], campaign)
	return e.record(w, recClose, body, nil)
}

// campaignDef frames a campaign provisioning onto w. The body is the
// campaign registry's canonical encoding, carried opaquely: the store
// persists and replays it without understanding the geometry inside.
func (e *RecordEncoder) campaignDef(w io.Writer, def []byte) error {
	if len(def) < campaignBodyMin {
		return fmt.Errorf("%w: campaign body %d bytes", ErrBadRecord, len(def))
	}
	if id := binary.LittleEndian.Uint32(def[0:]); id == 0 || id > maxRecordCampaign {
		return fmt.Errorf("%w: campaign id %d", ErrBadRecord, binary.LittleEndian.Uint32(def[0:]))
	}
	return e.record(w, recCampaign, def, nil)
}

// decodeCampaignBody parses a recCampaign body: the opaque canonical
// campaign encoding, checked just enough to extract a plausible ID.
func decodeCampaignBody(body []byte) (uint32, []byte, error) {
	if len(body) < campaignBodyMin {
		return 0, nil, fmt.Errorf("%w: campaign body %d bytes", ErrBadRecord, len(body))
	}
	id := binary.LittleEndian.Uint32(body[0:])
	if id == 0 || id > maxRecordCampaign {
		return 0, nil, fmt.Errorf("%w: campaign id %d", ErrBadRecord, id)
	}
	return id, body, nil
}

// register frames a bulletin-board registration onto w.
func (e *RecordEncoder) register(w io.Writer, user int, publicKey []byte) error {
	pre := e.pre[:8]
	binary.LittleEndian.PutUint64(pre, uint64(user))
	return e.record(w, recRegister, pre, publicKey)
}

// registerRecord is a decoded registration body. Key aliases the record
// buffer.
type registerRecord struct {
	User uint64
	Key  []byte
}

// decodeRegisterBody parses a recRegister body.
func decodeRegisterBody(body []byte) (registerRecord, error) {
	if len(body) < 8 {
		return registerRecord{}, fmt.Errorf("%w: register body %d bytes", ErrBadRecord, len(body))
	}
	rec := registerRecord{User: binary.LittleEndian.Uint64(body[0:]), Key: body[8:]}
	if rec.User > 1<<31 {
		return registerRecord{}, fmt.Errorf("%w: register user", ErrBadRecord)
	}
	return rec, nil
}
