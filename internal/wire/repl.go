package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
)

// Replication protocol frames. The segment-shipping conversation
// (internal/repl) is a pull loop the follower drives: manifest request,
// manifest, fetch, chunk. It runs on its own port with its own framing —
// binary like the streamed-report path, checksummed like the WAL —
// because what it carries is raw WAL bytes, and a transport flake that
// silently corrupted them would be indistinguishable from a torn
// segment on the follower's disk.
//
// A connection opens with a fixed 12-byte hello in each direction:
//
//	┌──────────────┬────────────────┐
//	│ "EYWNREPL"   │ revision       │
//	│ 8 B          │ 4 B, BE        │
//	└──────────────┴────────────────┘
//
// after which every frame is
//
//	┌────────────┬────────┬──────────┬─────────────────┐
//	│ length     │ kind   │ body     │ crc32c          │
//	│ 4 B, BE    │ 1 B    │ length B │ 4 B, LE, over   │
//	│ = len(body)│        │          │ kind ‖ body     │
//	└────────────┴────────┴──────────┴─────────────────┘
//
// — the JSON layer's big-endian length prefix married to the WAL's
// Castagnoli trailer. Frame kinds and body layouts (integers BE):
//
//	ReplManifestReq  (empty) — follower asks for the shipping manifest
//	ReplManifest     count(4), then per file: fileKind(1) gen(8)
//	                 size(8) sealed(1)
//	ReplFetch        fileKind(1) gen(8) off(8) maxLen(4)
//	ReplChunk        flags(1) data(rest) — the fetched byte range;
//	                 flags marks EOF-at-current-size and file-gone
//	ReplError        UTF-8 message — the primary refusing a request
//
// Future revisions bump ReplRevision; a primary refuses a hello whose
// revision it does not speak, so a follower never misparses frames.

// ReplMagic is the 8-byte magic opening a replication connection, in
// both directions.
const ReplMagic = "EYWNREPL"

// ReplRevision is the protocol revision this build speaks.
const ReplRevision = 1

// Replication frame kinds. Requests (follower → primary) have the top
// bit clear, responses (primary → follower) have it set.
const (
	// ReplManifestReq asks the primary for its current shipping
	// manifest. Empty body.
	ReplManifestReq byte = 0x01
	// ReplFetch asks for a byte range of one store file.
	ReplFetch byte = 0x02
	// ReplManifest carries the primary's shipping manifest.
	ReplManifest byte = 0x81
	// ReplChunk carries a fetched byte range.
	ReplChunk byte = 0x82
	// ReplError carries a refusal message; the connection stays usable.
	ReplError byte = 0xEF
)

// ReplChunk body flags.
const (
	// ReplChunkEOF marks a chunk that reached the file's current flushed
	// size: for a sealed file the follower holds it all, for the active
	// segment there is simply nothing more yet.
	ReplChunkEOF byte = 1 << 0
	// ReplChunkGone marks a fetch of a file the primary no longer has
	// (pruned by snapshot compaction). The chunk carries no data; the
	// follower re-requests the manifest and syncs from a newer snapshot.
	ReplChunkGone byte = 1 << 1
)

// ErrReplProto marks a malformed or checksum-failing replication frame
// or hello; the connection cannot be trusted further.
var ErrReplProto = errors.New("wire: bad repl frame")

// replCastagnoli is the frame checksum table (same polynomial as the
// WAL's record trailer).
var replCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteReplHello writes the 12-byte protocol hello.
func WriteReplHello(w io.Writer) error {
	var hello [12]byte
	copy(hello[:8], ReplMagic)
	binary.BigEndian.PutUint32(hello[8:], ReplRevision)
	_, err := w.Write(hello[:])
	return err
}

// ReadReplHello reads and validates the peer's hello, returning the
// peer's revision. A wrong magic or an unsupported revision returns
// ErrReplProto: the peers must not attempt to exchange frames.
func ReadReplHello(r io.Reader) (uint32, error) {
	var hello [12]byte
	if _, err := io.ReadFull(r, hello[:]); err != nil {
		return 0, fmt.Errorf("%w: short hello: %v", ErrReplProto, err)
	}
	if string(hello[:8]) != ReplMagic {
		return 0, fmt.Errorf("%w: bad magic", ErrReplProto)
	}
	rev := binary.BigEndian.Uint32(hello[8:])
	if rev != ReplRevision {
		return 0, fmt.Errorf("%w: unsupported revision %d", ErrReplProto, rev)
	}
	return rev, nil
}

// WriteReplFrame frames and writes one replication frame in a single
// (vectored) Write.
func WriteReplFrame(w io.Writer, kind byte, body []byte) error {
	if len(body) > MaxFrame {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)))
	hdr[4] = kind
	crc := crc32.Update(0, replCastagnoli, hdr[4:5])
	crc = crc32.Update(crc, replCastagnoli, body)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	bufs := net.Buffers{hdr[:], body, tail[:]}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadReplFrame reads one replication frame. buf is an optional
// reusable scratch buffer; the returned body aliases it (or a grown
// replacement, also returned) and is valid until the next call. A
// framing or checksum failure returns ErrReplProto — the stream
// position is unknowable after it, so the caller drops the connection.
func ReadReplFrame(r io.Reader, buf []byte) (kind byte, body, newBuf []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	kind = hdr[4]
	if n > MaxFrame {
		return 0, nil, buf, fmt.Errorf("%w: %d-byte body", ErrReplProto, n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	body = buf[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, buf, fmt.Errorf("%w: torn body: %v", ErrReplProto, err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return 0, nil, buf, fmt.Errorf("%w: torn checksum: %v", ErrReplProto, err)
	}
	crc := crc32.Update(0, replCastagnoli, hdr[4:5])
	crc = crc32.Update(crc, replCastagnoli, body)
	if binary.LittleEndian.Uint32(tail[:]) != crc {
		return 0, nil, buf, fmt.Errorf("%w: checksum mismatch", ErrReplProto)
	}
	return kind, body, buf, nil
}

// ReplFileInfo is one store file in a shipped manifest: the wire-level
// mirror of store.FileInfo, kept free of a store dependency so the wire
// package stays a pure protocol layer.
type ReplFileInfo struct {
	// FileKind is the store file kind byte (store.FileWAL or
	// store.FileSnapshot).
	FileKind byte
	// Gen is the file's generation.
	Gen uint64
	// Size is the file's flushed size in bytes.
	Size int64
	// Sealed reports whether the file is immutable.
	Sealed bool
}

// replManifestEntry is the encoded size of one manifest entry:
// fileKind(1) gen(8) size(8) sealed(1).
const replManifestEntry = 18

// EncodeReplManifest encodes a ReplManifest body.
func EncodeReplManifest(files []ReplFileInfo) []byte {
	body := make([]byte, 4+replManifestEntry*len(files))
	binary.BigEndian.PutUint32(body, uint32(len(files)))
	at := 4
	for _, f := range files {
		body[at] = f.FileKind
		binary.BigEndian.PutUint64(body[at+1:], f.Gen)
		binary.BigEndian.PutUint64(body[at+9:], uint64(f.Size))
		if f.Sealed {
			body[at+17] = 1
		}
		at += replManifestEntry
	}
	return body
}

// DecodeReplManifest decodes a ReplManifest body.
func DecodeReplManifest(body []byte) ([]ReplFileInfo, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("%w: short manifest", ErrReplProto)
	}
	n := binary.BigEndian.Uint32(body)
	if uint64(len(body)) != 4+replManifestEntry*uint64(n) {
		return nil, fmt.Errorf("%w: manifest %d bytes for %d entries", ErrReplProto, len(body), n)
	}
	files := make([]ReplFileInfo, n)
	at := 4
	for i := range files {
		files[i] = ReplFileInfo{
			FileKind: body[at],
			Gen:      binary.BigEndian.Uint64(body[at+1:]),
			Size:     int64(binary.BigEndian.Uint64(body[at+9:])),
			Sealed:   body[at+17] != 0,
		}
		if files[i].Size < 0 {
			return nil, fmt.Errorf("%w: negative manifest size", ErrReplProto)
		}
		at += replManifestEntry
	}
	return files, nil
}

// ReplFetchReq is a decoded ReplFetch body: a byte-range read of one
// store file.
type ReplFetchReq struct {
	// FileKind is the store file kind byte of the target.
	FileKind byte
	// Gen is the target file's generation.
	Gen uint64
	// Off is the byte offset to read from.
	Off int64
	// MaxLen caps the chunk the primary may answer with.
	MaxLen uint32
}

// replFetchBody is the encoded size of a ReplFetch body.
const replFetchBody = 21

// EncodeReplFetch encodes a ReplFetch body.
func EncodeReplFetch(req ReplFetchReq) []byte {
	body := make([]byte, replFetchBody)
	body[0] = req.FileKind
	binary.BigEndian.PutUint64(body[1:], req.Gen)
	binary.BigEndian.PutUint64(body[9:], uint64(req.Off))
	binary.BigEndian.PutUint32(body[17:], req.MaxLen)
	return body
}

// DecodeReplFetch decodes a ReplFetch body.
func DecodeReplFetch(body []byte) (ReplFetchReq, error) {
	if len(body) != replFetchBody {
		return ReplFetchReq{}, fmt.Errorf("%w: fetch body %d bytes", ErrReplProto, len(body))
	}
	req := ReplFetchReq{
		FileKind: body[0],
		Gen:      binary.BigEndian.Uint64(body[1:]),
		Off:      int64(binary.BigEndian.Uint64(body[9:])),
		MaxLen:   binary.BigEndian.Uint32(body[17:]),
	}
	if req.Off < 0 {
		return ReplFetchReq{}, fmt.Errorf("%w: negative fetch offset", ErrReplProto)
	}
	return req, nil
}
