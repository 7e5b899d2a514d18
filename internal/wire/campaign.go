package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"eyewnder/internal/campaign"
)

// The campaign directory exchange. A client that saw a nonzero
// Campaigns count in the Welcome fetches the directory: the full set of
// provisioned campaigns (IDs, geometry overrides, keystream suites,
// cadence) it may report into beyond the implicit campaign 0. The
// request is a fixed 24-byte top-bit frame — length-distinguishable
// from every other client→server binary frame (Hello is 16 bytes,
// flush markers 0, report frames ≥ 56) — so, like the Hello, it may
// arrive at any point in the conversation, including between rounds on
// a connection that is not currently streaming.
//
// Request payload:  magic "EYWCDIR1" (8) minRev(4) maxRev(4)
//                   reserved(8, zero)
// Response payload: magic "EYWCDIR2" (8) count(4) reserved(4, zero)
//                   then count canonical campaign encodings
//                   (campaign.AppendBinary), sorted by strictly
//                   increasing ID
//
// A server predating campaigns reads the request as a malformed frame
// and drops the connection — the same failure shape as a pre-handshake
// server answering a Hello, surfaced to callers as ErrNoDirectory.

const (
	campaignDirReqMagic  = "EYWCDIR1"
	campaignDirRespMagic = "EYWCDIR2"
	// campaignDirReqPayload is the fixed request size — the length is
	// the frame discriminator, so it can never collide with another
	// client→server binary frame size.
	campaignDirReqPayload = 24
	// campaignDirRespFixed is the response prefix before the entries.
	campaignDirRespFixed = 16
)

// Errors of the campaign directory exchange.
var (
	// ErrBadCampaignFrame marks a malformed directory request or
	// response frame.
	ErrBadCampaignFrame = errors.New("wire: malformed campaign directory frame")
	// ErrNoDirectory means the server dropped the connection instead of
	// answering — it predates the campaign directory.
	ErrNoDirectory = errors.New("wire: server does not serve a campaign directory")
)

// WriteCampaignDirRequest writes one directory request frame.
func WriteCampaignDirRequest(w io.Writer) error {
	var buf [4 + campaignDirReqPayload]byte
	binary.BigEndian.PutUint32(buf[0:], uint32(campaignDirReqPayload)|reportFlag)
	copy(buf[4:], campaignDirReqMagic)
	binary.LittleEndian.PutUint32(buf[12:], HandshakeRevision)
	binary.LittleEndian.PutUint32(buf[16:], HandshakeRevision)
	// buf[20:28] reserved, zero.
	_, err := w.Write(buf[:])
	return err
}

// ReadCampaignDirRequest reads a directory request payload (header word
// already consumed) and returns the client's revision range. Exported
// so the fuzz harness exercises exactly the decoder the server runs.
func ReadCampaignDirRequest(r io.Reader) (minRev, maxRev uint32, err error) {
	var buf [campaignDirReqPayload]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, 0, fmt.Errorf("%w: short payload: %v", ErrBadCampaignFrame, err)
	}
	if string(buf[:8]) != campaignDirReqMagic {
		return 0, 0, fmt.Errorf("%w: bad magic", ErrBadCampaignFrame)
	}
	minRev = binary.LittleEndian.Uint32(buf[8:])
	maxRev = binary.LittleEndian.Uint32(buf[12:])
	if minRev == 0 || maxRev < minRev {
		return 0, 0, fmt.Errorf("%w: revision range [%d, %d]", ErrBadCampaignFrame, minRev, maxRev)
	}
	return minRev, maxRev, nil
}

// AppendCampaignDirFrame appends one encoded directory response frame
// (header word included) to dst. The entries go out in the canonical
// order — strictly increasing ID — which the reader enforces.
func AppendCampaignDirFrame(dst []byte, list []campaign.Campaign) ([]byte, error) {
	payload := campaignDirRespFixed
	for i := range list {
		payload += list[i].EncodedSize()
	}
	if uint64(payload) > MaxFrame {
		return dst, ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(payload)|reportFlag)
	dst = append(dst, hdr[:]...)
	dst = append(dst, campaignDirRespMagic...)
	var cnt [8]byte
	binary.LittleEndian.PutUint32(cnt[0:4], uint32(len(list)))
	// cnt[4:8] reserved, zero.
	dst = append(dst, cnt[:]...)
	var prev uint32
	for i := range list {
		if list[i].ID == 0 || (i > 0 && list[i].ID <= prev) {
			return dst, fmt.Errorf("%w: entries not in strictly increasing ID order", ErrBadCampaignFrame)
		}
		prev = list[i].ID
		dst = list[i].AppendBinary(dst)
	}
	return dst, nil
}

// ReadCampaignDirFrame reads one directory response frame (header word
// included) and returns the provisioned campaigns in ID order. Every
// entry is validated through the campaign registry's decoder, the
// count must match, and IDs must be strictly increasing — a malformed
// directory is rejected whole.
func ReadCampaignDirFrame(r io.Reader) ([]campaign.Campaign, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	word := binary.BigEndian.Uint32(hdr[:])
	n := word &^ reportFlag
	if word&reportFlag == 0 || n < campaignDirRespFixed || n > MaxFrame {
		return nil, fmt.Errorf("%w: header %#08x", ErrBadCampaignFrame, word)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("%w: short payload: %v", ErrBadCampaignFrame, err)
	}
	if string(body[:8]) != campaignDirRespMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadCampaignFrame)
	}
	count := binary.LittleEndian.Uint32(body[8:])
	rest := body[campaignDirRespFixed:]
	var list []campaign.Campaign
	var prev uint32
	for i := uint32(0); i < count; i++ {
		c, used, err := campaign.DecodeBinary(rest)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d: %v", ErrBadCampaignFrame, i, err)
		}
		if c.ID > maxWireCampaign {
			return nil, fmt.Errorf("%w: entry %d: id %d exceeds wire cap", ErrBadCampaignFrame, i, c.ID)
		}
		if i > 0 && c.ID <= prev {
			return nil, fmt.Errorf("%w: entries not in strictly increasing ID order", ErrBadCampaignFrame)
		}
		prev = c.ID
		list = append(list, c)
		rest = rest[used:]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadCampaignFrame, len(rest))
	}
	return list, nil
}

// answerCampaignDir consumes a directory request payload from r (header
// word already read by serveConn) and responds with the provisioned
// directory — empty when the server has none. A malformed request is a
// framing error: the stream position is unknown, so the connection
// drops.
func (s *Server) answerCampaignDir(r io.Reader, conn net.Conn, wmu *sync.Mutex) error {
	if _, _, err := ReadCampaignDirRequest(r); err != nil {
		return err
	}
	var list []campaign.Campaign
	if s.opts.Campaigns != nil {
		list = s.opts.Campaigns()
	}
	frame, err := AppendCampaignDirFrame(nil, list)
	if err != nil {
		return err
	}
	wmu.Lock()
	defer wmu.Unlock()
	_, err = conn.Write(frame)
	return err
}

// CampaignDirectory performs the directory exchange and returns the
// provisioned campaigns beyond campaign 0 (possibly none). It shares
// the connection's request/response discipline with Do and Handshake
// (ErrStreaming while a ReportStream is open). Against a server
// predating campaigns the connection is dropped; that surfaces as
// ErrNoDirectory — callers should treat the connection as dead
// afterwards.
func (c *Client) CampaignDirectory() ([]campaign.Campaign, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.conn == nil {
		return nil, ErrClosed
	}
	if c.streaming {
		return nil, ErrStreaming
	}
	if err := WriteCampaignDirRequest(c.conn); err != nil {
		return nil, err
	}
	list, err := ReadCampaignDirFrame(c.br)
	if err != nil && !errors.Is(err, ErrBadCampaignFrame) && isConnDropped(err) {
		return nil, ErrNoDirectory
	}
	return list, err
}
