// Package repl implements segment-shipping replication: a primary
// back-end streams its durable store — sealed WAL segments, snapshots,
// and the live tail of the active segment — to a follower that mirrors
// the directory byte-for-byte and replays the records into a warm
// read-only replica. When the primary dies, the follower is promoted:
// it re-opens its mirror through the ordinary crash-recovery path and
// takes over the deployment mid-round.
//
// The design leans entirely on the store's file discipline
// (internal/store, ship.go): sealed files are immutable, the active
// segment grows append-only, and files vanish only after a newer
// snapshot covers them. Replication is therefore a pull loop the
// follower drives — manifest, fetch, apply — with no primary-side
// state about followers at all. The primary's only job is to answer
// byte-range reads (Source); any number of followers may attach, and a
// follower that falls behind the primary's pruning resyncs itself from
// a newer snapshot without the primary noticing.
//
// Correctness is anchored on acknowledged records: the wire layer
// fsyncs before acking, so every acked record is durable on the
// primary and fetchable here. A promoted follower recovers exactly the
// records a restarted primary would have — the kill-the-primary e2e
// (promote_e2e_test.go) holds the promoted follower's finalized counts
// byte-identical to an uninterrupted control run.
package repl

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"sync"

	"eyewnder/internal/store"
	"eyewnder/internal/wire"
)

// Source is the store-side surface a primary ships from. *store.Disk
// implements it; tests substitute fakes to script pruning races and
// torn tails.
type Source interface {
	// Manifest returns the current shipping manifest (see
	// store.Disk.Manifest for the seal/size semantics followers rely
	// on).
	Manifest() ([]store.FileInfo, error)
	// ReadFileAt reads a byte range of one store file; a pruned file
	// returns an error satisfying errors.Is(err, fs.ErrNotExist).
	ReadFileAt(kind store.FileKind, gen uint64, off int64, p []byte) (int, error)
}

// MaxChunk caps the data bytes the primary puts in one ReplChunk frame
// regardless of what the follower asks for. It bounds per-connection
// memory and keeps a slow follower from holding large buffers alive.
const MaxChunk = 1 << 20

// Primary serves the replication protocol over TCP: accept, exchange
// hellos, then answer manifest and fetch requests until the follower
// hangs up. It holds no per-follower state beyond the connection.
type Primary struct {
	lis net.Listener
	src Source

	wg     sync.WaitGroup
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// ServePrimary listens on addr and serves the replication protocol
// from src until Close. Pass the primary back-end's *store.Disk as
// src.
func ServePrimary(addr string, src Source) (*Primary, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Primary{lis: lis, src: src, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr returns the listener's address (useful with ":0").
func (p *Primary) Addr() string { return p.lis.Addr().String() }

// Close stops accepting, drops every follower connection, and waits
// for the connection handlers to exit.
func (p *Primary) Close() error {
	p.mu.Lock()
	p.closed = true
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	err := p.lis.Close()
	p.wg.Wait()
	return err
}

func (p *Primary) acceptLoop() {
	defer p.wg.Done()
	for {
		nc, err := p.lis.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			nc.Close()
			return
		}
		p.conns[nc] = struct{}{}
		p.wg.Add(1)
		p.mu.Unlock()
		go p.serveConn(nc)
	}
}

// serveConn runs one follower's pull loop. Protocol violations drop
// the connection; servable refusals (a Manifest error, a failed read)
// answer ReplError and keep it.
func (p *Primary) serveConn(nc net.Conn) {
	defer func() {
		p.mu.Lock()
		delete(p.conns, nc)
		p.mu.Unlock()
		nc.Close()
		p.wg.Done()
	}()
	if err := wire.WriteReplHello(nc); err != nil {
		return
	}
	// Every read goes through one buffered reader, so a request frame
	// costs one read syscall, not three.
	br := bufio.NewReader(nc)
	if _, err := wire.ReadReplHello(br); err != nil {
		return
	}
	var buf []byte // request frame scratch
	var chunk []byte
	for {
		kind, body, newBuf, err := wire.ReadReplFrame(br, buf)
		buf = newBuf
		if err != nil {
			return
		}
		switch kind {
		case wire.ReplManifestReq:
			files, err := p.src.Manifest()
			if err != nil {
				if !writeReplError(nc, err) {
					return
				}
				continue
			}
			enc := make([]wire.ReplFileInfo, len(files))
			for i, f := range files {
				enc[i] = wire.ReplFileInfo{FileKind: byte(f.Kind), Gen: f.Gen, Size: f.Size, Sealed: f.Sealed}
			}
			if err := wire.WriteReplFrame(nc, wire.ReplManifest, wire.EncodeReplManifest(enc)); err != nil {
				return
			}

		case wire.ReplFetch:
			req, err := wire.DecodeReplFetch(body)
			if err != nil {
				return // framing-level damage: connection untrusted
			}
			want := int(req.MaxLen)
			if want > MaxChunk {
				want = MaxChunk
			}
			if cap(chunk) < 1+want {
				chunk = make([]byte, 1+want)
			}
			n, rerr := p.src.ReadFileAt(store.FileKind(req.FileKind), req.Gen, req.Off, chunk[1:1+want])
			var flags byte
			switch {
			case errors.Is(rerr, fs.ErrNotExist):
				flags, n = wire.ReplChunkGone, 0
			case rerr == io.EOF:
				flags = wire.ReplChunkEOF
			case rerr != nil:
				// A real read error: refuse rather than ship a partial
				// range the follower would treat as contiguous bytes.
				if !writeReplError(nc, rerr) {
					return
				}
				continue
			}
			chunk[0] = flags
			if err := wire.WriteReplFrame(nc, wire.ReplChunk, chunk[:1+n]); err != nil {
				return
			}

		default:
			if !writeReplError(nc, fmt.Errorf("unknown request kind %#02x", kind)) {
				return
			}
		}
	}
}

// writeReplError sends a ReplError frame; false means the connection
// itself failed and the caller should drop it.
func writeReplError(nc net.Conn, err error) bool {
	return wire.WriteReplFrame(nc, wire.ReplError, []byte(err.Error())) == nil
}
