package wire

import (
	"net"
	"slices"
	"sync"
	"testing"
)

// fillStream queues n decoded frames (round 1, distinct users) on st.
func fillStream(st *connStream, n int) {
	for i := 0; i < n; i++ {
		rb := reportBufPool.Get().(*reportBuf)
		st.ch <- streamItem{rb: rb, f: &ReportFrame{User: i, Round: 1}}
	}
}

// readAckSeqs reads acks until the cumulative sequence reaches total,
// returning every seq observed.
func readAckSeqs(t *testing.T, conn net.Conn, total uint64) []uint64 {
	t.Helper()
	var seqs []uint64
	for {
		seq, msg, err := readAckFrame(conn)
		if err != nil || msg != "" {
			t.Fatalf("ack: %d %q %v", seq, msg, err)
		}
		seqs = append(seqs, seq)
		if seq >= total {
			return seqs
		}
	}
}

// pipeStream runs a connStream's fold and ack goroutines against one end
// of a net.Pipe. The pipe is synchronous, so the acker blocks on every
// ack write until the test reads it — requests posted meanwhile
// coalesce. posts receives every ack request the fold loop makes.
type pipeStream struct {
	st    *connStream
	cli   net.Conn
	posts chan uint64
}

func startPipeStream(t *testing.T, s *Server, st *connStream, slots int) *pipeStream {
	t.Helper()
	srvConn, cliConn := net.Pipe()
	t.Cleanup(func() {
		cliConn.Close()
		srvConn.Close()
	})
	// At most one request per slot, so the hook never blocks.
	ps := &pipeStream{st: st, cli: cliConn, posts: make(chan uint64, slots)}
	st.onPost = func(seq uint64) { ps.posts <- seq }
	var wmu sync.Mutex
	s.runStream(srvConn, &wmu, st)
	return ps
}

// postedUntil collects the fold loop's ack requests until one covers
// total slots: the cadence, before any coalescing.
func (ps *pipeStream) postedUntil(total uint64) []uint64 {
	var seqs []uint64
	for seq := range ps.posts {
		seqs = append(seqs, seq)
		if seq >= total {
			break
		}
	}
	return seqs
}

// checkCoalesced reads the acks for a run whose every request was
// posted before any ack was read. The acker was blocked writing the ack
// for the first request it took, so everything after coalesces into one
// ack covering all total slots.
func (ps *pipeStream) checkCoalesced(t *testing.T, posted []uint64, total uint64) {
	t.Helper()
	acks := readAckSeqs(t, ps.cli, total)
	if len(acks) > 2 || acks[len(acks)-1] != total {
		t.Fatalf("acks = %v for requests %v, want at most one ack before the coalesced %d", acks, posted, total)
	}
	if !slices.Contains(posted, acks[0]) {
		t.Fatalf("ack %d matches no request in %v", acks[0], posted)
	}
	close(ps.st.ch)
	<-ps.st.done
	<-ps.st.ack.done
}

// Under sustained backlog an adaptive connection must double its batch
// after every full batch, so the ack cadence grows exponentially. The
// channel is pre-filled, so the requests the fold loop posts are
// deterministic; the acks on the wire are those requests, coalesced.
func TestAdaptiveAckGrowsUnderBacklog(t *testing.T) {
	sink := &countingSink{}
	s := &Server{sink: sink, opts: StreamOpts{}}
	st := newConnStream(4, true, 64)
	fillStream(st, 64)
	ps := startPipeStream(t, s, st, 64)

	// k: 4 → 8 → 16 → 32 → … requests acks at 4, 12, 28, 60; the last
	// 4 frames drain the pipeline, so the final request is the idle
	// flush.
	want := []uint64{4, 12, 28, 60, 64}
	if got := ps.postedUntil(64); !slices.Equal(got, want) {
		t.Fatalf("ack requests = %v, want %v", got, want)
	}
	ps.checkCoalesced(t, want, 64)
	if sink.count() != 64 {
		t.Fatalf("sink saw %d frames", sink.count())
	}
}

// A fixed batch (AckBatch ≥ 1) must never adapt: the same backlog gets
// one ack request every k frames, regardless of depth.
func TestFixedAckBatchDoesNotAdapt(t *testing.T) {
	sink := &countingSink{}
	s := &Server{sink: sink, opts: StreamOpts{AckBatch: 4}}
	st := newConnStream(4, false, 32)
	fillStream(st, 32)
	ps := startPipeStream(t, s, st, 32)

	got := ps.postedUntil(32)
	for i, seq := range got {
		if want := uint64(4 * (i + 1)); seq != want {
			t.Fatalf("fixed-k request %d = %d, want %d (%v)", i, seq, want, got)
		}
	}
	ps.checkCoalesced(t, got, 32)
}

// The adaptive cap: k must stop doubling at maxAdaptiveAckBatch.
func TestAdaptiveAckRespectsCap(t *testing.T) {
	if got := clampAckBatch(maxAdaptiveAckBatch * 4); got != maxAdaptiveAckBatch {
		t.Fatalf("clamp high = %d", got)
	}
	if got := clampAckBatch(0); got != 1 {
		t.Fatalf("clamp low = %d", got)
	}
}

// An idle flush halves k toward the drained depth (floor 2) only when no
// ack is in flight: a pipeline that runs dry while a barrier is pending
// is the client's window waiting on the server, not a drained client.
func TestIdleFlushKeepsBatchWhileAckInFlight(t *testing.T) {
	for _, c := range []struct {
		k, pending int
		inFlight   bool
		want       int
	}{
		{k: 32, pending: 3, want: 16},
		{k: 32, pending: 20, want: 20},
		{k: 4, pending: 1, want: 2},
		{k: 8, pending: 8, want: 8},
		{k: 32, pending: 3, inFlight: true, want: 32},
	} {
		if got := idleAckBatch(c.k, c.pending, c.inFlight); got != c.want {
			t.Errorf("idleAckBatch(%d, %d, %v) = %d, want %d", c.k, c.pending, c.inFlight, got, c.want)
		}
	}
}

// End-to-end smoke over a real server: an adaptive connection (the
// default StreamOpts) negotiates DefaultAckBatch as its initial k and
// carries a long windowed stream correctly.
func TestAdaptiveAckEndToEnd(t *testing.T) {
	sink := &countingSink{}
	_, cli := batchedPair(t, sink, StreamOpts{})
	rs, err := cli.OpenReportStream(128)
	if err != nil {
		t.Fatal(err)
	}
	if rs.k != DefaultAckBatch {
		t.Fatalf("negotiated initial k = %d, want %d", rs.k, DefaultAckBatch)
	}
	f := testFrame(32)
	for i := 0; i < 300; i++ {
		f.User = i
		if err := rs.Submit(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.count() != 300 {
		t.Fatalf("sink saw %d frames, want 300", sink.count())
	}
}
