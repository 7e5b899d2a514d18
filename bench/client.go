package main

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eyewnder/internal/wire"
)

// The load side: everything here talks to the server over loopback TCP
// through the wire client API only.

// lanes is C, the number of client connections streaming frames. All
// loops are closed loops: a lane sends its next frame only once its
// window (or, at depth 1, its previous frame) has been acknowledged.
const lanes = 2

// opCounter counts every frame, control op, audit and equality check a
// run attempts, and how many of them failed.
type opCounter struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	first             []string // the first few failures, for the report
}

func (o *opCounter) ok(n int) { o.attempted.Add(int64(n)) }

func (o *opCounter) fail(format string, args ...any) {
	o.attempted.Add(1)
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.first) < 8 {
		o.first = append(o.first, fmt.Sprintf(format, args...))
	}
	o.mu.Unlock()
}

// fleet is the client population's connections to one server: the
// streaming lanes plus a control connection for JSON ops.
type fleet struct {
	lane [lanes]*wire.Client
	ctrl *wire.Client
	cfg  wire.ConfigFrame
	ops  *opCounter
}

// dialFleet connects and performs the config handshake on every
// connection; the advertised config is what frames are stamped with.
func dialFleet(addr string, ops *opCounter) (*fleet, error) {
	f := &fleet{ops: ops}
	var err error
	if f.ctrl, err = wire.Dial(addr); err != nil {
		return nil, err
	}
	for i := range f.lane {
		if f.lane[i], err = wire.Dial(addr); err != nil {
			f.close()
			return nil, err
		}
	}
	if err := f.handshake(); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// handshake (re-)adopts the server's advertised config on every
// connection.
func (f *fleet) handshake() error {
	for _, c := range append(f.lane[:], f.ctrl) {
		cf, err := c.Handshake()
		if err != nil {
			return fmt.Errorf("config handshake: %w", err)
		}
		f.cfg = cf
	}
	return nil
}

func (f *fleet) close() {
	for _, c := range append(f.lane[:], f.ctrl) {
		if c != nil {
			c.Close()
		}
	}
}

// uploadStats is what one upload of a batch of frames measured.
type uploadStats struct {
	wall    time.Duration   // first Submit to last Flush return, over all lanes
	blocked time.Duration   // summed over lanes: time in Submit calls that found the window full
	acks    []time.Duration // depth 1 only: Submit+Flush time per frame
}

// upload streams frames over the lanes, frame i on lane i mod C, stamped
// with the round and the negotiated config version. Windowed, each lane
// keeps the default window (twice the server's ack batch) in flight;
// at depth 1 it submits one frame, flushes, and times the pair.
func (f *fleet) upload(frames []*wire.ReportFrame, round uint64, depth1 bool) (uploadStats, error) {
	var st uploadStats
	var streams [lanes]*wire.ReportStream
	for i, c := range f.lane {
		rs, err := c.OpenReportStream(0)
		if err != nil {
			return st, err
		}
		streams[i] = rs
	}
	var (
		wg      sync.WaitGroup
		errs    [lanes]error
		blocked [lanes]time.Duration
		acks    [lanes][]time.Duration
	)
	t0 := time.Now()
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			rs := streams[l]
			if depth1 {
				acks[l] = make([]time.Duration, 0, len(frames)/lanes+1)
			}
			for i := l; i < len(frames); i += lanes {
				fr := frames[i]
				fr.Round, fr.ConfigVersion = round, f.cfg.ConfigVersion
				if depth1 {
					s := time.Now()
					err := rs.Submit(fr)
					if err == nil {
						err = rs.Flush()
					}
					if err != nil {
						errs[l] = err
						break
					}
					acks[l] = append(acks[l], time.Since(s))
					continue
				}
				// The window is about to fill: this Submit will wait for an
				// ack, which is the server (not the generator) being slow.
				full := rs.InFlight() >= 2*f.ackBatch()-1
				s := time.Now()
				if err := rs.Submit(fr); err != nil {
					errs[l] = err
					break
				}
				if full {
					blocked[l] += time.Since(s)
				}
			}
			if err := rs.Close(); err != nil && errs[l] == nil {
				errs[l] = err
			}
		}(l)
	}
	wg.Wait()
	st.wall = time.Since(t0)
	for l := 0; l < lanes; l++ {
		st.blocked += blocked[l]
		st.acks = append(st.acks, acks[l]...)
		if errs[l] != nil {
			f.ops.fail("upload round %d lane %d: %v", round, l, errs[l])
			return st, errs[l]
		}
	}
	f.ops.ok(len(frames))
	return st, nil
}

// ackBatch is the server's advertised ack batch (adaptive connections
// start at the default).
func (f *fleet) ackBatch() int {
	if f.cfg.AckBatch > 0 {
		return int(f.cfg.AckBatch)
	}
	return wire.DefaultAckBatch
}

// closeRound sends close_round. sealing marks the deadline close that is
// expected to be refused with shares outstanding (its refusal is the
// protocol working, not a failure); it returns sealed=true then.
func (f *fleet) closeRound(campaign uint32, round uint64, sealing bool) (resp wire.CloseRoundResp, sealed bool, err error) {
	req := wire.CloseRoundReq{Campaign: campaign, Round: round}
	if sealing {
		req.AdjustWaitMS = 1
	}
	err = f.ctrl.Do(wire.TypeCloseRound, req, &resp)
	if err != nil && sealing && strings.Contains(err.Error(), errAdjustIncompleteText) {
		f.ops.ok(1)
		return resp, true, nil
	}
	if err != nil {
		f.ops.fail("close_round c%d r%d: %v", campaign, round, err)
		return resp, false, err
	}
	f.ops.ok(1)
	return resp, false, nil
}

// do is one counted JSON control op on the control connection.
func (f *fleet) do(typ string, req, resp any) error {
	if err := f.ctrl.Do(typ, req, resp); err != nil {
		f.ops.fail("%s: %v", typ, err)
		return err
	}
	f.ops.ok(1)
	return nil
}

func (f *fleet) roundStatus(campaign uint32, round uint64) (wire.RoundStatusResp, error) {
	var resp wire.RoundStatusResp
	err := f.do(wire.TypeRoundStatus, wire.CloseRoundReq{Campaign: campaign, Round: round}, &resp)
	return resp, err
}

func (f *fleet) roundCounts(campaign uint32, round uint64) (map[uint64]uint64, error) {
	var resp wire.RoundCountsResp
	err := f.do(wire.TypeRoundCounts, wire.RoundCountsReq{Campaign: campaign, Round: round}, &resp)
	return resp.Counts, err
}

func (f *fleet) threshold(campaign uint32, round uint64) (float64, error) {
	var resp wire.ThresholdResp
	err := f.do(wire.TypeThreshold, wire.ThresholdReq{Campaign: campaign, Round: round}, &resp)
	return resp.UsersTh, err
}

// audit sends the IDs as audit_ad queries on a closed round, split over
// the lanes' connections, checks each answer against want, and returns
// the round-trip times.
func (f *fleet) audit(campaign uint32, round uint64, ids []uint64, want map[uint64]uint64) []time.Duration {
	var wg sync.WaitGroup
	var lat [lanes][]time.Duration
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			for i := l; i < len(ids); i += lanes {
				var resp wire.AuditAdResp
				s := time.Now()
				err := f.lane[l].Do(wire.TypeAuditAd, wire.AuditAdReq{Campaign: campaign, Round: round, AdID: ids[i]}, &resp)
				d := time.Since(s)
				switch {
				case err != nil:
					f.ops.fail("audit_ad %d: %v", ids[i], err)
				case resp.Users != want[ids[i]]:
					f.ops.fail("audit_ad %d: %d users, oracle %d", ids[i], resp.Users, want[ids[i]])
				default:
					f.ops.ok(1)
					lat[l] = append(lat[l], d)
				}
			}
		}(l)
	}
	wg.Wait()
	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	return all
}

// register enrolls a user's blinding public key on the bulletin board.
func (f *fleet) register(user int, publicKey []byte) error {
	var resp wire.RegisterResp
	return f.do(wire.TypeRegister, wire.RegisterReq{User: user, PublicKey: publicKey}, &resp)
}

// timeOp returns the median round trip of n repetitions of op.
func timeOp(n int, op func() error) (float64, error) {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		s := time.Now()
		if err := op(); err != nil {
			return 0, err
		}
		lat = append(lat, float64(time.Since(s))/1e3)
	}
	return median(lat), nil
}
