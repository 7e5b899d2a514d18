package backend

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"eyewnder/internal/detector"
	"eyewnder/internal/privacy"
)

// TestSubmitAdjustmentEdgeCases walks every rejection path of the
// adjustment upload — unknown round, wrong cell count, non-reporter,
// conflicting duplicate, closed round, bad user — and then proves none
// of the rejected (or retried) uploads perturbed the live aggregate:
// the round's finalized counts must be byte-identical to a control
// backend that saw only the clean traffic.
func TestSubmitAdjustmentEdgeCases(t *testing.T) {
	b, clients := newBackend(t)
	_, ros := fixtures(t)
	control, err := New(Config{Params: testParams(), Users: len(ros.Parties), UsersEstimator: detector.EstimatorMean})
	if err != nil {
		t.Fatal(err)
	}

	const round = 3
	// Users 0..2 report (user 3 missing); the same report objects feed
	// both backends, so their aggregates start byte-identical.
	cms, _ := testParams().NewSketch()
	cells := cms.Cells()
	var reports []*privacy.Report
	for _, c := range clients[:3] {
		if _, err := c.ObserveAd("https://ads.example/edge"); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Report(round)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	shares := make([][]uint64, 3)
	for i, c := range clients[:3] {
		adj, err := c.Adjust(round, cells, []int{3})
		if err != nil {
			t.Fatal(err)
		}
		shares[i] = adj
	}

	// A share can never open a round: before any report, the round is
	// unknown.
	if err := b.SubmitAdjustment(0, 0, round, 0, shares[0]); !errors.Is(err, ErrUnknownRound) {
		t.Fatalf("pre-report share err = %v, want ErrUnknownRound", err)
	}

	for _, rep := range reports {
		if err := submit(b, rep); err != nil {
			t.Fatal(err)
		}
		if err := submit(control, rep); err != nil {
			t.Fatal(err)
		}
	}

	// Out-of-range user, checked before anything else.
	if err := b.SubmitAdjustment(0, -1, round, 0, shares[0]); !errors.Is(err, ErrBadUser) {
		t.Fatalf("negative user err = %v, want ErrBadUser", err)
	}
	if err := b.SubmitAdjustment(0, len(ros.Parties), round, 0, shares[0]); !errors.Is(err, ErrBadUser) {
		t.Fatalf("out-of-roster user err = %v, want ErrBadUser", err)
	}
	// Wrong cell count, rejected at upload time rather than poisoning
	// every later close.
	if err := b.SubmitAdjustment(0, 0, round, 0, make([]uint64, cells-1)); err == nil {
		t.Fatal("short share accepted")
	}
	// A share for a round nobody has touched is still unknown.
	if err := b.SubmitAdjustment(0, 0, round+1, 0, shares[0]); !errors.Is(err, ErrUnknownRound) {
		t.Fatalf("unknown round err = %v, want ErrUnknownRound", err)
	}
	// User 3 never reported: its share has nothing to cancel.
	if err := b.SubmitAdjustment(0, 3, round, 0, shares[0]); !errors.Is(err, ErrAdjustNotReporter) {
		t.Fatalf("non-reporter err = %v, want ErrAdjustNotReporter", err)
	}
	// A close with a report missing and no shares fails and must leave
	// the round retryable (the clone invariant: shares only ever apply
	// to a clone of the aggregate, never the live one).
	if _, _, err := b.CloseRound(0, round, 0); !errors.Is(err, ErrAdjustIncomplete) {
		t.Fatalf("premature close err = %v, want ErrAdjustIncomplete", err)
	}

	// Clean shares land; an identical re-upload is an idempotent retry,
	// a differing one is a conflict.
	for i, adj := range shares {
		if err := b.SubmitAdjustment(0, i, round, 0, adj); err != nil {
			t.Fatal(err)
		}
		if err := control.SubmitAdjustment(0, i, round, 0, adj); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.SubmitAdjustment(0, 0, round, 0, shares[0]); err != nil {
		t.Fatalf("idempotent re-upload err = %v", err)
	}
	mutated := append([]uint64(nil), shares[0]...)
	mutated[0]++
	if err := b.SubmitAdjustment(0, 0, round, 0, mutated); !errors.Is(err, ErrAdjustConflict) {
		t.Fatalf("conflicting re-upload err = %v, want ErrAdjustConflict", err)
	}

	th, ads, err := b.CloseRound(0, round, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Closed rounds refuse further shares.
	if err := b.SubmitAdjustment(0, 1, round, 0, shares[1]); !errors.Is(err, ErrRoundClosed) {
		t.Fatalf("post-close share err = %v, want ErrRoundClosed", err)
	}

	// The control backend saw none of the failed uploads, the conflict
	// attempt, or the failed close; if any of them had leaked into the
	// live aggregate, these finalized counts would differ.
	thC, adsC, err := control.CloseRound(0, round, 0)
	if err != nil {
		t.Fatal(err)
	}
	if th != thC || ads != adsC {
		t.Fatalf("edge-case traffic changed the close: th %v vs %v, ads %d vs %d", th, thC, ads, adsC)
	}
	counts, err := b.UserCounts(0, round)
	if err != nil {
		t.Fatal(err)
	}
	countsC, err := control.UserCounts(0, round)
	if err != nil {
		t.Fatal(err)
	}
	if len(counts) == 0 || !reflect.DeepEqual(counts, countsC) {
		t.Fatalf("edge-case traffic perturbed the aggregate: %v != %v", counts, countsC)
	}
}

// TestCloseRoundDeadline pins the deadline close: it seals the
// round (late reports get ErrRoundSealed), times out with
// ErrAdjustIncomplete while reporters' shares are outstanding, leaves
// the round retryable, and finalizes once the shares land — including
// a share landing mid-wait, which must wake the close rather than let
// it sleep to its deadline.
func TestCloseRoundDeadline(t *testing.T) {
	b, clients := newBackend(t)
	const round = 11
	cms, _ := testParams().NewSketch()
	for _, c := range clients[:2] {
		if _, err := c.ObserveAd("https://ads.example/wait"); err != nil {
			t.Fatal(err)
		}
		rep, err := c.Report(round)
		if err != nil {
			t.Fatal(err)
		}
		if err := submit(b, rep); err != nil {
			t.Fatal(err)
		}
	}

	// No shares yet: the deadline expires and the close gives up.
	if _, _, err := b.CloseRound(0, round, 20*time.Millisecond); !errors.Is(err, ErrAdjustIncomplete) {
		t.Fatalf("deadline close err = %v, want ErrAdjustIncomplete", err)
	}
	// The failed close sealed the round: late reports are refused, so
	// the missing set every reporter adjusts against stays frozen.
	rep, err := clients[2].Report(round)
	if err != nil {
		t.Fatal(err)
	}
	if err := submit(b, rep); !errors.Is(err, ErrRoundSealed) {
		t.Fatalf("post-seal report err = %v, want ErrRoundSealed", err)
	}
	p, err := b.RoundProgressOf(0, round)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Sealed || p.Closed || p.Reported != 2 || len(p.Missing) != 2 {
		t.Fatalf("progress after failed deadline close = %+v", p)
	}

	// One share lands before the retry, the other mid-wait: the retried
	// close must wake on the second share and finalize well before its
	// deadline.
	missing := []int{2, 3}
	adj0, err := clients[0].Adjust(round, cms.Cells(), missing)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.SubmitAdjustment(0, 0, round, 0, adj0); err != nil {
		t.Fatal(err)
	}
	adj1, err := clients[1].Adjust(round, cms.Cells(), missing)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(30 * time.Millisecond)
		b.SubmitAdjustment(0, 1, round, 0, adj1)
	}()
	start := time.Now()
	th, ads, err := b.CloseRound(0, round, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("close slept %v instead of waking on the share", waited)
	}
	if ads < 1 || th <= 0 {
		t.Fatalf("close = th %v, ads %d", th, ads)
	}
	// Idempotent re-close returns the cached result without waiting.
	th2, ads2, err := b.CloseRound(0, round, time.Millisecond)
	if err != nil || th2 != th || ads2 != ads {
		t.Fatalf("re-close = %v/%d, %v", th2, ads2, err)
	}
}

// TestRoundProgressConsistentUnderLoad is the torn-view regression
// test: RoundProgressOf is polled continuously while reports and
// adjustment shares land from many goroutines, and every observation
// must satisfy Reported + len(Missing) == roster size with Adjusted
// never exceeding Reported. Under -race this also proves the status
// path is data-race-free against submissions (the old separate
// Reported()/Missing() reads took the aggregator lock twice and could
// publish a torn view when a report folded in between).
func TestRoundProgressConsistentUnderLoad(t *testing.T) {
	const users = 32
	params := testParams()
	b, err := New(Config{Params: params, Users: users, UsersEstimator: detector.EstimatorMean})
	if err != nil {
		t.Fatal(err)
	}
	const round = 1
	// Unblinded single-user sketches are fine here: acceptance (and the
	// progress bookkeeping under test) does not depend on blinding.
	makeReport := func(u int) *privacy.Report {
		cms, err := params.NewSketch()
		if err != nil {
			t.Fatal(err)
		}
		cms.Update([]byte{byte(u)})
		return &privacy.Report{User: u, Round: round, Sketch: cms}
	}
	if err := submit(b, makeReport(0)); err != nil {
		t.Fatal(err) // the round must exist before the pollers start
	}
	cms, _ := params.NewSketch()
	cells := cms.Cells()

	stop := make(chan struct{})
	var pollErr error
	var pollMu sync.Mutex
	var pollers sync.WaitGroup
	for g := 0; g < 4; g++ {
		pollers.Add(1)
		go func() {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p, err := b.RoundProgressOf(0, round)
				if err != nil {
					continue
				}
				if p.Reported+len(p.Missing) != users || p.Adjusted > p.Reported {
					pollMu.Lock()
					if pollErr == nil {
						pollErr = fmt.Errorf("torn progress view: reported=%d missing=%d adjusted=%d",
							p.Reported, len(p.Missing), p.Adjusted)
					}
					pollMu.Unlock()
					return
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for u := 1; u < users-1; u++ {
		writers.Add(1)
		go func(u int) {
			defer writers.Done()
			if err := submit(b, makeReport(u)); err != nil {
				t.Error(err)
				return
			}
			// Immediately follow with this reporter's (placeholder)
			// share, racing the pollers' Adjusted reads.
			if err := b.SubmitAdjustment(0, u, round, 0, make([]uint64, cells)); err != nil {
				t.Error(err)
			}
		}(u)
	}
	writers.Wait()
	close(stop)
	pollers.Wait()
	if pollErr != nil {
		t.Fatal(pollErr)
	}
	p, err := b.RoundProgressOf(0, round)
	if err != nil {
		t.Fatal(err)
	}
	if p.Reported != users-1 || len(p.Missing) != 1 || p.Adjusted != users-2 {
		t.Fatalf("final progress = %+v", p)
	}
}
