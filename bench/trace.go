package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// Spans are recorded by this benchmark's own decorators around the two
// public seams of the server (store.Store and wire.ReportSink /
// wire.ReportDurability, see layers.go) — the program under test is not
// edited. A span names the layer call it timed, its start and end on the
// tracer's clock, the request it belongs to, and (after resolve) the span
// that caused it.

type spanKind uint8

const (
	spConsume      spanKind = iota // backend: ConsumeReport of a report frame
	spAdjust                       // backend: ConsumeReport of a streamed adjustment share
	spSyncReports                  // backend: SyncReports (the ack's durability barrier)
	spOp                           // backend: one JSON control op through Handler
	spAppendReport                 // store: AppendReport
	spAppendAdjust                 // store: AppendAdjust
	spAppendClose                  // store: AppendClose
	spSync                         // store: Sync
	spSnapshot                     // store: Snapshot
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"backend.consume", "backend.adjust", "backend.sync_reports", "backend.op",
	"store.append_report", "store.append_adjust", "store.append_close", "store.sync", "store.snapshot",
}

// isBackend reports whether spans of the kind can parent store spans.
func (k spanKind) isBackend() bool { return k <= spOp }

// span is one timed layer call. req identifies the request: for frames
// campaign·round·user (reqOf), for control ops and barriers 0. parent is
// an index into the resolved span slice, -1 for a root.
type span struct {
	kind       spanKind
	start, end int64
	req        uint64
	parent     int32
}

// reqOf packs a frame's identity into a span request ID.
func reqOf(campaign uint32, round uint64, user int) uint64 {
	return uint64(campaign)<<48 | (round&0xFFFFFF)<<24 | uint64(user)&0xFFFFFF
}

// tracer keeps spans in a preallocated slice; recording is one atomic
// add and one slot write, so concurrent connections never contend on a
// lock. Spans past the capacity are counted, not kept.
type tracer struct {
	t0      time.Time
	on      atomic.Bool
	n       atomic.Int64
	dropped atomic.Int64
	spans   []span
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, capacity)}
}

// now is the tracer clock: nanoseconds since the tracer was made.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record closes a span that started at start.
func (t *tracer) record(kind spanKind, start int64, req uint64) {
	end := t.now()
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = span{kind: kind, start: start, end: end, req: req, parent: -1}
}

// parentScan bounds how far back resolve looks for an enclosing span:
// with two connections and a snapshot goroutine only a handful of
// backend spans are ever open at once.
const parentScan = 256

// resolve returns the recorded spans ordered by start time with every
// store span linked to the backend span that caused it: the latest-
// starting backend span that encloses it and, when the store span
// carries a frame identity, shares it. Calls into the store are
// synchronous, so the causing span always encloses its child; with two
// connections in flight a barrier can be enclosed by both connections'
// spans, and the tightest one wins.
func (t *tracer) resolve() []span {
	n := int(t.n.Load())
	if n > len(t.spans) {
		n = len(t.spans)
	}
	out := append([]span(nil), t.spans[:n]...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].start != out[j].start {
			return out[i].start < out[j].start
		}
		return out[i].end > out[j].end
	})
	for i := range out {
		c := &out[i]
		if c.kind.isBackend() {
			continue
		}
		for j := i - 1; j >= 0 && j >= i-parentScan; j-- {
			p := &out[j]
			if p.kind.isBackend() && p.end >= c.end && (c.req == 0 || p.req == c.req) {
				c.parent = int32(j)
				break
			}
		}
	}
	return out
}

// kindTotals aggregates one span kind: how many, their summed duration,
// and their summed self time (duration minus the children's).
type kindTotals struct {
	count   int
	totalNs int64
	selfNs  int64
}

// selfTimes folds resolved spans into per-kind totals. A span's self
// time is its duration minus the time its child spans cover; children
// of one parent never overlap (the calls are synchronous), so that is
// the plain sum of their durations.
func selfTimes(spans []span) [nSpanKinds]kindTotals {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	var out [nSpanKinds]kindTotals
	for i, s := range spans {
		d := s.end - s.start
		k := &out[s.kind]
		k.count++
		k.totalNs += d
		k.selfNs += d - child[i]
	}
	return out
}

// meanUs is a kind's mean span duration in microseconds.
func (k kindTotals) meanUs() float64 {
	if k.count == 0 {
		return 0
	}
	return float64(k.totalNs) / float64(k.count) / 1e3
}

// writeSpans writes resolved spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, s := range spans {
		fmt.Fprintf(w, "{\"name\":%q,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"req\":%d}\n",
			spanNames[s.kind], s.start, s.end, s.parent, s.req)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
