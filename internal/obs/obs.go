// Package obs is the repository's dependency-free metrics core: a
// registry of atomically-updated counters, gauges, and fixed-bucket
// latency histograms, plus a Prometheus-text-format encoder, a JSON
// snapshot encoder, and the admin HTTP endpoint (/metrics, /statusz,
// /healthz, /debug/pprof/*) eyewnder-server exposes behind -admin.
//
// The design constraint is the report hot path: every instrument
// handle is pre-registered once at construction time (get-or-register
// by name+labels, so a promoted follower reuses the instruments its
// warm-replica phase created), and the update operations — Counter.Inc,
// Gauge.Set, Histogram.Observe — are pure atomic arithmetic with no
// allocation, no map lookup, and no lock. The package uses no unsafe
// and no assembly, so it is identical under the purego CI leg.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// kind discriminates the instrument behind a registry entry.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

// metric is one registered instrument: a metric name, an optional
// fixed label string (rendered once at registration, e.g.
// `reason="sealed"`), and exactly one live instrument.
type metric struct {
	name   string
	help   string
	labels string // rendered `k="v",…` body, "" when unlabeled
	kind   kind

	counter *Counter
	gauge   *Gauge
	gaugeFn func() float64
	hist    *Histogram
}

// Registry holds the instruments of one process (or one harness run).
// Registration takes a lock and may allocate; it happens at startup.
// The returned handles are updated lock-free thereafter. Registration
// is idempotent: asking for the same (name, labels) again returns the
// existing instrument, which is what lets a follower's promotion path
// rebuild its backend and store over the same registry without
// double-registering anything.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric          // registration order
	byKey   map[string]*metric // name + "\xff" + labels
	folds   []fold             // sharded counters folded in at scrape
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// Ensure returns r, or a fresh private registry when r is nil. Every
// instrumented package funnels its optional Metrics option through
// Ensure so instrument handles are always real and the hot paths never
// branch on "is metrics enabled".
func Ensure(r *Registry) *Registry {
	if r == nil {
		return New()
	}
	return r
}

// renderLabels turns a flat key,value,key,value list into the
// canonical `k="v",k="v"` body used both as part of the registry key
// and verbatim in the Prometheus encoding. Values are escaped per the
// text-format rules (backslash, double quote, newline).
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("obs: odd label key/value list")
	}
	var b []byte
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, kv[i]...)
		b = append(b, '=', '"')
		b = appendEscapedLabelValue(b, kv[i+1])
		b = append(b, '"')
	}
	return string(b)
}

// appendEscapedLabelValue escapes v per the Prometheus text format:
// backslash, double-quote, and newline must be backslash-escaped
// inside a label value.
func appendEscapedLabelValue(b []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, c)
		}
	}
	return b
}

// lookup returns the existing entry for (name, labels) or registers a
// new one built by mk. It panics if the name+labels is already bound
// to a different instrument kind — that is a wiring bug, not a
// runtime condition.
func (r *Registry) lookup(name, help string, k kind, labels []string, mk func(*metric)) *metric {
	lbl := renderLabels(labels)
	key := name + "\xff" + lbl
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != k {
			panic("obs: " + name + " re-registered with a different kind")
		}
		return m
	}
	m := &metric{name: name, help: help, labels: lbl, kind: k}
	mk(m)
	r.byKey[key] = m
	r.metrics = append(r.metrics, m)
	return m
}

// Counter registers (or finds) a monotonically increasing counter.
// Label the variants of one logical metric by passing the same name
// with different key/value pairs: Counter("x_total", h, "reason", "a").
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	m := r.lookup(name, help, kindCounter, labels, func(m *metric) {
		m.counter = &Counter{}
	})
	return m.counter
}

// Gauge registers (or finds) an integer gauge.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	m := r.lookup(name, help, kindGauge, labels, func(m *metric) {
		m.gauge = &Gauge{}
	})
	return m.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at encode
// time — for values some other subsystem already maintains (store
// generation, replication status). Re-registering the same name+labels
// replaces the callback, so a promoted follower can repoint the gauge
// at its new backend.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	m := r.lookup(name, help, kindGaugeFunc, labels, func(m *metric) {})
	r.mu.Lock()
	m.gaugeFn = fn
	r.mu.Unlock()
}

// Histogram registers (or finds) a fixed-bucket latency histogram.
// A nil buckets slice selects DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []time.Duration, labels ...string) *Histogram {
	m := r.lookup(name, help, kindHistogram, labels, func(m *metric) {
		m.hist = newHistogram(buckets)
	})
	return m.hist
}

// CountHistogram registers (or finds) a fixed-bucket histogram of plain
// counts — frames per ack, say — updated with ObserveCount. It encodes
// like a latency histogram, except that bounds and _sum are the counts
// themselves rather than seconds.
func (r *Registry) CountHistogram(name, help string, bounds []uint64, labels ...string) *Histogram {
	m := r.lookup(name, help, kindHistogram, labels, func(m *metric) {
		b := make([]time.Duration, len(bounds))
		for i, v := range bounds {
			b[i] = time.Duration(v)
		}
		m.hist = newHistogram(b)
		m.hist.scale = 1
	})
	return m.hist
}

// snapshotMetrics returns the registered entries in registration
// order, grouped so that all entries sharing a metric name are
// adjacent (first-seen name order). Encoders rely on the grouping to
// emit one HELP/TYPE header per name.
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	// Fold sharded counters into their encoding slot. The slot is only
	// ever written here, so a plain store is safe.
	for _, f := range r.folds {
		f.into.v.Store(f.from.Value())
	}
	out := make([]*metric, len(r.metrics))
	copy(out, r.metrics)
	// Stable sort by first occurrence of the name keeps label variants
	// of one metric together without disturbing overall order.
	firstIdx := make(map[string]int, len(out))
	for i, m := range out {
		if _, ok := firstIdx[m.name]; !ok {
			firstIdx[m.name] = i
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		return firstIdx[out[i].name] < firstIdx[out[j].name]
	})
	return out
}

// Counter is a monotonically increasing uint64. The padding keeps two
// counters registered back-to-back off the same cache line, which
// matters for the pairs the ingest path bumps on every report.
type Counter struct {
	v atomic.Uint64
	_ [56]byte
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable int64 value.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// nShards is the shard count of a ShardedCounter: enough to spread a
// many-core ingest fan-in, small enough that summing at scrape time is
// trivial.
const nShards = 16

// shardPad pads each shard to its own cache line.
type shardPad struct {
	v atomic.Uint64
	_ [56]byte
}

// ShardedCounter is a counter split across padded shards for hot paths
// where many goroutines bump the same metric concurrently (one shard
// per connection stream, say). Callers obtain a shard index once, off
// the hot path, via NextShard, and pass it to Inc.
type ShardedCounter struct {
	shards [nShards]shardPad
	rr     atomic.Uint32
}

// NextShard hands out shard indices round-robin; call it once per
// long-lived worker (connection, stream), not per operation.
func (c *ShardedCounter) NextShard() int {
	return int(c.rr.Add(1)-1) % nShards
}

// Inc adds 1 to the given shard.
func (c *ShardedCounter) Inc(shard int) { c.shards[shard&(nShards-1)].v.Add(1) }

// Add adds n to the given shard.
func (c *ShardedCounter) Add(shard int, n uint64) { c.shards[shard&(nShards-1)].v.Add(n) }

// Value sums the shards. The sum is not a point-in-time snapshot under
// concurrent writers, which is fine for a monotone counter.
func (c *ShardedCounter) Value() uint64 {
	var t uint64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// ShardedCounter registers (or finds) a sharded counter. It encodes
// exactly like a plain counter (the shards are summed at scrape time).
func (r *Registry) ShardedCounter(name, help string, labels ...string) *ShardedCounter {
	m := r.lookup(name, help, kindCounter, labels, func(m *metric) {
		m.counter = &Counter{}
	})
	// The plain Counter slot stays authoritative for encoding; a
	// sharded counter folds into it lazily at scrape via the fold list.
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, f := range r.folds {
		if f.into == m.counter {
			return f.from
		}
	}
	sc := &ShardedCounter{}
	r.folds = append(r.folds, fold{from: sc, into: m.counter})
	return sc
}

// fold links a sharded counter to the plain counter slot that encodes
// it; scrape-time folding keeps the encoder oblivious to sharding.
type fold struct {
	from *ShardedCounter
	into *Counter
}

// DefBuckets is the default latency bucket layout: 50µs to 2.5s,
// roughly logarithmic — wide enough for both an NVMe fsync and a slow
// network fetch.
var DefBuckets = []time.Duration{
	50 * time.Microsecond,
	100 * time.Microsecond,
	250 * time.Microsecond,
	500 * time.Microsecond,
	1 * time.Millisecond,
	2500 * time.Microsecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
}

// maxBuckets bounds a histogram's bucket count so the per-instrument
// arrays stay fixed-size-ish and encode output stays readable.
const maxBuckets = 32

// Histogram is a fixed-bucket latency histogram. Bounds are nanosecond
// durations internally and encode as seconds (Prometheus convention);
// a CountHistogram holds and encodes plain counts instead. Observe is a
// linear scan over ≤ maxBuckets bounds plus three atomic adds — no
// allocation, no lock.
type Histogram struct {
	bounds []int64 // sorted upper bounds, ns (counts for a CountHistogram)
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64 // total observed ns (counts for a CountHistogram)
	scale  float64      // stored units per exposed unit: 1e9 (ns → s), or 1
}

func newHistogram(buckets []time.Duration) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	if len(buckets) == 0 || len(buckets) > maxBuckets {
		panic("obs: histogram bucket count out of range")
	}
	h := &Histogram{
		bounds: make([]int64, len(buckets)),
		counts: make([]atomic.Uint64, len(buckets)),
		scale:  1e9,
	}
	for i, b := range buckets {
		h.bounds[i] = int64(b)
		if i > 0 && h.bounds[i] <= h.bounds[i-1] {
			panic("obs: histogram buckets must be strictly increasing")
		}
	}
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) { h.observe(int64(d)) }

// ObserveCount records one count on a CountHistogram.
func (h *Histogram) ObserveCount(n uint64) { h.observe(int64(n)) }

func (h *Histogram) observe(v int64) {
	if v < 0 {
		v = 0
	}
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i].Add(1)
			break
		}
	}
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// exposedSum is _sum in the exposed unit: seconds, or the plain count.
func (h *Histogram) exposedSum() float64 { return float64(h.sum.Load()) / h.scale }
