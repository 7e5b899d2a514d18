package vec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Striped guards a uint64 vector with one lock per contiguous stripe so
// that several goroutines can fold source vectors into it concurrently.
// A plain mutex around Add serializes every merge into a hot aggregation
// round; with striping, reporter k starts at stripe k mod S (a rotating
// offset) and walks all S stripes wrapping around, so concurrent
// reporters pipeline through disjoint stripes and the merge throughput
// of one round scales with cores instead of degrading to a convoy on a
// single round lock.
//
// Stripe boundaries are fixed at construction. Reads of the underlying
// vector (finalize, serialization) are NOT synchronized by Striped; the
// caller must exclude writers first (the back-end does this with a
// per-round RWMutex: reporters hold the read side, close holds the
// write side).
type Striped struct {
	dst    []uint64
	bounds []int // len(stripes)+1 boundaries; stripe i is [bounds[i], bounds[i+1])
	locks  []paddedMutex
	next   atomic.Uint32 // rotating start stripe, decorrelates concurrent adders
}

// paddedMutex spaces stripe locks a cache line apart so two cores
// spinning on neighbouring stripes do not false-share.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

// minStripeElems keeps *default* stripes large enough that the
// per-stripe lock/unlock amortizes over the adds it covers: 512 uint64s
// is ~150 ns of adds against ~25 ns of uncontended lock traffic. An
// explicit stripe count is honored as requested (clamped only to the
// vector length), so operators and benchmarks get exactly the striping
// they ask for.
const minStripeElems = 1 << 9

// EffectiveStripes returns the stripe count NewStriped would use for a
// vector of length n: an explicit request (stripes >= 1) clamped to n,
// or the default of 2×GOMAXPROCS capped so each stripe holds at least
// minStripeElems elements. Exposed so callers can check the striping
// actually in effect.
func EffectiveStripes(n, stripes int) int {
	if stripes <= 0 {
		stripes = 2 * runtime.GOMAXPROCS(0)
		if max := n / minStripeElems; stripes > max {
			stripes = max
		}
	}
	if stripes > n {
		stripes = n
	}
	if stripes < 1 {
		stripes = 1
	}
	return stripes
}

// NewStriped wraps dst with stripes locks. stripes <= 0 picks a default
// (see EffectiveStripes); stripes == 1 degenerates to one plain lock,
// the explicit baseline in benchmarks.
func NewStriped(dst []uint64, stripes int) *Striped {
	stripes = EffectiveStripes(len(dst), stripes)
	s := &Striped{
		dst:    dst,
		bounds: make([]int, stripes+1),
		locks:  make([]paddedMutex, stripes),
	}
	chunk := (len(dst) + stripes - 1) / stripes
	for i := 1; i < stripes; i++ {
		s.bounds[i] = i * chunk
	}
	s.bounds[stripes] = len(dst)
	return s
}

// Add folds src into the striped vector element-wise modulo 2⁶⁴. src
// must have the underlying vector's length (mismatch panics, as in Add).
// Safe for any number of concurrent callers.
func (s *Striped) Add(src []uint64) {
	if len(src) != len(s.dst) {
		panic("vec: length mismatch")
	}
	k := len(s.locks)
	start := int(s.next.Add(1)-1) % k
	for i := 0; i < k; i++ {
		j := start + i
		if j >= k {
			j -= k
		}
		lo, hi := s.bounds[j], s.bounds[j+1]
		s.locks[j].Lock()
		addImpl(s.dst[lo:hi], src[lo:hi])
		s.locks[j].Unlock()
	}
}
