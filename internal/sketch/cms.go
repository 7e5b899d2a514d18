// Package sketch implements the count-min sketch (CMS) of Cormode and
// Muthukrishnan, the synopsis data structure at the heart of eyeWnder's
// privacy-preserving distributed counting protocol (Section 6.1 of the
// paper).
//
// A CMS is a d×w array of counters with d pairwise-independent hash
// functions. Encoding an element increments one counter per row; the
// estimated frequency is the minimum over the element's d counters, which
// guarantees
//
//	count(x) <= Query(x) <= count(x) + ε·N   with probability 1−δ
//
// where N is the total number of updates, d = ⌈ln(1/δ)⌉ and w = ⌈e/ε⌉.
//
// Two properties make the CMS the right structure for eyeWnder:
//
//  1. It is a linear sketch: the cell-wise sum of per-user sketches equals
//     the sketch of the multiset union, so the back-end can aggregate
//     blinded reports and unblind only the total (Section 6 "Aggregation
//     and unblinding").
//  2. Its size depends only on (ε, δ), not on the number of distinct ads,
//     so users who cannot enumerate the global ad set A can still report.
//
// Cells are uint64 so that the additive-share blinding of package blind
// cancels exactly under wrap-around arithmetic.
//
// # Hashing
//
// Row indices are derived with Kirsch–Mitzenmacher double hashing: the key
// is hashed once into a 128-bit value (h1, h2) and row j uses column
// (h1 + j·h2) mod w. Kirsch and Mitzenmacher showed two independent hash
// functions combined this way preserve the sketch's error guarantees, and
// it makes Update/Query allocation-free with exactly one pass over the
// key. Because the hash defines the cell layout, every protocol
// participant must run the same hash version — a client sketching with a
// different layout would corrupt the blinded aggregate (see hash128).
package sketch

import (
	"errors"
	"fmt"
	"math"
)

// Errors returned by the package.
var (
	ErrDimensionMismatch = errors.New("sketch: dimension mismatch")
	ErrBadParams         = errors.New("sketch: epsilon and delta must be in (0,1)")
)

// CMS is a count-min sketch. The zero value is not usable; construct with
// New or NewWithDimensions.
type CMS struct {
	d, w  int
	cells []uint64 // row-major d×w
	n     uint64   // total updates (weight), for error-bound reporting
	seed  uint64   // row-hash seed base so independent sketches agree
}

// Dimensions returns the geometry New would allocate for (ε, δ):
// d = ⌈ln(1/δ)⌉ rows and w = ⌈e/ε⌉ columns. Validators that only need
// the cell count (e.g. checking an uploaded vector's length) use this
// instead of building a throwaway sketch.
func Dimensions(epsilon, delta float64) (d, w int, err error) {
	if epsilon <= 0 || epsilon >= 1 || delta <= 0 || delta >= 1 {
		return 0, 0, ErrBadParams
	}
	return int(math.Ceil(math.Log(1 / delta))), int(math.Ceil(math.E / epsilon)), nil
}

// New returns a CMS sized for the requested error ε and failure
// probability δ: d = ⌈ln(1/δ)⌉ rows and w = ⌈e/ε⌉ columns.
func New(epsilon, delta float64) (*CMS, error) {
	d, w, err := Dimensions(epsilon, delta)
	if err != nil {
		return nil, err
	}
	return NewWithDimensions(d, w)
}

// NewForElements returns a CMS sized the way the paper sizes it
// (Section 6.1): d = ⌈ln(T/δ)⌉ rows and w = ⌈e/ε⌉ columns, where T is the
// number of elements to be counted. The extra ln T depth union-bounds the
// failure probability across all T estimates, and reproduces the paper's
// reported sketch sizes exactly: with ε = δ = 0.001 and 4-byte cells,
// 185 KB, 196 KB and 207 KB for T = 10k, 50k and 100k.
func NewForElements(t int, epsilon, delta float64) (*CMS, error) {
	if epsilon <= 0 || epsilon >= 1 || delta <= 0 || delta >= 1 {
		return nil, ErrBadParams
	}
	if t < 1 {
		return nil, fmt.Errorf("sketch: invalid element count %d", t)
	}
	d := int(math.Ceil(math.Log(float64(t) / delta)))
	w := int(math.Ceil(math.E / epsilon))
	return NewWithDimensions(d, w)
}

// NewWithDimensions returns a CMS with exactly d rows and w columns.
func NewWithDimensions(d, w int) (*CMS, error) {
	if d < 1 || w < 1 {
		return nil, fmt.Errorf("sketch: invalid dimensions d=%d w=%d", d, w)
	}
	return &CMS{d: d, w: w, cells: make([]uint64, d*w)}, nil
}

// Depth returns the number of rows d.
func (c *CMS) Depth() int { return c.d }

// Width returns the number of columns w.
func (c *CMS) Width() int { return c.w }

// Cells returns the total number of counters d·w.
func (c *CMS) Cells() int { return len(c.cells) }

// N returns the total weight of all updates applied to the sketch.
// After Merge it is the sum of the merged totals.
func (c *CMS) N() uint64 { return c.n }

// SizeBytes returns the serialized payload size assuming cellBytes bytes
// per counter (the paper assumes 4-byte cells in its Section 7.1 overhead
// analysis).
func (c *CMS) SizeBytes(cellBytes int) int { return len(c.cells) * cellBytes }

// EpsilonDelta reports the (ε, δ) guarantee implied by the dimensions.
func (c *CMS) EpsilonDelta() (epsilon, delta float64) {
	return math.E / float64(c.w), math.Exp(-float64(c.d))
}

// indexSeed hashes x exactly once and returns the row-0 column, the
// per-row Kirsch–Mitzenmacher stride, and the width, all as uint64. Row j
// reads column (idx + j·step) mod w; the successor is derived with a
// conditional subtract, so the d-row walk costs no division or rehash.
func (c *CMS) indexSeed(x []byte) (idx, step, width uint64) {
	h1, h2 := hash128(x, c.seed)
	width = uint64(c.w)
	idx = h1 % width
	step = h2 % width
	if step == 0 {
		step = 1 // keep rows from collapsing onto one column
	}
	return idx, step, width
}

// Update encodes one occurrence of x.
func (c *CMS) Update(x []byte) { c.UpdateWeighted(x, 1) }

// UpdateString encodes one occurrence of the string s.
func (c *CMS) UpdateString(s string) { c.UpdateWeighted([]byte(s), 1) }

// UpdateWeighted adds weight w to every row-counter of x. The key is
// hashed once; the whole update is allocation-free.
func (c *CMS) UpdateWeighted(x []byte, w uint64) {
	idx, step, width := c.indexSeed(x)
	row := 0
	for j := 0; j < c.d; j++ {
		c.cells[row+int(idx)] += w
		row += c.w
		idx += step
		if idx >= width {
			idx -= width
		}
	}
	c.n += w
}

// Query returns the estimated frequency of x: min over rows. The key is
// hashed once; the query is allocation-free.
func (c *CMS) Query(x []byte) uint64 {
	idx, step, width := c.indexSeed(x)
	min := uint64(math.MaxUint64)
	row := 0
	for j := 0; j < c.d; j++ {
		if v := c.cells[row+int(idx)]; v < min {
			min = v
		}
		row += c.w
		idx += step
		if idx >= width {
			idx -= width
		}
	}
	return min
}

// QueryRange is the ID-space sweep kernel: it sets dst[i] to
// Query(le64(lo+i)) — the estimate for the 8-byte little-endian key of
// the integer lo+i, bit for bit — for every i, and returns how many of
// those estimates are non-zero. It is what closing a round runs over
// [0, IDSpace): compared with one Query per ID it keeps the seed state,
// the width and the cell slice in registers across IDs, never builds the
// key bytes, and stops a row walk at the first zero cell (the minimum
// cannot fall further). It reads only the sketch and writes only dst, so
// concurrent calls over disjoint dst ranges need no synchronization.
func (c *CMS) QueryRange(lo uint64, dst []uint64) (nonzero int) {
	s1, s2 := hashInit(c.seed)
	cells, w, width := c.cells, c.w, uint64(c.w)
	for i := range dst {
		// hash128 of the 8-byte key: one full word, empty tail, length 8.
		h1, h2 := hashWord(s1, s2, lo+uint64(i))
		h1, h2 = hashMix(hashTail(h1, h2, 0, 8))
		idx, step := h1%width, h2%width
		if step == 0 {
			step = 1 // as indexSeed: keep rows from collapsing onto one column
		}
		min := cells[idx]
		for row := w; min > 0 && row < len(cells); row += w {
			// idx = (idx + step) mod width without a branch the predictor
			// would miss on: both are < width < 2⁶³, so the sign of
			// idx+step-width says whether to add width back.
			idx += step - width
			idx += width & uint64(int64(idx)>>63)
			if v := cells[row+int(idx)]; v < min {
				min = v
			}
		}
		dst[i] = min
		if min > 0 {
			nonzero++
		}
	}
	return nonzero
}

// QueryString returns the estimated frequency of the string s.
func (c *CMS) QueryString(s string) uint64 { return c.Query([]byte(s)) }

// Seed returns the row-hash seed base. Together with (d, w) it defines
// the cell layout; it is layout metadata, not a secret.
func (c *CMS) Seed() uint64 { return c.seed }

// AddWeight adds delta to the update total n without touching cells: the
// bookkeeping half of a merge whose cell adds happen externally (the
// striped round aggregation). Not safe for concurrent use; callers
// serialize (the aggregator does so under its bookkeeping lock).
func (c *CMS) AddWeight(delta uint64) { c.n += delta }

// Restore rebuilds a CMS from externally persisted state: dimensions,
// hash seed, update total, and the flat cell vector, which is adopted
// (not copied — the caller hands over ownership). It is the
// crash-recovery counterpart of FlatCells/Seed/N: the durable round
// store snapshots those and Restore turns them back into a live sketch
// with the identical cell layout.
func Restore(d, w int, seed, n uint64, cells []uint64) (*CMS, error) {
	if d < 1 || w < 1 || len(cells) != d*w {
		return nil, fmt.Errorf("sketch: restore dimensions d=%d w=%d with %d cells", d, w, len(cells))
	}
	return &CMS{d: d, w: w, seed: seed, n: n, cells: cells}, nil
}

// Clone returns a deep copy of c.
func (c *CMS) Clone() *CMS {
	cp := &CMS{d: c.d, w: c.w, n: c.n, seed: c.seed, cells: make([]uint64, len(c.cells))}
	copy(cp.cells, c.cells)
	return cp
}

// Reset zeroes all counters and the update total, keeping dimensions.
func (c *CMS) Reset() {
	for i := range c.cells {
		c.cells[i] = 0
	}
	c.n = 0
}

// FlatCells returns the backing counter slice (row-major). Callers must
// not grow it; mutating entries is allowed and is how the privacy protocol
// applies blinding in place.
func (c *CMS) FlatCells() []uint64 { return c.cells }

// String implements fmt.Stringer with a compact summary.
func (c *CMS) String() string {
	eps, delta := c.EpsilonDelta()
	return fmt.Sprintf("CMS(d=%d, w=%d, n=%d, ε=%.4g, δ=%.4g)", c.d, c.w, c.n, eps, delta)
}
