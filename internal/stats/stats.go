// Package stats provides the descriptive statistics, density estimation,
// and distribution functions used across eyeWnder: threshold estimation
// for the count-based detector (mean, median, combinations), the kernel
// density estimates plotted in Figure 2 of the paper, and the normal /
// chi-square tail probabilities needed by the logistic-regression analysis
// of Section 8.
//
// All functions operate on float64 slices and never mutate their input
// unless documented otherwise.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on an empty sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs. It returns 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// Kahan summation: weekly #Users distributions can mix very large
	// static-campaign counts with long tails of ones, and the threshold
	// is compared against small integers, so we keep the sum exact.
	var sum, c float64
	for _, x := range xs {
		y := x - c
		t := sum + y
		c = (t - sum) - y
		sum = t
	}
	return sum / float64(len(xs))
}

// Median returns the median of xs without mutating it.
// It returns 0 for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	tmp := make([]float64, n)
	copy(tmp, xs)
	sort.Float64s(tmp)
	if n%2 == 1 {
		return tmp[n/2]
	}
	return (tmp[n/2-1] + tmp[n/2]) / 2
}

// Variance returns the unbiased sample variance of xs (denominator n-1).
// It returns 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R default).
// It does not mutate xs.
func Quantile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, errors.New("stats: quantile out of [0,1]")
	}
	tmp := make([]float64, n)
	copy(tmp, xs)
	sort.Float64s(tmp)
	if n == 1 {
		return tmp[0], nil
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return tmp[n-1], nil
	}
	frac := h - float64(lo)
	return tmp[lo]*(1-frac) + tmp[hi]*frac, nil
}
