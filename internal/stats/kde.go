package stats

import (
	"errors"
	"math"
)

// SilvermanBandwidth returns the rule-of-thumb kernel bandwidth
// h = 0.9 * min(sd, IQR/1.34) * n^(-1/5) from Silverman (1986), the
// reference the paper cites ([51]) when discussing its minimum-data rule.
// If the spread degenerates to zero the function falls back to 1.0 so the
// estimate remains defined for constant samples.
func SilvermanBandwidth(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 1
	}
	sd := StdDev(xs)
	q1, _ := Quantile(xs, 0.25)
	q3, _ := Quantile(xs, 0.75)
	iqr := (q3 - q1) / 1.34
	spread := sd
	if iqr > 0 && (iqr < spread || spread == 0) {
		spread = iqr
	}
	if spread <= 0 {
		return 1
	}
	return 0.9 * spread * math.Pow(float64(n), -0.2)
}

// KDE is a one-dimensional Gaussian kernel density estimate. It backs the
// "Probability Density" curves of Figure 2 (#Users distribution, actual vs
// CMS-estimated).
type KDE struct {
	xs []float64
	h  float64
}

// NewKDE builds a Gaussian KDE over xs. If bandwidth <= 0 the Silverman
// rule-of-thumb bandwidth is used. The sample is copied.
func NewKDE(xs []float64, bandwidth float64) (*KDE, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	if bandwidth <= 0 {
		bandwidth = SilvermanBandwidth(xs)
	}
	cp := make([]float64, len(xs))
	copy(cp, xs)
	return &KDE{xs: cp, h: bandwidth}, nil
}

// PDF evaluates the density estimate at x.
func (k *KDE) PDF(x float64) float64 {
	const invSqrt2Pi = 0.3989422804014327
	var sum float64
	for _, xi := range k.xs {
		u := (x - xi) / k.h
		sum += math.Exp(-0.5*u*u) * invSqrt2Pi
	}
	return sum / (float64(len(k.xs)) * k.h)
}

// Curve evaluates the density at `points` evenly spaced positions across
// [lo, hi] and returns the positions and densities. It is the series a
// caller plots to regenerate Figure 2.
func (k *KDE) Curve(lo, hi float64, points int) (xs, ys []float64, err error) {
	if points < 2 {
		return nil, nil, errors.New("stats: KDE curve needs >= 2 points")
	}
	if hi <= lo {
		return nil, nil, errors.New("stats: KDE curve needs hi > lo")
	}
	xs = make([]float64, points)
	ys = make([]float64, points)
	step := (hi - lo) / float64(points-1)
	for i := 0; i < points; i++ {
		x := lo + float64(i)*step
		xs[i] = x
		ys[i] = k.PDF(x)
	}
	return xs, ys, nil
}
