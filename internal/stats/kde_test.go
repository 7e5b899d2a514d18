package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestSilvermanBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	h := SilvermanBandwidth(xs)
	// For N(0,1) with n=1000, h ≈ 0.9 * 1 * 1000^-0.2 ≈ 0.226.
	if h < 0.15 || h > 0.3 {
		t.Fatalf("bandwidth %v outside plausible range for std normal", h)
	}
	if SilvermanBandwidth(nil) != 1 {
		t.Fatal("empty sample should fall back to bandwidth 1")
	}
	if SilvermanBandwidth([]float64{5, 5, 5}) != 1 {
		t.Fatal("constant sample should fall back to bandwidth 1")
	}
}

func TestKDEIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()*2 + 3
	}
	k, err := NewKDE(xs, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Trapezoid integration across a wide support.
	const lo, hi = -15.0, 21.0
	const n = 4000
	step := (hi - lo) / n
	var integral float64
	for i := 0; i <= n; i++ {
		w := step
		if i == 0 || i == n {
			w = step / 2
		}
		integral += k.PDF(lo+float64(i)*step) * w
	}
	if math.Abs(integral-1) > 0.01 {
		t.Fatalf("KDE integral = %v, want ~1", integral)
	}
}

func TestKDEPeaksNearMode(t *testing.T) {
	xs := []float64{4, 4, 4, 4, 4, 1, 9}
	k, err := NewKDE(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if k.PDF(4) <= k.PDF(1) || k.PDF(4) <= k.PDF(9) {
		t.Fatal("density should peak near the repeated value")
	}
	if k.h != 0.5 {
		t.Fatalf("bandwidth = %v", k.h)
	}
}

func TestKDEEmptyAndCurveErrors(t *testing.T) {
	if _, err := NewKDE(nil, 1); err != ErrEmpty {
		t.Fatalf("NewKDE(nil) err = %v", err)
	}
	k, _ := NewKDE([]float64{1, 2}, 1)
	if _, _, err := k.Curve(0, 10, 1); err == nil {
		t.Fatal("Curve with 1 point should error")
	}
	if _, _, err := k.Curve(5, 5, 10); err == nil {
		t.Fatal("Curve with hi <= lo should error")
	}
	xs, ys, err := k.Curve(0, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) != 4 || len(ys) != 4 {
		t.Fatalf("curve lengths %d/%d", len(xs), len(ys))
	}
	if xs[0] != 0 || xs[3] != 3 {
		t.Fatalf("curve endpoints %v", xs)
	}
}
