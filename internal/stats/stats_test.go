package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, name string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestMeanBasic(t *testing.T) {
	approx(t, Mean([]float64{1, 2, 3, 4}), 2.5, 1e-12, "Mean")
	approx(t, Mean([]float64{5}), 5, 1e-12, "Mean single")
	approx(t, Mean(nil), 0, 0, "Mean empty")
}

func TestMeanKahanStability(t *testing.T) {
	// 1e8 + many tiny values: naive summation loses the tail.
	xs := make([]float64, 1001)
	xs[0] = 1e8
	for i := 1; i <= 1000; i++ {
		xs[i] = 1e-3
	}
	want := (1e8 + 1.0) / 1001.0
	approx(t, Mean(xs), want, 1e-6, "Mean Kahan")
}

func TestMedianOddEven(t *testing.T) {
	approx(t, Median([]float64{3, 1, 2}), 2, 0, "Median odd")
	approx(t, Median([]float64{4, 1, 3, 2}), 2.5, 0, "Median even")
	approx(t, Median(nil), 0, 0, "Median empty")
}

func TestMedianDoesNotMutate(t *testing.T) {
	xs := []float64{9, 1, 5}
	Median(xs)
	if xs[0] != 9 || xs[1] != 1 || xs[2] != 5 {
		t.Fatalf("Median mutated input: %v", xs)
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	// Sample variance with n-1 = 32/7.
	approx(t, Variance(xs), 32.0/7.0, 1e-12, "Variance")
	approx(t, StdDev(xs), math.Sqrt(32.0/7.0), 1e-12, "StdDev")
	approx(t, Variance([]float64{1}), 0, 0, "Variance n=1")
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	q, err := Quantile(xs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, q, 3, 1e-12, "Quantile 0.5")
	q, _ = Quantile(xs, 0)
	approx(t, q, 1, 0, "Quantile 0")
	q, _ = Quantile(xs, 1)
	approx(t, q, 5, 0, "Quantile 1")
	q, _ = Quantile(xs, 0.25)
	approx(t, q, 2, 1e-12, "Quantile 0.25")
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatalf("Quantile(nil) err = %v", err)
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("Quantile(1.5) should error")
	}
}

func TestQuantileMatchesMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(40)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		q, err := Quantile(xs, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, q, Median(xs), 1e-9, "Quantile(0.5) vs Median")
	}
}

func TestMeanBoundsProperty(t *testing.T) {
	// Property: min <= mean <= max and min <= median <= max.
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		mn, mx := slices.Min(xs), slices.Max(xs)
		m := Mean(xs)
		md := Median(xs)
		return mn-1e-9 <= m && m <= mx+1e-9 && mn <= md && md <= mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarianceShiftInvariantProperty(t *testing.T) {
	// Property: Var(x + c) == Var(x).
	f := func(raw []int8, shift int8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v) + float64(shift)
		}
		return math.Abs(Variance(xs)-Variance(ys)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
