package stats

import (
	"math"
	"testing"
)

func TestChiSquareMatchingCounts(t *testing.T) {
	stat, p, err := ChiSquare([]int{10, 10, 10}, []float64{10, 10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if stat != 0 {
		t.Errorf("stat = %v, want 0", stat)
	}
	if p < 0.999 {
		t.Errorf("p = %v, want ~1", p)
	}
}

func TestChiSquareKnownValue(t *testing.T) {
	// Observed {12, 8} vs expected {10, 10}: stat = 4/10 + 4/10 = 0.8,
	// df=1: p = P(chi2_1 > 0.8) ~ 0.3711.
	stat, p, err := ChiSquare([]int{12, 8}, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(stat, 0.8, 1e-12) {
		t.Errorf("stat = %v, want 0.8", stat)
	}
	if !almostEqual(p, 0.3711, 5e-4) {
		t.Errorf("p = %v, want ~0.3711", p)
	}
}

func TestChiSquareErrors(t *testing.T) {
	if _, _, err := ChiSquare([]int{1}, []float64{1, 2}); err != ErrMismatch {
		t.Errorf("mismatch error = %v", err)
	}
	if _, _, err := ChiSquare([]int{1}, []float64{1}); err != ErrEmpty {
		t.Errorf("single-cell error = %v", err)
	}
	if _, _, err := ChiSquare([]int{1, 2}, []float64{1, 0}); err == nil {
		t.Error("expected error for non-positive expected count")
	}
}

func TestChiSquareUniform(t *testing.T) {
	// Strongly non-uniform counts must give a tiny p-value.
	_, p, err := ChiSquareUniform([]int{100, 5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-10 {
		t.Errorf("p = %v, want ~0 for wildly non-uniform counts", p)
	}
	// Perfectly uniform counts give p ~ 1.
	_, p, err = ChiSquareUniform([]int{20, 20, 20, 20})
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.999 {
		t.Errorf("p = %v, want ~1 for uniform counts", p)
	}
	if _, _, err := ChiSquareUniform([]int{0, 0}); err != ErrEmpty {
		t.Errorf("all-zero error = %v", err)
	}
}

func TestChiSquareSurvivalKnownValues(t *testing.T) {
	tests := []struct {
		x, df, want float64
	}{
		{3.841, 1, 0.05},   // 95th percentile of chi2_1
		{5.991, 2, 0.05},   // 95th percentile of chi2_2
		{18.307, 10, 0.05}, // 95th percentile of chi2_10
		{0, 5, 1},
	}
	for _, tt := range tests {
		if got := ChiSquareSurvival(tt.x, tt.df); !almostEqual(got, tt.want, 2e-3) {
			t.Errorf("ChiSquareSurvival(%v, %v) = %v, want %v", tt.x, tt.df, got, tt.want)
		}
	}
}

func TestRegularizedGamma(t *testing.T) {
	// Q(1, x) = exp(-x).
	for _, x := range []float64{0.1, 0.5, 1, 2, 5, 10} {
		want := math.Exp(-x)
		if got := RegularizedGammaQ(1, x); !almostEqual(got, want, 1e-10) {
			t.Errorf("Q(1, %v) = %v, want %v", x, got, want)
		}
	}
	// Edge cases.
	if RegularizedGammaQ(1, 0) != 1 {
		t.Error("x=0 edge case wrong")
	}
	if !math.IsNaN(RegularizedGammaQ(-1, 1)) || !math.IsNaN(RegularizedGammaQ(1, -1)) {
		t.Error("invalid arguments should give NaN")
	}
	// Half-integer check: Q(0.5, x) = erfc(sqrt(x)).
	for _, x := range []float64{0.25, 1, 4} {
		want := math.Erfc(math.Sqrt(x))
		if got := RegularizedGammaQ(0.5, x); !almostEqual(got, want, 1e-10) {
			t.Errorf("Q(0.5, %v) = %v, want %v", x, got, want)
		}
	}
}
