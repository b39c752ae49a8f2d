package stats

import (
	"errors"
	"math"
	"testing"
	"time"
)

// The conformance harness (internal/conform) feeds KS and chi-square with
// machine-derived samples; these tables pin the contract it relies on for
// degenerate inputs: empty samples and length mismatches return sentinel
// errors, NaN inputs return ErrNaN (or a NaN statistic where the API is
// value-returning), and all-ties samples stay well-defined.

func TestKSOneSampleEdgeCases(t *testing.T) {
	stdCDF := func(x float64) float64 { return 0.5 * (1 + math.Erf(x/math.Sqrt2)) }
	tests := []struct {
		name    string
		xs      []float64
		cdf     func(float64) float64
		wantErr error
		wantD   func(d float64) bool
	}{
		{"empty", nil, stdCDF, ErrEmpty, nil},
		{"nan input", []float64{1, math.NaN(), 3}, stdCDF, ErrNaN, math.IsNaN},
		{"all nan", []float64{math.NaN(), math.NaN()}, stdCDF, ErrNaN, math.IsNaN},
		{"all ties", []float64{2, 2, 2, 2}, stdCDF, nil, func(d float64) bool {
			// Empirical CDF is one step at 2; D = max(F(2), 1-F(2)).
			f := stdCDF(2.0)
			want := math.Max(f, 1-f)
			return math.Abs(d-want) < 1e-12
		}},
		{"nan cdf propagates", []float64{1, 2, 3}, func(float64) float64 { return math.NaN() }, nil, math.IsNaN},
		{"single value", []float64{0}, stdCDF, nil, func(d float64) bool { return d == 0.5 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, err := KSOneSample(tt.xs, tt.cdf)
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
			if tt.wantD != nil && !tt.wantD(d) {
				t.Errorf("d = %v fails the case's predicate", d)
			}
		})
	}
}

func TestKSTwoSampleEdgeCases(t *testing.T) {
	tests := []struct {
		name    string
		xs, ys  []float64
		wantErr error
		wantD   float64 // compared when wantErr is nil
	}{
		{"empty left", nil, []float64{1}, ErrEmpty, 0},
		{"empty right", []float64{1}, nil, ErrEmpty, 0},
		{"nan left", []float64{math.NaN()}, []float64{1, 2}, ErrNaN, 0},
		{"nan right", []float64{1, 2}, []float64{2, math.NaN()}, ErrNaN, 0},
		{"all ties equal", []float64{3, 3, 3}, []float64{3, 3}, nil, 0},
		{"all ties disjoint", []float64{1, 1}, []float64{2, 2, 2}, nil, 1},
		{"identical samples", []float64{1, 2, 3}, []float64{1, 2, 3}, nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			d, err := KSTwoSample(tt.xs, tt.ys)
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
			if tt.wantErr != nil {
				if !math.IsNaN(d) && errors.Is(tt.wantErr, ErrNaN) {
					t.Errorf("NaN input should yield NaN statistic, got %v", d)
				}
				return
			}
			if math.Abs(d-tt.wantD) > 1e-12 {
				t.Errorf("d = %v, want %v", d, tt.wantD)
			}
		})
	}
}

func TestKSTestConvenience(t *testing.T) {
	uniform := func(x float64) float64 {
		switch {
		case x < 0:
			return 0
		case x > 1:
			return 1
		default:
			return x
		}
	}
	// A perfectly spread sample: small statistic, large p-value.
	xs := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	d, p, err := KSTest(xs, uniform)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.1) > 1e-12 {
		t.Errorf("d = %v, want 0.1", d)
	}
	if p < 0.99 {
		t.Errorf("p = %v, want ~1 for a conforming sample", p)
	}
	// A sample concentrated at one end: decisive rejection.
	lo := []float64{0.01, 0.02, 0.03, 0.01, 0.02, 0.01, 0.02, 0.03, 0.01, 0.02,
		0.01, 0.02, 0.03, 0.01, 0.02, 0.01, 0.02, 0.03, 0.01, 0.02}
	if _, p, err = KSTest(lo, uniform); err != nil || p > 0.001 {
		t.Errorf("concentrated sample: p = %v, err = %v, want tiny p", p, err)
	}
	// Error propagation carries a NaN p-value.
	if _, p, err = KSTest([]float64{math.NaN()}, uniform); !errors.Is(err, ErrNaN) || !math.IsNaN(p) {
		t.Errorf("NaN sample: p = %v, err = %v, want ErrNaN and NaN p", p, err)
	}
	if _, p, err = KSTest(nil, uniform); !errors.Is(err, ErrEmpty) || !math.IsNaN(p) {
		t.Errorf("empty sample: p = %v, err = %v, want ErrEmpty and NaN p", p, err)
	}
}

func TestKSTestTwoSampleConvenience(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := []float64{1.1, 2.1, 3.1, 4.1, 5.1, 6.1, 7.1, 8.1}
	d, p, err := KSTestTwoSample(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || d > 0.2 {
		t.Errorf("d = %v, want a small positive shift", d)
	}
	if p < 0.9 {
		t.Errorf("p = %v, want ~1 for nearly identical samples", p)
	}
	if _, p, err = KSTestTwoSample(xs, []float64{math.NaN()}); !errors.Is(err, ErrNaN) || !math.IsNaN(p) {
		t.Errorf("NaN sample: p = %v, err = %v, want ErrNaN and NaN p", p, err)
	}
}

func TestKSPValueNaNPropagation(t *testing.T) {
	if p := KSPValue(math.NaN(), 10); !math.IsNaN(p) {
		t.Errorf("KSPValue(NaN, 10) = %v, want NaN", p)
	}
	if p := KSPValue(0.1, math.NaN()); !math.IsNaN(p) {
		t.Errorf("KSPValue(0.1, NaN) = %v, want NaN", p)
	}
	if p := KSPValue(0, 10); p != 1 {
		t.Errorf("KSPValue(0, 10) = %v, want 1", p)
	}
}

func TestChiSquareEdgeCases(t *testing.T) {
	tests := []struct {
		name     string
		observed []int
		expected []float64
		wantErr  error // nil means "any non-nil error acceptable" when wantAnyErr
		wantAny  bool
	}{
		{"mismatch", []int{1, 2}, []float64{1}, ErrMismatch, false},
		{"too few cells", []int{5}, []float64{5}, ErrEmpty, false},
		{"nan expected", []int{1, 2}, []float64{1, math.NaN()}, ErrNaN, false},
		{"zero expected", []int{1, 2}, []float64{1, 0}, nil, true},
		{"negative expected", []int{1, 2}, []float64{1, -3}, nil, true},
		{"inf expected", []int{1, 2}, []float64{1, math.Inf(1)}, nil, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, _, err := ChiSquare(tt.observed, tt.expected)
			if tt.wantAny {
				if err == nil {
					t.Fatal("want an error")
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
	// A valid call still works after the stricter validation.
	stat, p, err := ChiSquare([]int{10, 10}, []float64{10, 10})
	if err != nil || stat != 0 || p != 1 {
		t.Errorf("exact fit: stat=%v p=%v err=%v, want 0, 1, nil", stat, p, err)
	}
}

func TestChiSquareSurvivalNaN(t *testing.T) {
	if s := ChiSquareSurvival(math.NaN(), 3); !math.IsNaN(s) {
		t.Errorf("ChiSquareSurvival(NaN, 3) = %v, want NaN", s)
	}
	if s := ChiSquareSurvival(2, math.NaN()); !math.IsNaN(s) {
		t.Errorf("ChiSquareSurvival(2, NaN) = %v, want NaN", s)
	}
}

// returnsWithin fails the test instead of hanging it when f loops: the
// rank tie loops once never advanced past a NaN.
func returnsWithin(t *testing.T, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("call did not return within 10s")
	}
}

func TestMannWhitneyEdgeCases(t *testing.T) {
	nan := math.NaN()
	tests := []struct {
		name    string
		xs, ys  []float64
		wantErr error
		wantP   float64 // compared when wantErr is nil
	}{
		{"empty left", nil, []float64{1}, ErrEmpty, 0},
		{"empty right", []float64{1}, nil, ErrEmpty, 0},
		{"nan left", []float64{1, nan}, []float64{2, 3}, ErrNaN, 0},
		{"nan right", []float64{1, 2}, []float64{3, nan}, ErrNaN, 0},
		{"all nan", []float64{nan}, []float64{nan, nan}, ErrNaN, 0},
		{"all ties", []float64{4, 4}, []float64{4, 4, 4}, nil, 1},
		{"single each, equal", []float64{2}, []float64{2}, nil, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var res MannWhitneyResult
			var err error
			returnsWithin(t, func() { res, err = MannWhitney(tt.xs, tt.ys) })
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
			if tt.wantErr == nil && res.P != tt.wantP {
				t.Errorf("P = %v, want %v", res.P, tt.wantP)
			}
		})
	}
}

func TestSpearmanEdgeCases(t *testing.T) {
	nan := math.NaN()
	tests := []struct {
		name    string
		xs, ys  []float64
		wantErr error
	}{
		{"mismatch", []float64{1, 2}, []float64{1}, ErrMismatch},
		{"one pair", []float64{1}, []float64{1}, ErrEmpty},
		{"nan left", []float64{1, nan, 3}, []float64{1, 2, 3}, ErrNaN},
		{"nan right", []float64{1, 2, 3}, []float64{3, 2, nan}, ErrNaN},
		{"all nan", []float64{nan, nan}, []float64{nan, nan}, ErrNaN},
		{"ties", []float64{1, 1, 2}, []float64{3, 3, 4}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var err error
			returnsWithin(t, func() { _, err = Spearman(tt.xs, tt.ys) })
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("err = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

// TestRanksNaN pins that Ranks returns on NaN input: NaNs rank first,
// each alone, and the finite ties after them still share a mid-rank.
func TestRanksNaN(t *testing.T) {
	var got []float64
	returnsWithin(t, func() { got = Ranks([]float64{math.NaN(), 1, 1, math.NaN(), 0}) })
	if got[1] != 4.5 || got[2] != 4.5 || got[4] != 3 {
		t.Fatalf("Ranks = %v, want finite ranks 3, 4.5, 4.5", got)
	}
	if nanRanks := got[0] + got[3]; nanRanks != 3 || got[0] == got[3] {
		t.Errorf("NaN ranks %v and %v, want 1 and 2", got[0], got[3])
	}
}
