package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Exponential is the exponential distribution with the given Mean (hours).
// It is the memoryless baseline model for time-between-failures; the paper
// notes Tsubame-2's TBF distribution is close to exponential (mean 15 h,
// 75th percentile 20 h ~= 15*ln 4).
type Exponential struct {
	MeanVal float64
}

// NewExponential returns an exponential distribution with the given mean.
// It returns an error for non-positive means.
func NewExponential(mean float64) (Exponential, error) {
	if !(mean > 0) {
		return Exponential{}, fmt.Errorf("dist: exponential mean must be positive, got %v", mean)
	}
	return Exponential{MeanVal: mean}, nil
}

// Sample draws a variate.
func (e Exponential) Sample(rng *rand.Rand) float64 {
	return rng.ExpFloat64() * e.MeanVal
}

// Mean returns the mean.
func (e Exponential) Mean() float64 { return e.MeanVal }

// Var returns the variance mean^2.
func (e Exponential) Var() float64 { return e.MeanVal * e.MeanVal }

// CDF returns 1 - exp(-x/mean) for x >= 0.
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-x / e.MeanVal)
}

// Quantile returns -mean * ln(1-p).
func (e Exponential) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	if p == 1 {
		return math.Inf(1)
	}
	return -e.MeanVal * math.Log1p(-p)
}

// String implements fmt.Stringer.
func (e Exponential) String() string {
	return fmt.Sprintf("Exponential(mean=%.4g)", e.MeanVal)
}
