package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// Truncated clips a base distribution to [0, Hi] by resampling (rejection).
// The TTR samplers use it to keep synthetic repairs inside the documented
// maxima (for example ~290 h for Tsubame-2 SSD repairs).
type Truncated struct {
	Base Distribution
	Hi   float64
}

// NewTruncated wraps base, clipping to hi. hi must be positive and must
// retain at least 1% of the base mass so rejection sampling terminates
// quickly.
func NewTruncated(base Distribution, hi float64) (Truncated, error) {
	if base == nil {
		return Truncated{}, fmt.Errorf("dist: truncated needs a base distribution")
	}
	if !(hi > 0) {
		return Truncated{}, fmt.Errorf("dist: truncation bound must be positive, got %v", hi)
	}
	if base.CDF(hi) < 0.01 {
		return Truncated{}, fmt.Errorf("dist: truncation at %v keeps only %.2g%% of %v", hi, 100*base.CDF(hi), base)
	}
	return Truncated{Base: base, Hi: hi}, nil
}

// Sample rejection-samples the base until a variate lands in [0, Hi].
func (t Truncated) Sample(rng *rand.Rand) float64 {
	for {
		x := t.Base.Sample(rng)
		if x <= t.Hi {
			return x
		}
	}
}

// Mean estimates the truncated mean by numerical integration of the
// quantile function over the retained mass.
func (t Truncated) Mean() float64 {
	mass := t.Base.CDF(t.Hi)
	const steps = 2000
	var sum float64
	for i := 0; i < steps; i++ {
		p := mass * (float64(i) + 0.5) / steps
		sum += t.Base.Quantile(p)
	}
	return sum / steps
}

// Var estimates the truncated variance numerically.
func (t Truncated) Var() float64 {
	mass := t.Base.CDF(t.Hi)
	mean := t.Mean()
	const steps = 2000
	var sum float64
	for i := 0; i < steps; i++ {
		p := mass * (float64(i) + 0.5) / steps
		d := t.Base.Quantile(p) - mean
		sum += d * d
	}
	return sum / steps
}

// CDF renormalizes the base CDF over [0, Hi].
func (t Truncated) CDF(x float64) float64 {
	if x >= t.Hi {
		return 1
	}
	return t.Base.CDF(x) / t.Base.CDF(t.Hi)
}

// Quantile inverts the renormalized CDF.
func (t Truncated) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	return t.Base.Quantile(p * t.Base.CDF(t.Hi))
}

// String implements fmt.Stringer.
func (t Truncated) String() string {
	return fmt.Sprintf("Truncated(%s, hi=%.4g)", t.Base, t.Hi)
}
