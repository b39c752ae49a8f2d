package dist

import "math"

// Test-side entry points. FitExponential and FitLogNormal fit one family
// on its own; the program fits every family at once through FitAll, and
// the tests use these to reach one family's fit directly. NumericHazard is
// the finite-difference oracle for the closed-form hazards.

// FitExponential returns the maximum-likelihood exponential fit (the sample
// mean). Non-positive observations are rejected.
func FitExponential(xs []float64) (Exponential, error) {
	s, err := newLogSample(xs, "fit")
	if err != nil {
		return Exponential{}, err
	}
	return s.fitExponential()
}

// FitLogNormal returns the maximum-likelihood log-normal fit: mu and sigma
// are the mean and standard deviation of the log observations.
func FitLogNormal(xs []float64) (LogNormal, error) {
	s, err := newLogSample(xs, "lognormal fit")
	if err != nil {
		return LogNormal{}, err
	}
	return s.fitLogNormal()
}

// NumericHazard estimates any distribution's hazard at x from its CDF by
// the finite difference h(x) ~ [S(x) - S(x+eps)] / (eps * S(x)).
func NumericHazard(d Distribution, x, eps float64) float64 {
	s0 := 1 - d.CDF(x)
	s1 := 1 - d.CDF(x+eps)
	if s0 <= 0 {
		return math.Inf(1)
	}
	return (s0 - s1) / (eps * s0)
}
