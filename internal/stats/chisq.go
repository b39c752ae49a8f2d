package stats

import (
	"fmt"
	"math"
)

// ChiSquare returns the chi-square goodness-of-fit statistic of observed
// counts against expected counts, plus the asymptotic p-value with
// len(observed)-1 degrees of freedom. The seasonal analysis uses it to test
// whether monthly failure counts (Figure 12) are uniform.
//
// Fewer than two cells returns ErrEmpty, a length mismatch ErrMismatch,
// and an expected cell that is NaN, infinite, or not strictly positive an
// explicit error — NaN previously slipped past the positivity check
// (NaN <= 0 is false) and silently poisoned the statistic.
func ChiSquare(observed []int, expected []float64) (stat, p float64, err error) {
	if len(observed) != len(expected) {
		return 0, 0, ErrMismatch
	}
	if len(observed) < 2 {
		return 0, 0, ErrEmpty
	}
	for i, e := range expected {
		if math.IsNaN(e) {
			return 0, 0, fmt.Errorf("stats: expected count %d is NaN: %w", i, ErrNaN)
		}
		if !(e > 0) || math.IsInf(e, 1) {
			return 0, 0, fmt.Errorf("stats: expected count %d is not a positive finite value (%v)", i, e)
		}
		d := float64(observed[i]) - e
		stat += d * d / e
	}
	df := float64(len(observed) - 1)
	return stat, ChiSquareSurvival(stat, df), nil
}

// ChiSquareUniform tests observed counts against a uniform expectation.
func ChiSquareUniform(observed []int) (stat, p float64, err error) {
	if len(observed) < 2 {
		return 0, 0, ErrEmpty
	}
	var total int
	for _, o := range observed {
		total += o
	}
	if total == 0 {
		return 0, 0, ErrEmpty
	}
	expected := make([]float64, len(observed))
	for i := range expected {
		expected[i] = float64(total) / float64(len(observed))
	}
	return ChiSquare(observed, expected)
}

// ChiSquareSurvival returns P(X > x) for a chi-square random variable with
// df degrees of freedom, i.e. the upper regularized incomplete gamma
// Q(df/2, x/2). NaN inputs propagate to a NaN survival probability.
func ChiSquareSurvival(x, df float64) float64 {
	if x <= 0 {
		return 1
	}
	return RegularizedGammaQ(df/2, x/2)
}

// RegularizedGammaQ returns the upper regularized incomplete gamma function
// Q(a, x) = Gamma(a, x)/Gamma(a) = 1 - P(a, x), computed from the series
// expansion of P for x < a+1 and by the continued fraction for larger x
// (Numerical Recipes 6.2). NaN is returned for a <= 0 or x < 0.
func RegularizedGammaQ(a, x float64) float64 {
	switch {
	case a <= 0 || x < 0 || math.IsNaN(a) || math.IsNaN(x):
		return math.NaN()
	case x == 0:
		return 1
	case x < a+1:
		return 1 - gammaPSeries(a, x)
	default:
		return gammaQContinuedFraction(a, x)
	}
}

const (
	gammaMaxIter = 500
	gammaEps     = 1e-14
)

func gammaPSeries(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	ap := a
	sum := 1 / a
	del := sum
	for i := 0; i < gammaMaxIter; i++ {
		ap++
		del *= x / ap
		sum += del
		if math.Abs(del) < math.Abs(sum)*gammaEps {
			break
		}
	}
	return sum * math.Exp(-x+a*math.Log(x)-lg)
}

func gammaQContinuedFraction(a, x float64) float64 {
	lg, _ := math.Lgamma(a)
	const tiny = 1e-300
	b := x + 1 - a
	c := 1 / tiny
	d := 1 / b
	h := d
	for i := 1; i <= gammaMaxIter; i++ {
		an := -float64(i) * (float64(i) - a)
		b += 2
		d = an*d + b
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = b + an/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < gammaEps {
			break
		}
	}
	return math.Exp(-x+a*math.Log(x)-lg) * h
}
