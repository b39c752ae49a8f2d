package stats

import (
	"math"
	"sort"
)

// KSOneSample returns the one-sample Kolmogorov-Smirnov statistic
// D = sup_x |F_n(x) - F(x)| between the empirical CDF of xs and the
// hypothesized CDF cdf. It is used by the distribution-fitting code to
// choose between exponential, Weibull, and log-normal TBF/TTR models.
//
// Edge cases: an empty sample returns ErrEmpty and a sample containing
// NaN returns ErrNaN (a NaN has no place in an empirical CDF). An
// all-ties sample is well-defined: the empirical CDF is a single step. A
// cdf that itself returns NaN propagates NaN into the statistic.
func KSOneSample(xs []float64, cdf func(float64) float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if hasNaN(xs) {
		return math.NaN(), ErrNaN
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := float64(len(sorted))
	var d float64
	for i, x := range sorted {
		f := cdf(x)
		// The empirical CDF jumps from i/n to (i+1)/n at x; the supremum
		// deviation occurs at one of the two sides of the jump.
		lo := math.Abs(f - float64(i)/n)
		hi := math.Abs(float64(i+1)/n - f)
		d = math.Max(d, math.Max(lo, hi))
	}
	return d, nil
}

// KSTwoSample returns the two-sample Kolmogorov-Smirnov statistic between
// xs and ys. The paper's observation that the TTR distribution shape is
// "very similar" across Tsubame-2 and Tsubame-3 (Figure 9) is quantified
// with this statistic in our reproduction.
//
// An empty sample on either side returns ErrEmpty; NaN on either side
// returns ErrNaN. All-ties samples are well-defined (D is 0 when the two
// constants agree, 1 when they differ).
func KSTwoSample(xs, ys []float64) (float64, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return 0, ErrEmpty
	}
	if hasNaN(xs) || hasNaN(ys) {
		return math.NaN(), ErrNaN
	}
	a := append([]float64(nil), xs...)
	b := append([]float64(nil), ys...)
	sort.Float64s(a)
	sort.Float64s(b)
	na, nb := float64(len(a)), float64(len(b))
	var i, j int
	var d float64
	for i < len(a) && j < len(b) {
		x := math.Min(a[i], b[j])
		for i < len(a) && a[i] <= x {
			i++
		}
		for j < len(b) && b[j] <= x {
			j++
		}
		d = math.Max(d, math.Abs(float64(i)/na-float64(j)/nb))
	}
	return d, nil
}

// KSTest runs the one-sample Kolmogorov-Smirnov test of xs against the
// hypothesized CDF: the statistic of KSOneSample plus its asymptotic
// p-value. It is the entry point the conformance harness uses to compare
// synthetic TBF/TTR samples against the calibrated families; errors
// follow KSOneSample (ErrEmpty, ErrNaN).
func KSTest(xs []float64, cdf func(float64) float64) (d, p float64, err error) {
	d, err = KSOneSample(xs, cdf)
	if err != nil {
		return d, math.NaN(), err
	}
	return d, KSPValue(d, float64(len(xs))), nil
}

// KSPValue returns the asymptotic p-value for a (one- or two-sample) KS
// statistic d with effective sample size n, using the Kolmogorov limiting
// distribution Q(lambda) = 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lambda^2)
// with the Stephens small-sample correction. For two samples use
// n = na*nb/(na+nb). A NaN statistic or size yields a NaN p-value.
func KSPValue(d float64, n float64) float64 {
	if math.IsNaN(d) || math.IsNaN(n) {
		return math.NaN()
	}
	if n <= 0 || d <= 0 {
		return 1
	}
	sqrtN := math.Sqrt(n)
	lambda := (sqrtN + 0.12 + 0.11/sqrtN) * d
	var p float64
	if lambda < 1.18 {
		// The alternating series converges too slowly for small lambda;
		// use the theta-function dual form of the Kolmogorov distribution.
		z := math.Pi * math.Pi / (8 * lambda * lambda)
		var cdf float64
		for k := 1; k <= 100; k += 2 {
			term := math.Exp(-float64(k*k) * z)
			cdf += term
			if term < 1e-16 {
				break
			}
		}
		cdf *= math.Sqrt(2*math.Pi) / lambda
		p = 1 - cdf
	} else {
		var sum float64
		sign := 1.0
		for k := 1; k <= 100; k++ {
			term := sign * math.Exp(-2*lambda*lambda*float64(k*k))
			sum += term
			if math.Abs(term) < 1e-12 {
				break
			}
			sign = -sign
		}
		p = 2 * sum
	}
	switch {
	case p < 0:
		return 0
	case p > 1:
		return 1
	default:
		return p
	}
}
