// Package stats provides the descriptive-statistics substrate used by the
// failure-log analyses: moments, quantiles, boxplot summaries, empirical
// CDFs, histograms, bootstrap confidence intervals, rank correlation,
// goodness-of-fit statistics, and Kaplan-Meier survival estimation.
//
// All functions operate on plain []float64 samples, never mutate their
// inputs (except SortFloat64s, which sorts in place), and are safe for
// concurrent use. Functions that require data return an error (or NaN
// where documented) on empty input rather than panicking.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by statistics that are undefined on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// ErrMismatch is returned by bivariate statistics when the two samples have
// different lengths.
var ErrMismatch = errors.New("stats: sample length mismatch")

// ErrNaN is returned by hypothesis tests whose result would be meaningless
// on samples containing NaN. Descriptive statistics propagate NaN through
// their return value instead (the PR-2 NaN-propagation policy); tests that
// culminate in a pass/fail verdict fail loudly rather than emitting a NaN
// p-value that every comparison silently treats as "not significant".
var ErrNaN = errors.New("stats: sample contains NaN")

// Sum returns the sum of xs. The sum of an empty sample is 0.
func Sum(xs []float64) float64 {
	// Kahan summation keeps the long monthly aggregations stable.
	var sum, comp float64
	for _, x := range xs {
		y := x - comp
		t := sum + y
		comp = (t - sum) - y
		sum = t
	}
	return sum
}

// Mean returns the arithmetic mean of xs, or NaN if xs is empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance of xs.
// It returns NaN for samples with fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the unbiased sample standard deviation of xs.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the smallest element of xs, or NaN if xs is empty.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest element of xs, or NaN if xs is empty.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the sample median, or NaN if xs is empty.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
}

// hasNaN reports whether xs contains a NaN. sort.Float64s places NaNs
// first, so quantiles of a NaN-containing sample would interpolate
// against garbage order statistics — every quantile function must check
// this before sorting.
func hasNaN(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return true
		}
	}
	return false
}

// Quantile returns the p-quantile (0 <= p <= 1) of xs using linear
// interpolation between order statistics (the R type-7 definition, which is
// also the numpy default). It returns NaN if xs is empty, contains NaN, or
// p is outside [0, 1]. NaN elements poison the result rather than being
// sorted to one end and silently shifting every order statistic.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 || p < 0 || p > 1 || math.IsNaN(p) || hasNaN(xs) {
		return math.NaN()
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantileSorted(sorted, p)
}

// quantileSorted computes the type-7 quantile of an already-sorted sample.
func quantileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := p * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// QuantilesSorted returns the quantiles of an already-sorted, ascending
// sample at each probability in ps: no copy and no sort, so the only
// allocation is the output slice. Invalid probabilities yield NaN
// entries. The
// single-sort contract of the analysis hot path (docs/PERFORMANCE.md)
// rests on this entry point: sort once — or take the index's sorted
// arena — then read every percentile from the same order statistics.
// A sample that is empty or contains NaN yields all-NaN output.
func QuantilesSorted(sorted []float64, ps []float64) []float64 {
	out := make([]float64, len(ps))
	if len(sorted) == 0 || hasNaN(sorted) {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	return quantilesInto(out, sorted, ps)
}

// quantilesInto fills out[i] with the ps[i]-quantile of the sorted sample.
func quantilesInto(out, sorted []float64, ps []float64) []float64 {
	for i, p := range ps {
		if p < 0 || p > 1 || math.IsNaN(p) {
			out[i] = math.NaN()
			continue
		}
		out[i] = quantileSorted(sorted, p)
	}
	return out
}

// Summary is a five-number summary augmented with the moments used by the
// per-category TBF/TTR boxplot figures (Figures 7 and 10 of the paper).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// IQR returns the interquartile range Q3-Q1, the paper's "spread".
func (s Summary) IQR() float64 { return s.Q3 - s.Q1 }

// WhiskerLow returns the Tukey lower whisker: the smallest observation
// within 1.5 IQR below Q1 is not tracked per-observation here, so this is
// the conventional max(Min, Q1-1.5*IQR) bound.
func (s Summary) WhiskerLow() float64 { return math.Max(s.Min, s.Q1-1.5*s.IQR()) }

// WhiskerHigh returns the Tukey upper whisker bound min(Max, Q3+1.5*IQR).
func (s Summary) WhiskerHigh() float64 { return math.Min(s.Max, s.Q3+1.5*s.IQR()) }

// SummarizeSorted computes the Summary of an already-sorted, ascending
// sample: zero allocations and zero sorts, for callers that hold a sorted
// arena (the per-Run analysis index). It returns ErrEmpty if the sample
// is empty. A sample containing NaN yields a Summary with N set and
// every statistic NaN: the order statistics of such a sample are
// undefined, and returning NaN keeps the poison visible instead of
// reporting a quietly shifted five-number summary.
func SummarizeSorted(sorted []float64) (Summary, error) {
	if len(sorted) == 0 {
		return Summary{}, ErrEmpty
	}
	if hasNaN(sorted) {
		return nanSummary(len(sorted)), nil
	}
	return summarizeSorted(sorted), nil
}

// nanSummary is the poisoned Summary of a NaN-containing sample of size n.
func nanSummary(n int) Summary {
	nan := math.NaN()
	return Summary{
		N: n, Mean: nan, StdDev: nan,
		Min: nan, Q1: nan, Median: nan, Q3: nan, Max: nan,
	}
}

// summarizeSorted computes the Summary of a sorted, NaN-free sample; the
// moments are computed over the sorted order.
func summarizeSorted(sorted []float64) Summary {
	s := Summary{
		N:      len(sorted),
		Mean:   Mean(sorted),
		Min:    sorted[0],
		Q1:     quantileSorted(sorted, 0.25),
		Median: quantileSorted(sorted, 0.5),
		Q3:     quantileSorted(sorted, 0.75),
		Max:    sorted[len(sorted)-1],
	}
	if len(sorted) > 1 {
		s.StdDev = StdDev(sorted)
	}
	return s
}

// GeometricMean returns the geometric mean of xs. All elements must be
// positive; otherwise NaN is returned.
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// CoefficientOfVariation returns StdDev/Mean, a scale-free dispersion
// measure used when comparing TTR spread across failure categories.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 || math.IsNaN(m) {
		return math.NaN()
	}
	return StdDev(xs) / m
}
