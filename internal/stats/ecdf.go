package stats

import (
	"errors"
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a
// sample. It backs the cumulative TBF/TTR plots (Figures 6 and 9 of the
// paper). The zero value is unusable; construct with NewECDFSorted.
type ECDF struct {
	sorted []float64
}

// ErrUnsorted is returned by sorted-path constructors handed a sample
// that is not in ascending order.
var ErrUnsorted = errors.New("stats: sample not sorted ascending")

// NewECDFSorted builds an ECDF directly over an already-sorted sample
// WITHOUT copying: the ECDF aliases the given slice, so the caller must
// never mutate it afterwards. This is the zero-copy entry point for the
// analysis index's sorted arenas, where one sort is shared between the
// ECDF, quantile, and distribution-fitting consumers. It returns
// ErrEmpty for an empty sample and ErrUnsorted when the input is out of
// order (an O(n) check, far cheaper than the sort it replaces).
func NewECDFSorted(sorted []float64) (*ECDF, error) {
	if len(sorted) == 0 {
		return nil, ErrEmpty
	}
	if !sort.Float64sAreSorted(sorted) {
		return nil, ErrUnsorted
	}
	return &ECDF{sorted: sorted}, nil
}

// N returns the sample size.
func (e *ECDF) N() int { return len(e.sorted) }

// Eval returns F(x) = P(X <= x), the fraction of the sample at or below x.
func (e *ECDF) Eval(x float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= x, so
	// scan forward over ties to include every element equal to x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// Quantile returns the p-quantile of the underlying sample using the same
// type-7 interpolation as stats.Quantile. NaN for p outside [0,1].
func (e *ECDF) Quantile(p float64) float64 {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return math.NaN()
	}
	return quantileSorted(e.sorted, p)
}

// Mean returns the sample mean.
func (e *ECDF) Mean() float64 { return Mean(e.sorted) }

// Min returns the smallest observation.
func (e *ECDF) Min() float64 { return e.sorted[0] }

// Max returns the largest observation.
func (e *ECDF) Max() float64 { return e.sorted[len(e.sorted)-1] }

// Point is one (x, F(x)) coordinate of a CDF curve.
type Point struct {
	X float64
	F float64
}

// Points returns n evenly spaced points of the CDF between the sample
// minimum and maximum, suitable for plotting. n < 2 yields the two
// endpoints.
func (e *ECDF) Points(n int) []Point {
	if n < 2 {
		n = 2
	}
	lo, hi := e.Min(), e.Max()
	pts := make([]Point, n)
	for i := 0; i < n; i++ {
		x := lo + (hi-lo)*float64(i)/float64(n-1)
		pts[i] = Point{X: x, F: e.Eval(x)}
	}
	return pts
}

// StepPoints returns the exact step coordinates of the ECDF: one point per
// distinct observation, with F equal to the cumulative fraction at that
// observation.
func (e *ECDF) StepPoints() []Point {
	pts := make([]Point, 0, len(e.sorted))
	n := float64(len(e.sorted))
	for i := 0; i < len(e.sorted); {
		j := i
		for j < len(e.sorted) && e.sorted[j] == e.sorted[i] {
			j++
		}
		pts = append(pts, Point{X: e.sorted[i], F: float64(j) / n})
		i = j
	}
	return pts
}
