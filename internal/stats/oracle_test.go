package stats

import (
	"math"
	"sort"
)

// The unsorted-input entry points below were the package's convenience
// API; every program path now sorts once (or reads an index arena) and
// calls the Sorted variants. The tests keep them as oracles: each copies
// and sorts its input, so a test can compare a Sorted variant against the
// straightforward clone-and-sort path on the same sample.

// Summarize computes a Summary of xs. It returns ErrEmpty if xs is empty.
// A sample containing NaN yields a Summary with N set and every statistic
// NaN: the order statistics of such a sample are undefined, and returning
// NaN keeps the poison visible instead of reporting a quietly shifted
// five-number summary.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	if hasNaN(xs) {
		return nanSummary(len(xs)), nil
	}
	// One clone, one sort: every order statistic and both moments read
	// the same sorted buffer (the AllocsPerRun regression test pins the
	// single-allocation budget).
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return summarizeSorted(sorted), nil
}

// Quantiles returns the quantiles of xs at each probability in ps, sorting
// the sample only once. Invalid probabilities yield NaN entries; a sample
// that is empty or contains NaN yields all-NaN output.
func Quantiles(xs []float64, ps []float64) []float64 {
	if len(xs) == 0 || hasNaN(xs) {
		out := make([]float64, len(ps))
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return quantilesInto(make([]float64, len(ps)), sorted, ps)
}

// NewECDF builds an ECDF from xs. It copies and sorts the sample, so the
// caller retains ownership of xs. It returns ErrEmpty for an empty sample.
func NewECDF(xs []float64) (*ECDF, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}, nil
}
