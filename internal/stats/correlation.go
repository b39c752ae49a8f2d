package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Pearson returns the Pearson product-moment correlation coefficient of the
// paired samples xs and ys. It returns ErrMismatch when the lengths differ
// and ErrEmpty when fewer than two pairs are supplied. A sample with zero
// variance yields NaN.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrMismatch
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN(), nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Spearman returns Spearman's rank correlation coefficient of the paired
// samples, with mid-ranks assigned to ties. The paper uses rank correlation
// to test whether monthly failure density predicts monthly recovery time
// (Figures 11 and 12): it does not. A NaN in either sample has no rank,
// so it returns ErrNaN.
func Spearman(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrMismatch
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	if slices.ContainsFunc(xs, math.IsNaN) || slices.ContainsFunc(ys, math.IsNaN) {
		return 0, fmt.Errorf("stats: spearman sample has a NaN: %w", ErrNaN)
	}
	return Pearson(Ranks(xs), Ranks(ys))
}

// Ranks returns the 1-based mid-ranks of xs: tied observations all receive
// the average of the ranks they span. NaNs rank first, each alone, since a
// NaN equals nothing; callers that need meaningful ranks reject NaN first,
// as Spearman does.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return cmp.Compare(xs[a], xs[b]) })

	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i + 1
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		// Observations idx[i..j) are tied over ranks i+1..j; assign the
		// mid-rank to each.
		mid := float64(i+1+j) / 2
		for k := i; k < j; k++ {
			ranks[idx[k]] = mid
		}
		i = j
	}
	return ranks
}

// AutoCorrelation returns the lag-k sample autocorrelation of xs. It is
// used to quantify temporal clustering of multi-GPU failures (Figure 8).
// NaN is returned when the series is too short or has zero variance.
func AutoCorrelation(xs []float64, lag int) float64 {
	n := len(xs)
	if lag < 0 || lag >= n || n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < n; i++ {
		d := xs[i] - m
		den += d * d
	}
	if den == 0 {
		return math.NaN()
	}
	for i := 0; i+lag < n; i++ {
		num += (xs[i] - m) * (xs[i+lag] - m)
	}
	return num / den
}
