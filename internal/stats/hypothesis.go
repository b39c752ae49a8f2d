package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// MannWhitneyResult carries the two-sample rank-sum test outcome.
type MannWhitneyResult struct {
	// U is the Mann-Whitney U statistic of the first sample.
	U float64
	// Z is the normal approximation z-score (tie-corrected).
	Z float64
	// P is the two-sided asymptotic p-value.
	P float64
}

// MannWhitney performs the two-sided Mann-Whitney U test that the two
// samples come from the same distribution, using the normal approximation
// with tie correction (appropriate at the sample sizes of the per-category
// TTR comparisons). It returns ErrEmpty when either sample is empty and
// ErrNaN when either contains a NaN.
//
// One sort of the pooled sample, each value tagged with its side, yields
// both the first sample's mid-rank sum and the tie term; the O((n1+n2)
// log(n1+n2)) sort is the whole cost.
func MannWhitney(xs, ys []float64) (MannWhitneyResult, error) {
	if len(xs) == 0 || len(ys) == 0 {
		return MannWhitneyResult{}, ErrEmpty
	}
	type obs struct {
		v     float64
		first bool
	}
	pooled := make([]obs, 0, len(xs)+len(ys))
	for _, x := range xs {
		pooled = append(pooled, obs{x, true})
	}
	for _, y := range ys {
		pooled = append(pooled, obs{y, false})
	}
	slices.SortFunc(pooled, func(a, b obs) int { return cmp.Compare(a.v, b.v) })
	if math.IsNaN(pooled[0].v) { // cmp.Compare sorts NaNs first
		return MannWhitneyResult{}, fmt.Errorf("stats: mann-whitney sample has a NaN: %w", ErrNaN)
	}

	var r1, tieSum float64
	n := len(pooled)
	for i := 0; i < n; {
		j := i + 1
		for j < n && pooled[j].v == pooled[i].v {
			j++
		}
		// Observations i..j-1 are tied over ranks i+1..j: each takes the
		// mid-rank, exactly as Ranks assigns it.
		mid := float64(i+1+j) / 2
		for k := i; k < j; k++ {
			if pooled[k].first {
				r1 += mid
			}
		}
		tieSum += tieWeight(j - i)
		i = j
	}
	return MannWhitneyFromRankSum(r1, len(xs), len(ys), tieSum)
}

// TieSum returns the Mann-Whitney tie term Σ(t³ − t) over the runs of
// equal values in an ascending-sorted sample. It depends only on the
// pooled sample, so a caller testing many splits of one sample computes
// it once.
func TieSum(sorted []float64) float64 {
	var sum float64
	for i := 0; i < len(sorted); {
		j := i + 1
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		sum += tieWeight(j - i)
		i = j
	}
	return sum
}

// tieWeight is one tie run's contribution t³ − t to the tie term.
func tieWeight(t int) float64 {
	ft := float64(t)
	return ft*ft*ft - ft
}

// MannWhitneyFromRankSum finishes a Mann-Whitney test from its
// sufficient statistics: r1, the first sample's mid-rank sum within the
// pooled sample; the sample sizes n1 and n2; and the pooled sample's tie
// term (TieSum). Callers that already hold sorted arenas derive r1 by
// search instead of re-ranking. Rank sums are sums of half-integers and
// the tie term a sum of integers, so both are exact below 2^52 and the
// result does not depend on how they were accumulated.
func MannWhitneyFromRankSum(r1 float64, n1, n2 int, tieSum float64) (MannWhitneyResult, error) {
	if n1 < 1 || n2 < 1 {
		return MannWhitneyResult{}, ErrEmpty
	}
	fn1, fn2 := float64(n1), float64(n2)
	u1 := r1 - fn1*(fn1+1)/2
	nn := fn1 + fn2
	variance := fn1 * fn2 / 12 * ((nn + 1) - tieSum/(nn*(nn-1)))
	res := MannWhitneyResult{U: u1}
	if variance <= 0 {
		// All observations tied: no evidence of difference.
		res.P = 1
		return res, nil
	}
	mean := fn1 * fn2 / 2
	// Continuity correction toward the mean.
	diff := u1 - mean
	switch {
	case diff > 0.5:
		diff -= 0.5
	case diff < -0.5:
		diff += 0.5
	default:
		diff = 0
	}
	res.Z = diff / math.Sqrt(variance)
	res.P = 2 * normalSurvival(math.Abs(res.Z))
	if res.P > 1 {
		res.P = 1
	}
	return res, nil
}

// normalSurvival returns P(Z > z) for a standard normal.
func normalSurvival(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}

// KendallTau returns Kendall's tau-b rank correlation of the paired
// samples, with tie correction. It complements Spearman for the small
// monthly samples of the seasonal analysis.
func KendallTau(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, ErrMismatch
	}
	n := len(xs)
	if n < 2 {
		return 0, ErrEmpty
	}
	var concordant, discordant, tiesX, tiesY int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := xs[i] - xs[j]
			dy := ys[i] - ys[j]
			switch {
			case dx == 0 && dy == 0:
				tiesX++
				tiesY++
			case dx == 0:
				tiesX++
			case dy == 0:
				tiesY++
			case (dx > 0) == (dy > 0):
				concordant++
			default:
				discordant++
			}
		}
	}
	pairs := n * (n - 1) / 2
	den := math.Sqrt(float64(pairs-tiesX)) * math.Sqrt(float64(pairs-tiesY))
	if den == 0 {
		return math.NaN(), nil
	}
	return float64(concordant-discordant) / den, nil
}

// Gini returns the Gini coefficient of the non-negative values: 0 for a
// perfectly even distribution, approaching 1 as the mass concentrates on
// few holders. The spatial analyses use it to quantify how unevenly
// failures concentrate on nodes and racks.
func Gini(values []float64) (float64, error) {
	if len(values) == 0 {
		return 0, ErrEmpty
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var cumWeighted, total float64
	for i, v := range sorted {
		if v < 0 {
			return 0, ErrMismatch
		}
		cumWeighted += float64(i+1) * v
		total += v
	}
	if total == 0 {
		return 0, nil
	}
	n := float64(len(sorted))
	return (2*cumWeighted)/(n*total) - (n+1)/n, nil
}

// LorenzPoint is one point of a Lorenz curve: the poorest PopShare of
// holders own MassShare of the mass.
type LorenzPoint struct {
	PopShare  float64
	MassShare float64
}

// Lorenz returns the Lorenz curve of the non-negative values, one point
// per holder plus the origin.
func Lorenz(values []float64) ([]LorenzPoint, error) {
	if len(values) == 0 {
		return nil, ErrEmpty
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	var total float64
	for _, v := range sorted {
		if v < 0 {
			return nil, ErrMismatch
		}
		total += v
	}
	curve := make([]LorenzPoint, 0, len(sorted)+1)
	curve = append(curve, LorenzPoint{})
	var running float64
	n := float64(len(sorted))
	for i, v := range sorted {
		running += v
		mass := 0.0
		if total > 0 {
			mass = running / total
		}
		curve = append(curve, LorenzPoint{PopShare: float64(i+1) / n, MassShare: mass})
	}
	return curve, nil
}

// MannKendallResult is the non-parametric trend test outcome for a time
// series.
type MannKendallResult struct {
	// S is the Mann-Kendall statistic: sum of pairwise sign comparisons.
	S int
	// Z is the variance-normalized score (tie-corrected, with continuity
	// correction).
	Z float64
	// P is the two-sided asymptotic p-value; small values indicate a
	// monotone trend.
	P float64
}

// MannKendall tests a series for monotone trend. The rolling-MTBF
// analysis uses it to decide whether within-generation reliability drift
// is statistically real.
func MannKendall(series []float64) (MannKendallResult, error) {
	n := len(series)
	if n < 3 {
		return MannKendallResult{}, ErrEmpty
	}
	var s int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			switch {
			case series[j] > series[i]:
				s++
			case series[j] < series[i]:
				s--
			}
		}
	}
	// Tie-corrected variance.
	counts := make(map[float64]int, n)
	for _, x := range series {
		counts[x]++
	}
	nf := float64(n)
	variance := nf * (nf - 1) * (2*nf + 5) / 18
	for _, t := range counts {
		if t > 1 {
			tf := float64(t)
			variance -= tf * (tf - 1) * (2*tf + 5) / 18
		}
	}
	res := MannKendallResult{S: s}
	if variance <= 0 {
		res.P = 1
		return res, nil
	}
	switch {
	case s > 0:
		res.Z = (float64(s) - 1) / math.Sqrt(variance)
	case s < 0:
		res.Z = (float64(s) + 1) / math.Sqrt(variance)
	}
	res.P = 2 * normalSurvival(math.Abs(res.Z))
	if res.P > 1 {
		res.P = 1
	}
	return res, nil
}
