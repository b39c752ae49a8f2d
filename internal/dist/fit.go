package dist

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/stats"
)

// ErrInfiniteObservation is the error every fit wraps for a sample
// holding +Inf: the sample mean, the logs' moments and the Weibull shape
// equation are then all infinite or NaN, so no family has a fit.
var ErrInfiniteObservation = errors.New("dist: weibull shape is undefined for an infinite observation")

// logSample is a positive, finite sample with the log of every
// observation, taken once and shared by every family's fit.
type logSample struct {
	xs, logs      []float64
	mean, meanLog float64
}

// newLogSample checks that every observation is positive, naming the
// fit in its error, and finite, wrapping ErrInfiniteObservation; it
// takes the logs and both means in one pass, and a second for the mean
// only if the sum overflows. math.Log is not accurate for subnormal x on
// every platform (on amd64 it gives −709.09 for ln 5e-324 = −744.44),
// so their logs come from the Frexp split x = frac·2^exp as
// ln frac + exp·ln 2.
func newLogSample(xs []float64, fit string) (*logSample, error) {
	s := &logSample{xs: xs, logs: make([]float64, len(xs))}
	for i, x := range xs {
		if !(x > 0) {
			return nil, fmt.Errorf("dist: %s requires positive observations, got %v", fit, x)
		}
		if math.IsInf(x, 1) {
			return nil, fmt.Errorf("%w (n=%d)", ErrInfiniteObservation, len(xs))
		}
		l := math.Log(x)
		if x < 0x1p-1022 {
			frac, exp := math.Frexp(x)
			l = math.Log(frac) + float64(exp)*math.Ln2
		}
		s.logs[i] = l
		s.mean += x
		s.meanLog += l
	}
	if n := float64(len(xs)); n > 0 {
		s.mean /= n
		s.meanLog /= n
		if math.IsInf(s.mean, 1) { // the sum overflowed, but no x/n can
			s.mean = 0
			for _, x := range xs {
				s.mean += x / n
			}
		}
	}
	return s, nil
}

func (s *logSample) fitExponential() (Exponential, error) {
	if len(s.xs) == 0 {
		return Exponential{}, fmt.Errorf("dist: fit needs at least 1 observation")
	}
	return NewExponential(s.mean)
}

func (s *logSample) fitLogNormal() (LogNormal, error) {
	if len(s.xs) < 2 {
		return LogNormal{}, fmt.Errorf("dist: lognormal fit needs at least 2 observations, got %d", len(s.xs))
	}
	mu := s.meanLog
	var ss float64
	for _, l := range s.logs {
		d := l - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(len(s.logs)-1))
	if sigma == 0 {
		return LogNormal{}, fmt.Errorf("dist: lognormal fit is degenerate (all observations equal)")
	}
	return NewLogNormal(mu, sigma)
}

// FitWeibull returns the maximum-likelihood Weibull fit. The shape k is
// the root of the shape equation
//
//	g(k) = Σx^k·ln x / Σx^k − 1/k − mean(ln x) = 0,
//
// which is strictly increasing in k, found by a safeguarded Newton solve
// on logs shifted by their maximum, so that x^k can neither overflow nor
// underflow on the way. The scale is λ = (mean x^k)^(1/k), in the same
// shifted form. A sample of fewer than 2 observations, a non-positive
// one, or one whose equation has no root up to 1024 (all observations
// equal, or nearly so) fails to fit; a sample holding +Inf fails with an
// error wrapping ErrInfiniteObservation.
func FitWeibull(xs []float64) (Weibull, error) {
	s, err := newLogSample(xs, "weibull fit")
	if err != nil {
		return Weibull{}, err
	}
	return s.fitWeibull()
}

func (s *logSample) fitWeibull() (Weibull, error) {
	if len(s.xs) < 2 {
		return Weibull{}, fmt.Errorf("dist: weibull fit needs at least 2 observations, got %d", len(s.xs))
	}
	k, lambda := weibullMLE(s.logs, s.meanLog)
	if !(k <= weibullShapeMax) {
		return Weibull{}, fmt.Errorf("dist: weibull shape did not bracket within (0, %g]", float64(weibullShapeMax))
	}
	return NewWeibull(k, lambda)
}

// Fit pairs a fitted distribution with its goodness of fit.
type Fit struct {
	Name string
	Dist Distribution
	KS   float64 // Kolmogorov-Smirnov statistic against the sample
	// AIC is the Akaike information criterion 2k - 2 ln L (lower is
	// better); it complements KS when the families have different
	// parameter counts.
	AIC float64
}

// fitSortCount counts every sample sort the fitting path performs. The
// single-sort regression test reads it through export_test.go: FitAll on
// any sample must increment it exactly once.
var fitSortCount atomic.Int64

// FitAll fits the exponential, Weibull, and log-normal families to xs and
// returns the fits sorted by ascending KS statistic (best first). Families
// that fail to fit are omitted; an error is returned only when no family
// fits, and it wraps the cause when the sample itself is at fault (a
// non-positive observation, or +Inf: ErrInfiniteObservation).
//
// Each AIC is 2p − 2 ln L at the maximum-likelihood fit, where the
// log-likelihood has a closed form in the statistics the fits already
// take, with n observations:
//
//	exponential: ln L = −n(ln μ + 1), as Σx/μ = n;
//	Weibull:     ln L = n(ln k − ln λ + (k−1)(mean ln x − ln λ) − 1),
//	             as λ^k = mean x^k makes Σ(x/λ)^k = n;
//	log-normal:  ln L = n(−½ ln 2π − ln σ − mean ln x) − (n−1)/2,
//	             as σ² = SS/(n−1) makes Σ((ln x − μ)/σ)² = n − 1.
//
// Once a family has fitted, the sample is cloned and sorted exactly once,
// and every family's KS statistic reads the shared sorted buffer. A
// family fits only when every observation is positive and finite, so the
// sort never sees NaN, and stats.SortFloat64s orders it bit-identically
// to sort.Float64s.
func FitAll(xs []float64) ([]Fit, error) {
	s, err := newLogSample(xs, "fit")
	if err != nil {
		return nil, fmt.Errorf("dist: no distribution family fits the sample (n=%d): %w", len(xs), err)
	}
	n := float64(len(xs))
	var fits []Fit
	if e, err := s.fitExponential(); err == nil {
		ll := -n * (math.Log(e.MeanVal) + 1)
		fits = append(fits, Fit{Name: "exponential", Dist: e, AIC: 2 - 2*ll})
	}
	if w, err := s.fitWeibull(); err == nil {
		logL := math.Log(w.Lambda)
		ll := n * (math.Log(w.K) - logL + (w.K-1)*(s.meanLog-logL) - 1)
		fits = append(fits, Fit{Name: "weibull", Dist: w, AIC: 4 - 2*ll})
	}
	if l, err := s.fitLogNormal(); err == nil {
		ll := n*(-0.5*math.Log(2*math.Pi)-math.Log(l.Sigma)-s.meanLog) - (n-1)/2
		fits = append(fits, Fit{Name: "lognormal", Dist: l, AIC: 4 - 2*ll})
	}
	if len(fits) == 0 {
		return nil, fmt.Errorf("dist: no distribution family fits the sample (n=%d)", len(xs))
	}
	sorted := append([]float64(nil), xs...)
	stats.SortFloat64s(sorted)
	fitSortCount.Add(1)
	for i := range fits {
		fits[i].KS = ksStatisticSorted(sorted, fits[i].Dist.CDF)
	}
	sort.Slice(fits, func(i, j int) bool { return fits[i].KS < fits[j].KS })
	return fits, nil
}

// FitBest returns the family with the smallest KS statistic.
func FitBest(xs []float64) (Fit, error) {
	fits, err := FitAll(xs)
	if err != nil {
		return Fit{}, err
	}
	return fits[0], nil
}

// The certified KS search's coarse step and leaf size (ksStatisticSorted).
const (
	ksStep = 64
	ksLeaf = 8
	// ksMargin absorbs the CDFs' rounding: the fitted families' CDFs are
	// expm1/Pow/Erfc compositions accurate to a few ulps (~1e-16), so a
	// computed F may fall below a smaller x's by that much. 2^-30 leaves
	// six orders of magnitude to spare.
	ksMargin = 0x1p-30
)

// ksStatisticSorted computes the one-sample KS statistic
// max_i max(|F_i - i/n|, |(i+1)/n - F_i|) over a sample sorted as
// sort.Float64s sorts (NaNs first), returning the same float64 as
// ksScan, which evaluates the CDF at every order statistic. The fitting
// path sorts once and scores every family against the shared buffer;
// this function must never re-derive the order itself.
//
// It evaluates far fewer points. Between two evaluated order statistics
// a < b, F is monotone and float subtraction and division round
// monotonically, so every interior candidate is at most
// max(F_b - (a+1)/n, b/n - F_a). When that bound plus ksMargin is at most
// the d found so far, no interior point can raise d and the gap is
// skipped; otherwise it is split at its midpoint, or scanned once it is
// ksLeaf points or shorter. math.Max picks the same value in any order,
// so d has the same bits. A sample holding NaN or ±Inf, or a CDF that
// returns NaN at an evaluated point, takes ksScan, so NaN propagates as
// it always has.
func ksStatisticSorted(sorted []float64, cdf func(float64) float64) float64 {
	n := len(sorted)
	if n <= ksLeaf {
		return ksScan(sorted, cdf)
	}
	if lo, hi := sorted[0], sorted[n-1]; math.IsNaN(lo) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		return ksScan(sorted, cdf)
	}
	nf := float64(n)
	var d float64
	score := func(i int) float64 {
		f := cdf(sorted[i])
		d = math.Max(d, math.Max(math.Abs(f-float64(i)/nf), math.Abs(float64(i+1)/nf-f)))
		return f
	}
	var refine func(a, b int, fa, fb float64)
	refine = func(a, b int, fa, fb float64) {
		if b-a < 2 || math.Max(fb-float64(a+1)/nf, float64(b)/nf-fa)+ksMargin <= d {
			return
		}
		if b-a <= ksLeaf {
			for i := a + 1; i < b; i++ {
				score(i)
			}
			return
		}
		m := a + (b-a)/2
		fm := score(m)
		refine(a, m, fa, fm)
		refine(m, b, fm, fb)
	}

	// The coarse pass comes first so that d is near its final value
	// before any gap is tested.
	at := func(j int) int { return min(j*ksStep, n-1) }
	fs := make([]float64, (n-2)/ksStep+2)
	for j := range fs {
		fs[j] = score(at(j))
	}
	for j := 1; j < len(fs); j++ {
		refine(at(j-1), at(j), fs[j-1], fs[j])
	}
	if math.IsNaN(d) {
		return ksScan(sorted, cdf) // an evaluated F was NaN
	}
	return d
}

// ksScan is the KS statistic with the CDF evaluated at every order
// statistic.
func ksScan(sorted []float64, cdf func(float64) float64) float64 {
	n := float64(len(sorted))
	var d float64
	for i, x := range sorted {
		f := cdf(x)
		d = math.Max(d, math.Max(math.Abs(f-float64(i)/n), math.Abs(float64(i+1)/n-f)))
	}
	return d
}
