package dist

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"repro/internal/stats"
)

// ErrInfiniteObservation is the error FitWeibull wraps for a sample
// holding +Inf: x^k and the shifted exp(k·(ln x − max ln x)) are then
// both NaN at every shape, so the shape equation has no sign to search.
var ErrInfiniteObservation = errors.New("dist: weibull shape is undefined for an infinite observation")

// logSample is a positive sample with the log of every observation,
// taken once and shared by every family's fit and log-likelihood.
type logSample struct {
	xs, logs      []float64
	mean, meanLog float64
}

// newLogSample checks that every observation is positive, naming the
// fit in its error, and takes the logs and both means in one pass.
func newLogSample(xs []float64, fit string) (*logSample, error) {
	s := &logSample{xs: xs, logs: make([]float64, len(xs))}
	for i, x := range xs {
		if !(x > 0) {
			return nil, fmt.Errorf("dist: %s requires positive observations, got %v", fit, x)
		}
		s.logs[i] = math.Log(x)
		s.mean += x
		s.meanLog += s.logs[i]
	}
	if n := float64(len(xs)); n > 0 {
		s.mean /= n
		s.meanLog /= n
	}
	return s, nil
}

// FitExponential returns the maximum-likelihood exponential fit (the sample
// mean). Non-positive observations are rejected.
func FitExponential(xs []float64) (Exponential, error) {
	s, err := newLogSample(xs, "fit")
	if err != nil {
		return Exponential{}, err
	}
	return s.fitExponential()
}

func (s *logSample) fitExponential() (Exponential, error) {
	if len(s.xs) == 0 {
		return Exponential{}, fmt.Errorf("dist: fit needs at least 1 observation")
	}
	return NewExponential(s.mean)
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

// FitWeibull returns the maximum-likelihood Weibull fit, solving the shape
// equation g(k) = sum(x^k ln x)/sum(x^k) - 1/k - mean(ln x) = 0 by
// bracketing and bisection, then setting the scale from the shape.
//
// g is strictly increasing, so each bisection step needs only the sign of
// g(mid). A Newton solve of the same equation answers that sign wherever
// mid is certified to lie clear of the root (see weibullShapeCert.signs); the
// few steps near the root evaluate g itself, so the bisection takes the
// same path, and returns the same bits, as one that evaluates g every
// step. Where x^k overflows or underflows and g is NaN, the sign comes
// from an overflow-free evaluation instead, and so does the scale when
// its sum of x^k does. Every x^k is math.Pow's value, computed by powExp
// from the sample's logs and Frexp splits, which are taken once. A
// sample holding +Inf fails with an error wrapping ErrInfiniteObservation.
func FitWeibull(xs []float64) (Weibull, error) {
	s, err := newLogSample(xs, "weibull fit")
	if err != nil {
		return Weibull{}, err
	}
	return s.fitWeibull()
}

func (s *logSample) fitWeibull() (Weibull, error) {
	xs, logs, meanLog := s.xs, s.logs, s.meanLog
	if len(xs) < 2 {
		return Weibull{}, fmt.Errorf("dist: weibull fit needs at least 2 observations, got %d", len(xs))
	}
	for _, x := range xs {
		if math.IsInf(x, 1) {
			return Weibull{}, fmt.Errorf("%w (n=%d)", ErrInfiniteObservation, len(xs))
		}
	}
	bases := newPowBases(xs, logs)
	g := func(k float64) float64 {
		e := newPowExp(k)
		var sxk, sxkl float64
		for i := range xs {
			xk := e.pow(&bases, i)
			sxk += xk
			sxkl += xk * logs[i]
		}
		return sxkl/sxk - 1/k - meanLog
	}
	cert := certifyWeibullShape(logs, meanLog)
	below := cert.signs(g)

	// Bracket the root, then bisect. The path this search takes fixes the
	// fitted bits, so below must answer exactly as g(k) < 0 would.
	lo, hi := 1e-3, 1.0
	for below(hi) && hi < 1e3 {
		lo = hi
		hi *= 2
	}
	if below(hi) {
		return Weibull{}, fmt.Errorf("dist: weibull shape did not bracket within (0, %g]", hi)
	}
	for i := 0; i < 200 && hi-lo > 1e-10*(1+hi); i++ {
		mid := (lo + hi) / 2
		if below(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2

	e := newPowExp(k)
	var sxk float64
	for i := range xs {
		sxk += e.pow(&bases, i)
	}
	lambda := math.Pow(sxk/float64(len(xs)), 1/k)
	if math.IsInf(sxk, 1) || sxk == 0 {
		lambda = cert.scale(k) // x^k overflowed or every term underflowed
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

// family pairs a fitted distribution with its parameter count and the
// log-likelihood of observation i, the inputs of the scoring sweep.
type family struct {
	name   string
	dist   Distribution
	params int
	ll     func(i int) float64
}

// FitAll fits the exponential, Weibull, and log-normal families to xs and
// returns the fits sorted by ascending KS statistic (best first). Families
// that fail to fit are omitted; an error is returned only when no family
// fits.
//
// Once a family has fitted, the sample is cloned and sorted exactly once,
// and every family's KS statistic reads the shared sorted buffer. A
// family fits only when every observation is positive, so the sort never
// sees NaN or a zero, and stats.SortFloat64s orders it bit-identically to
// sort.Float64s. The sample's logs are taken once and shared by the fits
// and the log-likelihoods, which accumulate in xs order.
func FitAll(xs []float64) ([]Fit, error) {
	var families []family
	// A non-positive observation fails every family, as does the empty
	// sample.
	if s, err := newLogSample(xs, "fit"); err == nil {
		if e, err := s.fitExponential(); err == nil {
			logMean := math.Log(e.MeanVal)
			families = append(families, family{"exponential", e, 1, func(i int) float64 {
				return -logMean - xs[i]/e.MeanVal
			}})
		}
		if w, err := s.fitWeibull(); err == nil {
			logK, logL := math.Log(w.K), math.Log(w.Lambda)
			families = append(families, family{"weibull", w, 2, func(i int) float64 {
				z := xs[i] / w.Lambda
				return logK - logL + (w.K-1)*(s.logs[i]-logL) - math.Pow(z, w.K)
			}})
		}
		if l, err := s.fitLogNormal(); err == nil {
			c := -0.5*math.Log(2*math.Pi) - math.Log(l.Sigma)
			families = append(families, family{"lognormal", l, 2, func(i int) float64 {
				z := (s.logs[i] - l.Mu) / l.Sigma
				return c - s.logs[i] - z*z/2
			}})
		}
	}
	if len(families) == 0 {
		return nil, fmt.Errorf("dist: no distribution family fits the sample (n=%d)", len(xs))
	}
	sorted := append([]float64(nil), xs...)
	stats.SortFloat64s(sorted)
	fitSortCount.Add(1)
	fits := make([]Fit, len(families))
	for i, fam := range families {
		var ll float64
		for j := range xs {
			ll += fam.ll(j)
		}
		ks := ksStatisticSorted(sorted, fam.dist.CDF)
		fits[i] = Fit{Name: fam.name, Dist: fam.dist, KS: ks, AIC: 2*float64(fam.params) - 2*ll}
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
