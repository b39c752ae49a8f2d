package dist

import "math"

// weibullShapeMax is the largest shape FitWeibull returns: a sample
// whose shape equation has no root up to it (all observations equal, or
// so nearly equal that the root runs off to a huge shape) fails to fit.
const weibullShapeMax = 1024

// weibullShapeEq is a sample's Weibull shape equation on logs shifted by
// their maximum, d = ln x − max ln x: every exp(k·d) ≤ 1, so no
// evaluation overflows, and the sums keep their leading term at 1, so
// none underflows to 0/0.
type weibullShapeEq struct {
	logs          []float64
	maxLog, meanD float64
}

// weibullMLE returns the maximum-likelihood Weibull shape and scale of a
// sample, given its finite logs and their mean. The shape is the root of
// the shape equation, found by a safeguarded Newton solve started from
// the moment estimate; the scale is (mean x^k)^(1/k) at that shape. Both
// are NaN when the equation has no root (every log equal) or the solve
// does not settle.
func weibullMLE(logs []float64, meanLog float64) (k, lambda float64) {
	maxLog, ss := math.Inf(-1), 0.0
	for _, l := range logs {
		maxLog = math.Max(maxLog, l)
		ss += (l - meanLog) * (l - meanLog)
	}
	sd := math.Sqrt(ss / float64(len(logs)))
	if !(sd > 0) {
		return math.NaN(), math.NaN()
	}
	eq := weibullShapeEq{logs: logs, maxLog: maxLog, meanD: meanLog - maxLog}
	// A Weibull sample's ln x has standard deviation π/(√6·k), so the
	// moment estimate starts Newton close to the root.
	k = eq.root(math.Pi / (math.Sqrt(6) * sd))
	if math.IsNaN(k) {
		return k, k
	}
	return k, eq.scale(k)
}

// scale returns the maximum-likelihood Weibull scale for shape k,
// (mean x^k)^(1/k), from the shifted logs, so that it is finite where
// the sum of x^k overflows or underflows. math.Exp overflows early on
// some platforms (on amd64 it returns +Inf above ln 2^1023.5 ≈ 709.44,
// where e^y is still finite), so the largest scales take e^y as
// (e^(y/2))².
func (eq weibullShapeEq) scale(k float64) float64 {
	var s0 float64
	for _, l := range eq.logs {
		s0 += math.Exp(k * (l - eq.maxLog))
	}
	y := eq.maxLog + math.Log(s0/float64(len(eq.logs)))/k
	if y > 709 {
		h := math.Exp(y / 2)
		return h * h
	}
	return math.Exp(y)
}

// shifted evaluates the shape function
// g(k) = Σx^k·ln x / Σx^k − 1/k − mean(ln x) and its slope, the
// x^k-weighted variance of ln x plus 1/k², on the shifted logs.
func (eq weibullShapeEq) shifted(k float64) (gk, slope float64) {
	var s0, s1, s2 float64
	for _, l := range eq.logs {
		d := l - eq.maxLog
		e := math.Exp(k * d)
		s0 += e
		s1 += e * d
		s2 += e * d * d
	}
	m1 := s1 / s0
	return m1 - 1/k - eq.meanD, s2/s0 - m1*m1 + 1/(k*k)
}

// root finds the root of the shape function by Newton's method from k.
// A step that leaves the bracket the signs seen so far establish is
// replaced by bisection, or by doubling while no upper bound is known.
// It returns NaN if the function yields NaN or the iteration does not
// settle.
func (eq weibullShapeEq) root(k float64) float64 {
	lo, hi := 0.0, math.Inf(1)
	for iter := 0; iter < 100; iter++ {
		gk, slope := eq.shifted(k)
		switch {
		case gk < 0:
			lo = k
		case gk > 0:
			hi = k
		case gk == 0:
			return k
		default:
			return math.NaN()
		}
		next := k - gk/slope
		if !(next > lo && next < hi) {
			if math.IsInf(hi, 1) {
				next = 2 * k
			} else {
				next = lo + (hi-lo)/2
			}
		}
		if tol := 1e-12 * (1 + k); math.Abs(next-k) <= tol || hi-lo <= tol {
			return next
		}
		k = next
	}
	return math.NaN()
}
