package dist

import "math"

// The shapes FitWeibull's bracket-and-bisect search can test: the
// bracket starts at [1e-3, 1] and doubles up to 1024, and every bisection
// midpoint lies inside it.
const (
	weibullShapeMin = 1e-3
	weibullShapeMax = 1024
)

// weibullShapeSigns returns a predicate equal to g(k) < 0 at every shape
// k in [weibullShapeMin, weibullShapeMax], where g is FitWeibull's
// Pow-based shape function over the same logs. It calls g only where it
// cannot certify the sign otherwise.
//
// The certificate rests on three facts:
//
//  1. The exact shape function is strictly increasing: its derivative is
//     the x^k-weighted variance of ln x plus 1/k², both positive.
//  2. Its root r is found by a safeguarded Newton solve on shifted logs
//     d = ln x − max ln x (so every exp(k·d) ≤ 1 and nothing overflows),
//     one pass of math.Exp per step instead of g's math.Pow.
//  3. Both evaluations, Pow-based and shifted, differ from the exact
//     function by at most tol, a forward rounding bound covering the
//     n-term recursive sums, math.Pow's error (which grows with the
//     exponent through its repeated squaring) and the final subtractions.
//
// A band [a, b] around r is accepted once the shifted evaluation shows
// g(a) < −3·tol and g(b) > 3·tol. By (1) the exact function is then
// below −2·tol at every k ≤ a and above 2·tol at every k ≥ b (its 1/k²
// slope also outgrows tol's 1/k term below a), so by (3) the Pow-based g
// there has the same sign. Inside the band, outside the range where
// Pow's terms neither overflow nor underflow, and whenever the Newton
// solve fails (NaN or ±Inf inputs, all observations equal), the
// predicate evaluates g itself.
func weibullShapeSigns(logs []float64, meanLog float64, g func(float64) float64) func(float64) bool {
	exact := func(k float64) bool { return g(k) < 0 }
	maxLog, absMax, ss := math.Inf(-1), 0.0, 0.0
	for _, l := range logs {
		maxLog = math.Max(maxLog, l)
		absMax = math.Max(absMax, math.Abs(l))
		ss += (l - meanLog) * (l - meanLog)
	}
	n := float64(len(logs))
	sd := math.Sqrt(ss / n)
	if !(sd > 0) || math.IsInf(absMax, 0) {
		return exact
	}
	meanD := meanLog - maxLog
	shifted := func(k float64) (gk, slope float64) {
		var s0, s1, s2 float64
		for _, l := range logs {
			d := l - maxLog
			e := math.Exp(k * d)
			s0 += e
			s1 += e * d
			s2 += e * d * d
		}
		m1 := s1 / s0
		return m1 - 1/k - meanD, s2/s0 - m1*m1 + 1/(k*k)
	}
	// A Weibull sample's ln x has standard deviation π/(√6·k), so the
	// moment estimate starts Newton close to the root.
	r := weibullShapeRoot(shifted, math.Pi/(math.Sqrt(6)*sd))
	if math.IsNaN(r) {
		return exact
	}

	m := absMax + 1
	const u = 0x1p-53 // unit roundoff
	tol := 4 * u * (m*(3*n+3*weibullShapeMax*m+2*m+64) + 1/weibullShapeMin)
	// Pow's largest term is exp(k·maxLog); beyond these exponents a sum
	// may overflow or every term lose precision to underflow.
	powHi, powLo := 700-math.Log(n*m), -600.0
	band := 1e-8 * (1 + r)
	for try := 0; try < 4; try, band = try+1, band*8 {
		a, b := r-band, r+band
		if a < weibullShapeMin {
			a = math.Inf(-1) // no tested shape lies below
		} else if ga, _ := shifted(a); !(ga < -3*tol) {
			continue
		}
		if b > weibullShapeMax {
			b = math.Inf(1) // no tested shape lies above
		} else if gb, _ := shifted(b); !(gb > 3*tol) {
			continue
		}
		return func(k float64) bool {
			if e := k * maxLog; e > powLo && e < powHi {
				if k <= a {
					return true
				}
				if k >= b {
					return false
				}
			}
			return exact(k)
		}
	}
	return exact
}

// weibullShapeRoot finds the root of an increasing function, given as f
// returning its value and slope, by Newton's method from k. A step that
// leaves the bracket the signs seen so far establish is replaced by
// bisection, or by doubling while no upper bound is known. It returns
// NaN if f yields NaN or the iteration does not settle.
func weibullShapeRoot(f func(float64) (gk, slope float64), k float64) float64 {
	lo, hi := 0.0, math.Inf(1)
	for iter := 0; iter < 100; iter++ {
		gk, slope := f(k)
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
