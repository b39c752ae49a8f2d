package dist

import "math"

// The shapes FitWeibull's bracket-and-bisect search can test: the
// bracket starts at [1e-3, 1] and doubles up to 1024, and every bisection
// midpoint lies inside it.
const (
	weibullShapeMin = 1e-3
	weibullShapeMax = 1024
)

// weibullShapeCert is the shifted shape function of a sample and, when
// certified, the band [a, b] outside which its sign is certain.
type weibullShapeCert struct {
	logs          []float64
	maxLog, meanD float64
	r, slope, tol float64 // Newton's root, the slope there, the rounding bound
	a, b          float64 // the accepted band (±Inf past the tested shapes)
	tries         int     // ×8 widenings before the band was accepted; −1: none was
	powLo, powHi  float64 // where k·max ln x keeps every Pow term in range
}

// certifyWeibullShape solves for the root of the shape function of the
// given finite logs, then sizes and checks the band as signs describes.
func certifyWeibullShape(logs []float64, meanLog float64) *weibullShapeCert {
	maxLog, absMax, ss := math.Inf(-1), 0.0, 0.0
	for _, l := range logs {
		maxLog = math.Max(maxLog, l)
		absMax = math.Max(absMax, math.Abs(l))
		ss += (l - meanLog) * (l - meanLog)
	}
	c := &weibullShapeCert{logs: logs, maxLog: maxLog, meanD: meanLog - maxLog, tries: -1}
	n := float64(len(logs))
	sd := math.Sqrt(ss / n)
	if !(sd > 0) {
		return c
	}
	// A Weibull sample's ln x has standard deviation π/(√6·k), so the
	// moment estimate starts Newton close to the root.
	r, slope := weibullShapeRoot(c.shifted, math.Pi/(math.Sqrt(6)*sd))
	if math.IsNaN(r) {
		return c
	}

	m := absMax + 1
	const u = 0x1p-53 // unit roundoff
	tol := 4 * u * (m*(3*n+3*weibullShapeMax*m+2*m+64) + 1/weibullShapeMin)
	c.r, c.slope, c.tol = r, slope, tol
	// Pow's largest term is exp(k·maxLog); beyond these exponents a sum
	// may overflow or every term lose precision to underflow.
	c.powHi, c.powLo = 700-math.Log(n*m), -600.0
	band := math.Min(1e-8*(1+r), math.Max(4*tol/slope, 1e-13*(1+r)))
	for try := 0; try < 4; try, band = try+1, band*8 {
		a, b := r-band, r+band
		if a < weibullShapeMin {
			a = math.Inf(-1) // no tested shape lies below
		} else if ga, _ := c.shifted(a); !(ga < -3*tol) {
			continue
		}
		if b > weibullShapeMax {
			b = math.Inf(1) // no tested shape lies above
		} else if gb, _ := c.shifted(b); !(gb > 3*tol) {
			continue
		}
		c.a, c.b, c.tries = a, b, try
		return c
	}
	return c
}

// signs returns a predicate equal to g(k) < 0 at every shape k in
// [weibullShapeMin, weibullShapeMax] where g, FitWeibull's Pow-based
// shape function over the certificate's logs, is a number. It calls g
// only where it cannot certify the sign otherwise.
//
// g is NaN where x^k overflows (Inf/Inf) or every term underflows (0/0);
// read as a sign, NaN < 0 would put every such shape above the root and
// pull the bisection onto the overflow edge. There the predicate answers
// with the sign of the shifted function of (2) below instead, which
// neither overflows nor underflows and is a number for finite logs.
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
// there has the same sign. The first band tried has half-width
// 4·tol/slope(r), where the function's slope carries it about 4·tol
// clear of zero, floored at 1e-13·(1+r), a few hundred ulps of r, and
// capped at 1e-8·(1+r); a band that fails the check is widened ×8, up to
// three times. The sizing sets only the band's width, never its
// certificate, and the narrower the band, the fewer bisection steps
// evaluate g. Inside the band, outside the range where Pow's terms
// neither overflow nor underflow, and whenever the Newton solve fails
// (all observations equal), the predicate evaluates g itself.
func (c *weibullShapeCert) signs(g func(float64) float64) func(float64) bool {
	exact := func(k float64) bool {
		gk := g(k)
		if math.IsNaN(gk) {
			gk, _ = c.shifted(k)
		}
		return gk < 0
	}
	if c.tries < 0 {
		return exact
	}
	return func(k float64) bool {
		if e := k * c.maxLog; e > c.powLo && e < c.powHi {
			if k <= c.a {
				return true
			}
			if k >= c.b {
				return false
			}
		}
		return exact(k)
	}
}

// scale returns the maximum-likelihood Weibull scale for shape k,
// (mean x^k)^(1/k), from the shifted logs, so that it is finite where
// the sum of x^k overflows or underflows.
func (c *weibullShapeCert) scale(k float64) float64 {
	var s0 float64
	for _, l := range c.logs {
		s0 += math.Exp(k * (l - c.maxLog))
	}
	return math.Exp(c.maxLog + math.Log(s0/float64(len(c.logs)))/k)
}

// shifted evaluates the shape function and its slope on logs shifted by
// their maximum: every exp(k·d) ≤ 1, so nothing overflows.
func (c *weibullShapeCert) shifted(k float64) (gk, slope float64) {
	var s0, s1, s2 float64
	for _, l := range c.logs {
		d := l - c.maxLog
		e := math.Exp(k * d)
		s0 += e
		s1 += e * d
		s2 += e * d * d
	}
	m1 := s1 / s0
	return m1 - 1/k - c.meanD, s2/s0 - m1*m1 + 1/(k*k)
}

// weibullShapeRoot finds the root of an increasing function, given as f
// returning its value and slope, by Newton's method from k. A step that
// leaves the bracket the signs seen so far establish is replaced by
// bisection, or by doubling while no upper bound is known. It returns
// the root with the slope of the last step, or NaN if f yields NaN or the
// iteration does not settle.
func weibullShapeRoot(f func(float64) (gk, slope float64), k float64) (root, slope float64) {
	lo, hi := 0.0, math.Inf(1)
	for iter := 0; iter < 100; iter++ {
		var gk float64
		gk, slope = f(k)
		switch {
		case gk < 0:
			lo = k
		case gk > 0:
			hi = k
		case gk == 0:
			return k, slope
		default:
			return math.NaN(), slope
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
			return next, slope
		}
		k = next
	}
	return math.NaN(), slope
}
