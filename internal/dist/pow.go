package dist

import "math"

// powBases holds, for every observation x of a positive sample, the part
// of math.Pow(x, y)'s work that does not depend on y: ln x and the Frexp
// split x = frac·2^exp. FitWeibull raises one sample to many shapes, so
// it pays for these once per sample rather than once per shape.
type powBases struct {
	xs, logs, fracs []float64
	exps            []int
}

// newPowBases splits every x of xs, whose logs are given, for powExp.pow.
func newPowBases(xs, logs []float64) powBases {
	b := powBases{xs: xs, logs: logs, fracs: make([]float64, len(xs)), exps: make([]int, len(xs))}
	for i, x := range xs {
		b.fracs[i], b.exps[i] = math.Frexp(x)
	}
	return b
}

// powExp is the part of math.Pow(x, y)'s work that depends on y alone:
// y split into an integer part yi, raised by repeated squaring, and a
// fraction yf in (−0.5, 0.5], raised through Exp(yf·ln x).
type powExp struct {
	y, yf float64
	yi    int64
}

// newPowExp prepares y, which must lie in (0, 1024], for powExp.pow.
func newPowExp(y float64) powExp {
	yi, yf := math.Modf(y)
	if yf > 0.5 {
		yf--
		yi++
	}
	return powExp{y: y, yf: yf, yi: int64(yi)}
}

// pow returns math.Pow(b.xs[i], e.y) bit for bit, for x > 0 (+Inf
// included), wherever math.Pow is math/pow.go's pure-Go algorithm (every
// platform but s390x). It is that algorithm with the Log and Frexp calls
// read from b and the exponent split read from e: the special cases that
// can arise for such x and y come first, then the same Exp, squaring
// loop and Ldexp on the same operands, so every rounding step matches.
func (e powExp) pow(b *powBases, i int) float64 {
	x := b.xs[i]
	switch {
	case x == 1:
		return 1
	case e.y == 1 || math.IsInf(x, 1):
		return x
	case e.y == 0.5:
		return math.Sqrt(x)
	}
	a1, ae := 1.0, 0
	if e.yf != 0 {
		a1 = math.Exp(e.yf * b.logs[i])
	}
	x1, xe := b.fracs[i], b.exps[i]
	for yi := e.yi; yi != 0; yi >>= 1 {
		if xe < -1<<12 || 1<<12 < xe {
			// The squarings have left float64's exponent range, so the
			// final Ldexp overflows or underflows whatever else is added.
			ae += xe
			break
		}
		if yi&1 == 1 {
			a1 *= x1
			ae += xe
		}
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
	return math.Ldexp(a1, ae)
}
