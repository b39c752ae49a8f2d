package dist

import (
	"math"
	"math/rand"
	"testing"
)

// TestWeibullShapeSignsNearRoot probes the sign oracle where it is
// weakest: at shapes within a few dozen ulps of the point where the
// Pow-based shape function changes sign, where its rounding error can
// exceed its value and flip the sign back and forth. The predicate must
// agree with that function's own sign at every probe, and at a coarse
// grid across the whole bracket.
func TestWeibullShapeSignsNearRoot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 24; trial++ {
		n := []int{2, 7, 50, 400, 3000, 20000}[trial%6]
		shape := 0.3 + 4*rng.Float64()
		xs := make([]float64, n)
		logs := make([]float64, n)
		var meanLog float64
		for i := range xs {
			xs[i] = 30 * math.Pow(rng.ExpFloat64(), 1/shape)
			if trial%4 == 3 {
				xs[i] = math.Max(0.5, math.Round(xs[i]))
			}
			logs[i] = math.Log(xs[i])
			meanLog += logs[i]
		}
		meanLog /= float64(n)
		g := func(k float64) float64 {
			var sxk, sxkl float64
			for i, x := range xs {
				xk := math.Pow(x, k)
				sxk += xk
				sxkl += xk * logs[i]
			}
			return sxkl/sxk - 1/k - meanLog
		}
		below := certifyWeibullShape(logs, meanLog).signs(g)

		lo, hi := weibullShapeMin, float64(weibullShapeMax)
		for hi-lo > 0 && lo < (lo+hi)/2 && (lo+hi)/2 < hi {
			if mid := (lo + hi) / 2; g(mid) < 0 {
				lo = mid
			} else {
				hi = mid
			}
		}
		var probes []float64
		for j := -64; j <= 64; j++ {
			probes = append(probes, hi*(1+float64(j)*0x1p-50))
		}
		for k := weibullShapeMin; k < weibullShapeMax; k *= 1.37 {
			probes = append(probes, k)
		}
		for _, k := range probes {
			if got, want := below(k), g(k) < 0; got != want {
				t.Fatalf("trial %d (n=%d): below(%v) = %v, g = %v", trial, n, k, got, g(k))
			}
		}
	}
}

// TestWeibullShapeBandIsCertificateSized checks the band the sign oracle
// accepts on samples shaped like failure logs: it passes its certificate
// (the shifted shape function beyond ±3·tol at its ends), and it is the
// first band tried, of half-width 4·tol/slope(r) floored at
// 1e-13·(1+r). A band started narrower than its certificate allows
// needs a widening, which leaves more bisection steps evaluating g.
func TestWeibullShapeBandIsCertificateSized(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 48; trial++ {
		n := []int{50, 400, 3000, 20000}[trial%4]
		shape := 0.4 + 2.5*rng.Float64()
		scale := math.Pow(10, 3*rng.Float64()-1)
		logs := make([]float64, n)
		var meanLog float64
		for i := range logs {
			x := scale * math.Pow(rng.ExpFloat64(), 1/shape)
			switch trial % 3 {
			case 1:
				x = scale * math.Exp(rng.NormFloat64()/shape)
			case 2:
				x = math.Max(0.01, math.Round(100*x)/100)
			}
			logs[i] = math.Log(x)
			meanLog += logs[i]
		}
		meanLog /= float64(n)
		c := certifyWeibullShape(logs, meanLog)
		if c.tries != 0 {
			t.Fatalf("trial %d (n=%d): band accepted after %d widenings", trial, n, c.tries)
		}
		want := math.Min(1e-8*(1+c.r), math.Max(4*c.tol/c.slope, 1e-13*(1+c.r)))
		if half := (c.b - c.a) / 2; !(math.Abs(half-want) <= 1e-6*want+1e-15*c.r) {
			t.Fatalf("trial %d (n=%d): band [%v, %v] around %v, want half-width %v", trial, n, c.a, c.b, c.r, want)
		}
		if ga, _ := c.shifted(c.a); !(ga < -3*c.tol) {
			t.Fatalf("trial %d (n=%d): g(%v) = %v, not below -3·tol = %v", trial, n, c.a, ga, -3*c.tol)
		}
		if gb, _ := c.shifted(c.b); !(gb > 3*c.tol) {
			t.Fatalf("trial %d (n=%d): g(%v) = %v, not above 3·tol = %v", trial, n, c.b, gb, 3*c.tol)
		}
	}
}
