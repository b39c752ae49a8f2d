package dist_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/testutil"
)

// legacyFitWeibull is FitWeibull as it was before the Newton sign oracle:
// every bracket and bisection step evaluates the Pow-based shape
// function. sawNaN reports whether that function was NaN at any step,
// where this search reads NaN as "above the root". On every other sample
// FitWeibull must return the same bits and fail on the same inputs.
func legacyFitWeibull(xs []float64) (w dist.Weibull, sawNaN bool, err error) {
	if len(xs) < 2 {
		return dist.Weibull{}, false, fmt.Errorf("dist: weibull fit needs at least 2 observations, got %d", len(xs))
	}
	logs := make([]float64, len(xs))
	var meanLog float64
	for i, x := range xs {
		if !(x > 0) {
			return dist.Weibull{}, false, fmt.Errorf("dist: weibull fit requires positive observations, got %v", x)
		}
		logs[i] = math.Log(x)
		meanLog += logs[i]
	}
	meanLog /= float64(len(xs))

	g := func(k float64) float64 {
		var sxk, sxkl float64
		for i, x := range xs {
			xk := math.Pow(x, k)
			sxk += xk
			sxkl += xk * logs[i]
		}
		gk := sxkl/sxk - 1/k - meanLog
		sawNaN = sawNaN || math.IsNaN(gk)
		return gk
	}

	lo, hi := 1e-3, 1.0
	for g(hi) < 0 && hi < 1e3 {
		lo = hi
		hi *= 2
	}
	if g(hi) < 0 {
		return dist.Weibull{}, sawNaN, fmt.Errorf("dist: weibull shape did not bracket within (0, %g]", hi)
	}
	for i := 0; i < 200 && hi-lo > 1e-10*(1+hi); i++ {
		mid := (lo + hi) / 2
		if g(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	k := (lo + hi) / 2

	var sxk float64
	for _, x := range xs {
		sxk += math.Pow(x, k)
	}
	lambda := math.Pow(sxk/float64(len(xs)), 1/k)
	w, err = dist.NewWeibull(k, lambda)
	return w, sawNaN, err
}

// sameWeibullFit reports how FitWeibull's fit of a sample departs from
// the legacy search's: in whether they failed, or in any bit of either
// parameter. Where the legacy search saw a NaN shape function it checks
// FitWeibull against the shape equation instead (fitsShapeEquation).
func sameWeibullFit(xs []float64) error {
	want, sawNaN, wantErr := legacyFitWeibull(xs)
	got, gotErr := dist.FitWeibull(xs)
	if sawNaN {
		return fitsShapeEquation(xs, got, gotErr)
	}
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		return fmt.Errorf("n=%d: error %v, want %v", len(xs), gotErr, wantErr)
	}
	if math.Float64bits(got.K) != math.Float64bits(want.K) ||
		math.Float64bits(got.Lambda) != math.Float64bits(want.Lambda) {
		return fmt.Errorf("n=%d: got %+v, want %+v (sample %v)", len(xs), got, want, xs)
	}
	return nil
}

// fitsShapeEquation checks FitWeibull's contract on a sample whose
// Pow-based shape function overflows or underflows to NaN on the search
// path: an infinite observation fails with ErrInfiniteObservation; a
// sample whose shape equation has no root up to 1024 fails to bracket;
// any other fit has a shape at a sign change of the equation, evaluated
// here on logs shifted by their maximum so that nothing overflows, and
// the maximum-likelihood scale for that shape.
func fitsShapeEquation(xs []float64, got dist.Weibull, err error) error {
	maxLog, meanLog := math.Inf(-1), 0.0
	for _, x := range xs {
		if math.IsInf(x, 1) {
			if !errors.Is(err, dist.ErrInfiniteObservation) {
				return fmt.Errorf("n=%d with +Inf: error %v, want ErrInfiniteObservation", len(xs), err)
			}
			return nil
		}
		maxLog = math.Max(maxLog, math.Log(x))
		meanLog += math.Log(x)
	}
	meanLog /= float64(len(xs))
	// meanShifted returns the mean of exp(k·d) and the exp(k·d)-weighted
	// mean of d, for d = ln x − max ln x.
	meanShifted := func(k float64) (s0, m1 float64) {
		var s1 float64
		for _, x := range xs {
			d := math.Log(x) - maxLog
			s0 += math.Exp(k * d)
			s1 += math.Exp(k*d) * d
		}
		return s0 / float64(len(xs)), s1 / s0
	}
	shape := func(k float64) float64 {
		_, m1 := meanShifted(k)
		return m1 - 1/k - (meanLog - maxLog)
	}
	if err != nil {
		if strings.Contains(err.Error(), "did not bracket") && shape(1024) < 0 {
			return nil
		}
		return fmt.Errorf("n=%d: error %v, but the shape equation has a root below 1024 (sample %v)", len(xs), err, xs)
	}
	if k := got.K; !(shape(k*(1-1e-6)) < 0 && shape(k*(1+1e-6)) > 0) {
		return fmt.Errorf("n=%d: shape %v is not a root of the shape equation (sample %v)", len(xs), k, xs)
	}
	s0, _ := meanShifted(got.K)
	if want := math.Exp(maxLog + math.Log(s0)/got.K); !(math.Abs(got.Lambda-want) <= 1e-9*want) {
		return fmt.Errorf("n=%d: scale %v, want %v (sample %v)", len(xs), got.Lambda, want, xs)
	}
	return nil
}

// genWeibullSample draws a sample that stresses the shape search: n from
// 2, a scale from 1e-6 to 1e6, and values that are Weibull or log-normal
// (shapes whose roots span small to large), rounded to a coarse grid,
// drawn from a few levels (heavy ties), all equal (no root: an error),
// nearly equal (a root above 1e3: an error), narrowly spread (a root near
// 100, where x^k overflows or underflows at the outer scales), or carry a
// +Inf.
func genWeibullSample(g *testutil.Gen) []float64 {
	n := 2 + g.Intn(80)
	scale := math.Pow(10, float64(g.Intn(13)-6))
	mode := g.Intn(8)
	shape := 0.2 + 6*g.Float64()
	u := func() float64 { return 1 - g.Float64() } // in (0, 1]
	xs := make([]float64, n)
	for i := range xs {
		switch mode {
		case 0: // Weibull
			xs[i] = scale * math.Pow(-math.Log(u()), 1/shape)
		case 1: // log-normal, via Box-Muller
			z := math.Sqrt(-2*math.Log(u())) * math.Cos(2*math.Pi*g.Float64())
			xs[i] = scale * math.Exp(z/shape)
		case 2: // Weibull rounded to a tenth of the scale, floored above 0
			xs[i] = scale * math.Max(0.1, math.Round(10*math.Pow(-math.Log(u()), 1/shape))/10)
		case 3: // heavy ties
			xs[i] = scale * float64(1+g.Intn(3))
		case 4: // all equal
			xs[i] = scale
		case 5: // nearly equal
			xs[i] = scale * (1 + 1e-5*g.Float64())
		case 7: // narrowly spread
			xs[i] = scale * math.Exp(0.01*(g.Float64()-0.5))
		case 6: // Weibull with an infinite observation
			xs[i] = scale * math.Pow(-math.Log(u()), 1/shape)
			if i == n-1 {
				xs[i] = math.Inf(1)
			}
		}
	}
	return xs
}

// TestPropertyFitWeibullMatchesLegacy pins the sign-oracle search to the
// evaluate-every-step search it replaced, bit for bit, failures included,
// on every sample where that search never met a NaN shape function; on
// the others (nearly equal, narrowly spread and infinite samples at the
// outer scales) FitWeibull must solve the shape equation instead.
func TestPropertyFitWeibullMatchesLegacy(t *testing.T) {
	testutil.Check(t, 600, func(g *testutil.Gen) error {
		return sameWeibullFit(genWeibullSample(g))
	})
}

// TestFitWeibullMatchesLegacyLarge repeats the differential check on
// larger Weibull and log-normal samples, whose longer sums carry more
// rounding into the shape function near its root.
func TestFitWeibullMatchesLegacyLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 40; trial++ {
		n := 500 + rng.Intn(4000)
		shape := 0.3 + 3*rng.Float64()
		scale := math.Pow(10, 4*rng.Float64()-2)
		xs := make([]float64, n)
		for i := range xs {
			if trial%2 == 0 {
				xs[i] = scale * math.Pow(rng.ExpFloat64(), 1/shape)
			} else {
				xs[i] = scale * math.Exp(rng.NormFloat64()/shape)
			}
			if trial%5 == 0 {
				xs[i] = math.Max(0.01, math.Round(100*xs[i])/100)
			}
		}
		if err := sameWeibullFit(xs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestFitWeibullEdgeCases names the inputs the property's generator
// reaches only by chance.
func TestFitWeibullEdgeCases(t *testing.T) {
	for name, xs := range map[string][]float64{
		"two":            {1, 2},
		"two equal":      {3, 3},
		"huge scale":     {1e6, 3e6, 2e6, 5e5},
		"tiny scale":     {1e-6, 3e-6, 2e-6, 5e-7},
		"root above 1e3": {1, 1 + 1e-6, 1 + 2e-6},
		"infinite":       {1, 2, math.Inf(1)},
		"subnormal":      {5e-324, 1, 2},
		"near max":       {1e300, 1e308, 1e307},
		"overflowing":    {1e6, 1.01e6, 0.995e6, 1.003e6},
		"underflowing":   {1e-6, 1.01e-6, 0.995e-6, 1.003e-6},
		"overflow edge":  {24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24.0001},
	} {
		if err := sameWeibullFit(xs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
