package dist_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dist"
	"repro/internal/testutil"
)

// frexpLog is ln x from the Frexp split x = frac·2^exp, accurate for
// subnormal x too.
func frexpLog(x float64) float64 {
	frac, exp := math.Frexp(x)
	return math.Log(frac) + float64(exp)*math.Ln2
}

// fitsShapeEquation checks FitWeibull's contract on a sample, given the
// fit or error FitWeibull returned for it. A sample with a non-positive
// or infinite observation, or fewer than 2, fails with the matching
// error (ErrInfiniteObservation for +Inf); a sample whose shape
// equation has no root up to 1024 fails to bracket; any other fit has a
// shape at a sign change of the equation and the maximum-likelihood
// scale for that shape. The equation is evaluated here on logs shifted
// by their maximum, so that nothing overflows, and every error string
// must be the exact one.
func fitsShapeEquation(xs []float64, got dist.Weibull, err error) error {
	wantErr := ""
	for _, x := range xs {
		if !(x > 0) {
			wantErr = fmt.Sprintf("dist: weibull fit requires positive observations, got %v", x)
			break
		}
		if math.IsInf(x, 1) {
			if !errors.Is(err, dist.ErrInfiniteObservation) {
				return fmt.Errorf("n=%d with +Inf: error %v, want ErrInfiniteObservation", len(xs), err)
			}
			wantErr = fmt.Sprintf("%v (n=%d)", dist.ErrInfiniteObservation, len(xs))
			break
		}
	}
	if wantErr == "" && len(xs) < 2 {
		wantErr = fmt.Sprintf("dist: weibull fit needs at least 2 observations, got %d", len(xs))
	}
	if wantErr != "" {
		if err == nil || err.Error() != wantErr {
			return fmt.Errorf("n=%d: error %v, want %q", len(xs), err, wantErr)
		}
		return nil
	}

	maxLog, meanLog := math.Inf(-1), 0.0
	for _, x := range xs {
		maxLog = math.Max(maxLog, frexpLog(x))
		meanLog += frexpLog(x)
	}
	meanLog /= float64(len(xs))
	// meanShifted returns the mean of exp(k·d) and the exp(k·d)-weighted
	// mean of d, for d = ln x − max ln x.
	meanShifted := func(k float64) (s0, m1 float64) {
		var s1 float64
		for _, x := range xs {
			d := frexpLog(x) - maxLog
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
		if err.Error() == "dist: weibull shape did not bracket within (0, 1024]" && !(shape(1024) >= 0) {
			return nil
		}
		return fmt.Errorf("n=%d: error %v, but the shape equation has a root below 1024 (sample %v)", len(xs), err, xs)
	}
	if k := got.K; !(shape(k*(1-1e-6)) < 0 && shape(k*(1+1e-6)) > 0) {
		return fmt.Errorf("n=%d: shape %v is not a root of the shape equation (sample %v)", len(xs), k, xs)
	}
	// The scale is e^y for y = max ln x + ln(mean exp(k·d))/k, taken as
	// (e^(y/2))², which cannot overflow for a finite sample.
	s0, _ := meanShifted(got.K)
	h := math.Exp((maxLog + math.Log(s0)/got.K) / 2)
	if want := h * h; !(math.Abs(got.Lambda-want) <= 1e-9*want) {
		return fmt.Errorf("n=%d: scale %v, want %v (sample %v)", len(xs), got.Lambda, want, xs)
	}
	return nil
}

// checkWeibullFit fits xs and checks the fit against its contract.
func checkWeibullFit(xs []float64) error {
	w, err := dist.FitWeibull(xs)
	return fitsShapeEquation(xs, w, err)
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

// TestPropertyFitWeibullMatchesLegacy checks FitWeibull against its
// contract, the shape equation (fitsShapeEquation), on samples that
// stress it: ties, all-equal and nearly-equal samples (no root up to
// 1024), narrow samples at the outer scales, where x^k overflows or
// underflows, and samples holding +Inf. The name is the one it had when
// it compared the fit with a legacy bisection's bits.
func TestPropertyFitWeibullMatchesLegacy(t *testing.T) {
	testutil.Check(t, 600, func(g *testutil.Gen) error {
		return checkWeibullFit(genWeibullSample(g))
	})
}

// TestFitWeibullMatchesLegacyLarge repeats the contract check on larger
// Weibull and log-normal samples, whose longer sums carry more rounding
// into the shape function near its root.
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
		if err := checkWeibullFit(xs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestFitWeibullEdgeCases names the inputs the property's generator
// reaches only by chance, each error path with its exact string among
// them.
func TestFitWeibullEdgeCases(t *testing.T) {
	for name, xs := range map[string][]float64{
		"empty":          {},
		"one":            {5},
		"two":            {1, 2},
		"two equal":      {3, 3},
		"negative":       {1, -1},
		"zero":           {0, 1},
		"NaN":            {1, math.NaN()},
		"huge scale":     {1e6, 3e6, 2e6, 5e5},
		"tiny scale":     {1e-6, 3e-6, 2e-6, 5e-7},
		"root above 1e3": {1, 1 + 1e-6, 1 + 2e-6},
		"infinite":       {1, 2, math.Inf(1)},
		"infinite alone": {math.Inf(1)},
		"subnormal":      {5e-324, 1, 2},
		"subnormals":     {1e-310, 5e-324, 3e-320},
		"near max":       {1e300, 1e308, 1e307},
		"overflowing":    {1e6, 1.01e6, 0.995e6, 1.003e6},
		"underflowing":   {1e-6, 1.01e-6, 0.995e-6, 1.003e-6},
		"overflow edge":  {24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24.0001},
	} {
		if err := checkWeibullFit(xs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
