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
		below := weibullShapeSigns(logs, meanLog, g)

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
