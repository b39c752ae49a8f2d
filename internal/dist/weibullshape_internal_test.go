package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The Weibull fit's one power kernel is weibullShapeEq.scale: the power
// mean (mean x^k)^(1/k), taken in shifted-log form so that it stays
// finite where x^k overflows or underflows. Every fitted scale comes
// from it. These tests check it against math.Pow's direct form on the
// pair {x, 1}, with the logs taken as newLogSample takes them.

// checkPowKernel checks the kernel at x > 0 and shape k in (0, 1024]:
// where x^k is finite, it must match (mean x^k)^(1/k) through math.Pow
// within 1e-11 relative; where x^k overflows, it must lie in the bounds
// every power mean of {x, 1} obeys, max·2^(−1/k) ≤ mean ≤ max. An
// infinite x must be rejected with ErrInfiniteObservation.
func checkPowKernel(x, k float64) error {
	s, err := newLogSample([]float64{x, 1}, "fit")
	if math.IsInf(x, 1) {
		if !errors.Is(err, ErrInfiniteObservation) {
			return fmt.Errorf("x=+Inf: error %v, want ErrInfiniteObservation", err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("x=%v: %v", x, err)
	}
	eq := weibullShapeEq{logs: s.logs, maxLog: math.Max(s.logs[0], s.logs[1])}
	got := eq.scale(k)
	// math.Pow takes math.Log of x, which is inexact for subnormal x on
	// some platforms (amd64), so the reference splits those with Frexp.
	p := math.Pow(x, k)
	if x < 0x1p-1022 {
		frac, exp := math.Frexp(x)
		p = math.Pow(frac, k) * math.Pow(2, float64(exp)*k)
	}
	if !math.IsInf(p, 1) {
		if want := math.Pow((p+1)/2, 1/k); !(math.Abs(got-want) <= 1e-11*want) {
			return fmt.Errorf("power mean of {%v, 1} at k=%v: %v, math.Pow gives %v", x, k, got, want)
		}
		return nil
	}
	if hi := math.Max(x, 1); !(got <= hi && got >= hi*math.Pow(2, -1/k)*(1-1e-12)) {
		return fmt.Errorf("power mean of {%v, 1} at k=%v: %v, outside [%v, %v]", x, k, got, hi*math.Pow(2, -1/k), hi)
	}
	return nil
}

// powPairs are the (x, k) pairs the kernel tests share: x = 1, x near 1,
// x whose powers overflow or underflow into subnormals, subnormal x
// (whose logs math.Log gets wrong on some platforms), +Inf, and shapes
// from 0.001 to 1024.
func powPairs() [][2]float64 {
	xs := []float64{1, math.Nextafter(1, 2), math.Nextafter(1, 0), 2, 0.5, 3, 10, 24, 24.0001,
		1e-300, 5e-324, 2.2e-308, 1e300, math.MaxFloat64, math.Inf(1), 0.999, 1.001}
	ks := []float64{0.5, 1, 2, 1024, 0.001, 0.25, 0.75, 1.5, 2.5, 222.2, 646.1,
		math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.Nextafter(1.5, 0), math.Nextafter(1.5, 2)}
	var pairs [][2]float64
	for _, x := range xs {
		for _, k := range ks {
			pairs = append(pairs, [2]float64{x, k})
		}
	}
	return pairs
}

// TestPowKernelMatchesPow checks the kernel on the named pairs, then on
// random positive x of every binade (subnormals included) and near 1, at
// random shapes in (0, 1024].
func TestPowKernelMatchesPow(t *testing.T) {
	pairs := powPairs()
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 200000; i++ {
		var x float64
		switch i % 3 {
		case 0: // any positive finite double
			x = math.Float64frombits(rng.Uint64() >> 1)
		case 1: // a failure-log scale value
			x = math.Exp(20*rng.Float64() - 10)
		default: // near 1, where x^k neither overflows nor underflows
			x = 1 + (rng.Float64()-0.5)*1e-3
		}
		pairs = append(pairs, [2]float64{x, 1024 * (1 - rng.Float64())})
	}
	for _, p := range pairs {
		if !(p[0] > 0) {
			continue
		}
		if err := checkPowKernel(p[0], p[1]); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzPowKernel checks the kernel at any positive x (given by its bits)
// and any shape folded into (0, 1024].
func FuzzPowKernel(f *testing.F) {
	for _, p := range powPairs() {
		f.Add(math.Float64bits(p[0]), p[1])
	}
	f.Fuzz(func(t *testing.T, xbits uint64, k float64) {
		x := math.Float64frombits(xbits)
		if k = math.Abs(k); k > 1024 {
			k = math.Mod(k, 1024)
		}
		if !(x > 0) || !(k > 0) {
			t.Skip()
		}
		if err := checkPowKernel(x, k); err != nil {
			t.Fatal(err)
		}
	})
}
