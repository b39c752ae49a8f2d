package dist

import (
	"math"
	"math/rand"
	"testing"
)

// kernelPow is powExp.pow on a one-observation table.
func kernelPow(x, k float64) float64 {
	b := newPowBases([]float64{x}, []float64{math.Log(x)})
	return newPowExp(k).pow(&b, 0)
}

// powPairs are the (x, k) pairs the kernel tests share: every special
// case the kernel handles itself, fractions on both sides of the 0.5
// split, integer exponents, and x whose powers overflow, underflow into
// subnormals, or are subnormal themselves.
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

// TestPowKernelMatchesPow checks the kernel against math.Pow bit for
// bit: on the named pairs, then on random positive x of every binade
// (subnormals included) and near 1, at random shapes in (0, 1024].
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
		k := 1024 * (1 - rng.Float64())
		if i%4 == 0 {
			k = math.Floor(math.Min(k, 1023)) + 0.5 // on the 0.5 split
		}
		pairs = append(pairs, [2]float64{x, k})
	}
	for _, p := range pairs {
		x, k := p[0], p[1]
		if !(x > 0) {
			continue
		}
		if got, want := kernelPow(x, k), math.Pow(x, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pow(%v, %v) = %v, math.Pow = %v", x, k, got, want)
		}
	}
}

// FuzzPowKernel compares the kernel with math.Pow bit for bit at any
// positive x (given by its bits) and any shape folded into (0, 1024].
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
		if got, want := kernelPow(x, k), math.Pow(x, k); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pow(%v, %v) = %v, math.Pow = %v", x, k, got, want)
		}
	})
}
