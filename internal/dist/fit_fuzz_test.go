package dist_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/dist"
)

// decodeSample reads data as little-endian float64 bit patterns, up to
// 64 of them; a trailing partial word is dropped.
func decodeSample(data []byte) []float64 {
	xs := make([]float64, 0, min(len(data)/8, 64))
	for i := 0; i+8 <= len(data) && len(xs) < 64; i += 8 {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
	}
	return xs
}

// encodeSample is decodeSample's inverse, for the seed corpus.
func encodeSample(xs ...float64) []byte {
	data := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(x))
	}
	return data
}

// FuzzFitAll fits any sample of up to 64 float64 values. FitAll must not
// panic; a sample holding NaN, ±Inf or a non-positive value must fail;
// any other sample either fails or yields fits whose KS statistic lies
// in [0, 1] and whose AIC is finite. The Weibull family is ranked
// exactly when FitWeibull fits the sample, and its fit or error must
// satisfy the shape equation's contract (fitsShapeEquation).
func FuzzFitAll(f *testing.F) {
	for _, xs := range [][]float64{
		{},
		{5},
		{1, 2},
		{3, 3},
		{1, 2, math.Inf(1)},
		{1, math.NaN()},
		{1, -1},
		{0, 1},
		{5e-324, 1, 2},
		{1e-300, 1e300, 1},
		{1e308, 1.5e308, 1.7e308},
		{1, 1 + 1e-6, 1 + 2e-6},
		{24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24, 24.0001},
		{12.5, 3.1, 40.2, 7.7, 0.4, 19.9, 66.0, 2.2},
	} {
		f.Add(encodeSample(xs...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := decodeSample(data)
		fits, err := dist.FitAll(xs)
		valid := true
		for _, x := range xs {
			valid = valid && x > 0 && !math.IsInf(x, 1)
		}
		if !valid {
			if err == nil {
				t.Fatalf("FitAll(%v) fitted %v, want an error", xs, fits)
			}
			return
		}
		if err != nil {
			return
		}
		var ranked *dist.Weibull
		for _, fit := range fits {
			if !(fit.KS >= 0 && fit.KS <= 1) || math.IsNaN(fit.AIC) || math.IsInf(fit.AIC, 0) {
				t.Fatalf("FitAll(%v): %s KS %v, AIC %v", xs, fit.Name, fit.KS, fit.AIC)
			}
			if w, ok := fit.Dist.(dist.Weibull); ok {
				ranked = &w
			}
		}
		w, werr := dist.FitWeibull(xs)
		if (ranked != nil) != (werr == nil) || (ranked != nil && *ranked != w) {
			t.Fatalf("FitAll(%v) ranks Weibull %v; FitWeibull gives %v, %v", xs, ranked, w, werr)
		}
		if err := fitsShapeEquation(xs, w, werr); err != nil {
			t.Fatal(err)
		}
	})
}
