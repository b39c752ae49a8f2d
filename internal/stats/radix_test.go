package stats_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/stats"
	"repro/internal/testutil"
)

// This is an external test package because testutil imports (through
// synth and dist) this package.

// sameAsFloat64s sorts a copy of xs with SortFloat64s and one with
// sort.Float64s and reports where they differ. The two must agree bit for
// bit, except on input mixing -0 and +0 and holding no NaN: there they
// agree by value.
func sameAsFloat64s(xs []float64) error {
	got, want := slices.Clone(xs), slices.Clone(xs)
	stats.SortFloat64s(got)
	sort.Float64s(want)
	var negZero, posZero, nan bool
	for _, x := range xs {
		switch {
		case x != x:
			nan = true
		case x == 0 && math.Signbit(x):
			negZero = true
		case x == 0:
			posZero = true
		}
	}
	byValue := negZero && posZero && !nan
	for i := range got {
		if byValue {
			if got[i] != want[i] {
				return fmt.Errorf("n=%d: [%d] = %v, sort.Float64s has %v", len(xs), i, got[i], want[i])
			}
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("n=%d: [%d] = %v (%#x), sort.Float64s has %v (%#x)",
				len(xs), i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return nil
}

// specials are the values a drawn element may take besides a random
// float: infinities, the extremes and subnormals.
var specials = []float64{
	math.Inf(1), math.Inf(-1), math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1040, -0x1.8p-1060, math.Float64frombits(0x000fffffffffffff),
	1, -1, 2,
}

// genSortInput draws a sample of 0 to 3000 values, so that both sides of
// the comparison-sort threshold are reached. A mode drawn first decides
// the mix: spread floats of both signs, heavy ties, all-equal (every
// radix pass skipped), NaN-bearing, or mixed zeros.
func genSortInput(g *testutil.Gen) []float64 {
	n := g.Range(0, 3000)
	mode := g.Intn(5)
	ties := make([]float64, 1+g.Intn(5))
	for i := range ties {
		ties[i] = math.Ldexp(g.Float64()-0.5, g.Range(-20, 20))
	}
	xs := make([]float64, n)
	for i := range xs {
		switch {
		case mode == 1:
			xs[i] = ties[g.Intn(len(ties))]
		case g.Intn(16) == 0:
			xs[i] = specials[g.Intn(len(specials))]
		default:
			// Random bits span every exponent and both signs.
			xs[i] = math.Float64frombits(g.Uint64(0))
			if xs[i] != xs[i] {
				xs[i] = math.Ldexp(g.Float64(), g.Range(-1074, 1023))
			}
		}
	}
	if n > 0 {
		switch mode {
		case 2:
			for i := range xs {
				xs[i] = xs[0]
			}
		case 3:
			xs[g.Intn(n)] = math.NaN()
		case 4:
			xs[g.Intn(n)] = math.Copysign(0, -1)
			xs[g.Intn(n)] = 0
		}
	}
	return xs
}

// TestPropertySortFloat64sMatchesSortPackage is the kernel's exactness
// claim over random inputs on both sides of the size threshold.
func TestPropertySortFloat64sMatchesSortPackage(t *testing.T) {
	testutil.Check(t, 300, func(g *testutil.Gen) error {
		return sameAsFloat64s(genSortInput(g))
	})
}

// TestSortFloat64sEdgeCases names the inputs the property reaches only
// by chance, each at a size the radix path takes.
func TestSortFloat64sEdgeCases(t *testing.T) {
	const n = 5000
	fill := func(f func(i int) float64) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = f(i)
		}
		return xs
	}
	oneNaN := fill(func(i int) float64 { return float64(i % 9) })
	oneNaN[n/2] = math.NaN()
	for name, xs := range map[string][]float64{
		"empty":         nil,
		"all equal":     fill(func(int) float64 { return 3.5 }),
		"all -Inf":      fill(func(int) float64 { return math.Inf(-1) }),
		"descending":    fill(func(i int) float64 { return float64(n - i) }),
		"alternating":   fill(func(i int) float64 { return float64(i%2*2-1) * float64(i) }),
		"subnormals":    fill(func(i int) float64 { return math.Float64frombits(uint64(n-i) * 7919) }),
		"extremes":      fill(func(i int) float64 { return specials[i%len(specials)] }),
		"hours grid":    fill(func(i int) float64 { return float64((i*7919)%n) * 0.0001 }),
		"one NaN":       oneNaN,
		"mixed zeros":   fill(func(i int) float64 { return math.Copysign(0, float64(i%2*2-1)) }),
		"zeros and one": fill(func(i int) float64 { return math.Copysign(float64(i%3/2), float64(i%2*2-1)) }),
	} {
		if err := sameAsFloat64s(xs); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestSortFloat64sNegativeZeroFirst pins the one documented departure
// from sort.Float64s: on the radix path every -0 sorts before every +0.
func TestSortFloat64sNegativeZeroFirst(t *testing.T) {
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = math.Copysign(float64(i%3/2), float64(i%2*2-1))
	}
	stats.SortFloat64s(xs)
	for i := 1; i < len(xs); i++ {
		if xs[i] == 0 && xs[i-1] == 0 && math.Signbit(xs[i]) && !math.Signbit(xs[i-1]) {
			t.Fatalf("-0 at [%d] follows +0", i)
		}
	}
}

// FuzzSortFloat64s decodes the input's first two bytes as a length up to
// 4096 and the rest as little-endian float64 bit patterns, tiled to that
// length with the tile number XORed into the low bits (so tiles are
// near-ties, not copies), and checks the kernel against sort.Float64s.
func FuzzSortFloat64s(f *testing.F) {
	seed := func(n uint16, xs ...float64) []byte {
		b := binary.LittleEndian.AppendUint16(nil, n)
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(10, 1, -1, 0.5))
	f.Add(seed(4096, 3.25, -7e-310, math.Inf(1), 1e300))
	f.Add(seed(2000, math.Copysign(0, -1), 0))
	f.Add(seed(1500, math.NaN(), 2, -2))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			t.Skip()
		}
		n := int(binary.LittleEndian.Uint16(data)) % 4097
		var bits []uint64
		for b := data[2:]; len(b) >= 8; b = b[8:] {
			bits = append(bits, binary.LittleEndian.Uint64(b))
		}
		if len(bits) == 0 {
			bits = []uint64{0}
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(bits[i%len(bits)] ^ uint64(i/len(bits)))
		}
		if err := sameAsFloat64s(xs); err != nil {
			t.Fatal(err)
		}
	})
}
