package stats

import (
	"math"
	"sort"
)

// The radix kernel sorts 64-bit keys in six passes of 11-bit digits (the
// last digit holds the top 9 bits).
const (
	radixBits    = 11
	radixBuckets = 1 << radixBits
	radixPasses  = (64 + radixBits - 1) / radixBits

	// radixMinLen is the sample size below which sort.Float64s is faster:
	// under it, clearing and scanning the six histograms (a fixed ~13 µs)
	// costs more than the comparison sort saves. The two break even near
	// 1k exponential-like values on a 2-vCPU x86-64 VM.
	radixMinLen = 1024
)

// SortFloat64s sorts xs ascending in place, the one function of the
// package that mutates its input. It is an LSD radix sort over
// order-preserving keys, O(n) with one scratch slice of len(xs).
//
// For every input that holds no NaN and does not mix -0 and +0, the
// result is bit-identical to sort.Float64s: equal keys are equal bits, so
// the ascending order leaves no choice. With both zeros present the two
// agree by value, but the radix path puts every -0 before every +0, where
// sort.Float64s may interleave them. Inputs shorter than radixMinLen, and
// inputs holding a NaN, are sorted by sort.Float64s itself, so for them
// the result matches by construction.
func SortFloat64s(xs []float64) {
	n := len(xs)
	if n < radixMinLen {
		sort.Float64s(xs)
		return
	}
	// One counting pass fills every pass's histogram.
	var counts [radixPasses][radixBuckets]int
	for _, x := range xs {
		if x != x {
			sort.Float64s(xs)
			return
		}
		k := radixKey(x)
		for p := range counts {
			counts[p][k>>(p*radixBits)&(radixBuckets-1)]++
		}
	}

	src, dst := xs, make([]float64, n)
	first := radixKey(xs[0])
	for p := range counts {
		shift := p * radixBits
		c := &counts[p]
		if c[first>>shift&(radixBuckets-1)] == n {
			continue // every key shares this digit: the pass moves nothing
		}
		// Turn the histogram into each bucket's first output offset.
		var sum int
		for b, m := range c {
			c[b] = sum
			sum += m
		}
		for _, x := range src {
			d := radixKey(x) >> shift & (radixBuckets - 1)
			dst[c[d]] = x
			c[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src) // an odd number of passes ran
	}
}

// radixKey maps x to a uint64 whose unsigned order is x's numeric order
// (with -0 below +0): negative values have every bit flipped, the rest
// only the sign bit.
func radixKey(x float64) uint64 {
	b := math.Float64bits(x)
	return b ^ (uint64(int64(b)>>63) | 1<<63)
}
