// Streaming sketches for the columnar data plane: a constant-memory
// consumer (textreport.StreamDigest, or any BlockReader loop) folds each
// record into running sketches, never holding the sample itself. Two
// summaries cover the digest's needs: Welford (exact mean/variance) and
// TDigest (approximate quantiles with a documented rank-error bound).
// Both follow the package NaN policy: a NaN observation poisons every
// derived statistic to NaN.
package stats

import (
	"math"
	"sort"
)

// Welford is a streaming mean/variance accumulator (Welford's online
// algorithm, merged pairwise via the Chan et al. parallel update). The
// zero value is an empty accumulator ready for use. Mean and variance
// are exact up to floating-point rounding — unlike the quantile
// sketches, Welford trades nothing for streaming.
type Welford struct {
	n      int64
	mean   float64
	m2     float64
	hasNaN bool
}

// Observe folds one sample into the accumulator.
func (w *Welford) Observe(x float64) {
	if math.IsNaN(x) {
		w.hasNaN = true
	}
	w.n++
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Merge folds another accumulator into w, as if every sample observed by
// o had been observed by w.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		w.hasNaN = w.hasNaN || o.hasNaN
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n1, n2 := float64(w.n), float64(o.n)
	delta := o.mean - w.mean
	total := n1 + n2
	w.mean += delta * n2 / total
	w.m2 += o.m2 + delta*delta*n1*n2/total
	w.n += o.n
	w.hasNaN = w.hasNaN || o.hasNaN
}

// Count returns the number of samples observed.
func (w *Welford) Count() int64 { return w.n }

// Mean returns the sample mean: NaN when empty or poisoned.
func (w *Welford) Mean() float64 {
	if w.n == 0 || w.hasNaN {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the unbiased (n-1) sample variance, matching the
// package-level Variance convention: NaN for fewer than two samples or
// a poisoned accumulator.
func (w *Welford) Variance() float64 {
	if w.n < 2 || w.hasNaN {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the unbiased sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// centroid is one weighted point of a TDigest.
type centroid struct {
	mean   float64
	weight float64
}

// TDigest is a merging t-digest (Dunning's k1 arcsine scale function):
// a bounded set of weighted centroids whose capacity concentrates at the
// distribution tails, so extreme quantiles stay sharp while the sketch
// itself stays O(compression) regardless of sample count. Quantile rank
// error is about 4·q·(1−q)/δ for compression δ — with the default
// δ = 100, under 1% at the median and tighter toward the tails (the
// accuracy tests in stream_test.go pin this against the exact sorted
// quantiles). Use NewTDigest; the zero value is not ready.
type TDigest struct {
	compression float64
	processed   []centroid // sorted by mean, compacted
	buffer      []centroid // unsorted incoming points
	total       float64    // processed + buffered weight
	min, max    float64
	count       int64
	hasNaN      bool
	scratch     []centroid
}

// DefaultTDigestCompression is the δ used by NewTDigest when the caller
// passes 0: ~1% worst-case (median) rank error in ≤ ~200 centroids.
const DefaultTDigestCompression = 100

// NewTDigest returns an empty t-digest with the given compression δ
// (0 means DefaultTDigestCompression).
func NewTDigest(compression float64) *TDigest {
	if compression <= 0 {
		compression = DefaultTDigestCompression
	}
	bufCap := int(8 * compression)
	return &TDigest{
		compression: compression,
		buffer:      make([]centroid, 0, bufCap),
		min:         math.Inf(1),
		max:         math.Inf(-1),
	}
}

// Observe folds one sample into the digest.
func (t *TDigest) Observe(x float64) {
	if math.IsNaN(x) {
		t.hasNaN = true
		t.count++
		return
	}
	t.buffer = append(t.buffer, centroid{mean: x, weight: 1})
	t.total++
	t.count++
	if x < t.min {
		t.min = x
	}
	if x > t.max {
		t.max = x
	}
	if len(t.buffer) == cap(t.buffer) {
		t.process()
	}
}

// Merge folds another digest into t. The result summarizes the union of
// both sample streams; merging block-local digests is how a BlockReader
// consumer builds the whole-trace quantile view.
func (t *TDigest) Merge(o *TDigest) {
	if o == nil {
		return
	}
	t.hasNaN = t.hasNaN || o.hasNaN
	t.count += o.count - int64(o.total) // NaN observations carry no weight
	for _, c := range o.processed {
		t.add(c)
	}
	for _, c := range o.buffer {
		t.add(c)
	}
	if o.total > 0 {
		if o.min < t.min {
			t.min = o.min
		}
		if o.max > t.max {
			t.max = o.max
		}
	}
}

// add appends a weighted centroid, processing the buffer when full.
func (t *TDigest) add(c centroid) {
	t.buffer = append(t.buffer, c)
	t.total += c.weight
	t.count += int64(c.weight)
	if len(t.buffer) == cap(t.buffer) {
		t.process()
	}
}

// process merges the buffer into the compacted centroid list: sort,
// merge the two sorted runs, then re-compact under the k1 scale bound.
func (t *TDigest) process() {
	if len(t.buffer) == 0 {
		return
	}
	sort.Slice(t.buffer, func(i, j int) bool { return t.buffer[i].mean < t.buffer[j].mean })
	merged := t.scratch[:0]
	i, j := 0, 0
	for i < len(t.processed) && j < len(t.buffer) {
		if t.processed[i].mean <= t.buffer[j].mean {
			merged = append(merged, t.processed[i])
			i++
		} else {
			merged = append(merged, t.buffer[j])
			j++
		}
	}
	merged = append(merged, t.processed[i:]...)
	merged = append(merged, t.buffer[j:]...)
	t.buffer = t.buffer[:0]

	// Compact: accumulate adjacent centroids while the merged centroid
	// stays within one unit of the k1 scale k(q) = δ/(2π)·asin(2q−1).
	out := t.processed[:0]
	var wSoFar float64
	cur := merged[0]
	for _, c := range merged[1:] {
		q0 := wSoFar / t.total
		q2 := (wSoFar + cur.weight + c.weight) / t.total
		if t.scaleK(q2)-t.scaleK(q0) <= 1 {
			w := cur.weight + c.weight
			cur.mean += (c.mean - cur.mean) * c.weight / w
			cur.weight = w
		} else {
			wSoFar += cur.weight
			out = append(out, cur)
			cur = c
		}
	}
	out = append(out, cur)
	t.processed = out
	t.scratch = merged[:0]
}

// scaleK is the k1 scale function.
func (t *TDigest) scaleK(q float64) float64 {
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	return t.compression / (2 * math.Pi) * math.Asin(2*q-1)
}

// Count returns the number of observations (including NaNs).
func (t *TDigest) Count() int64 { return t.count }

// Min and Max return the exact sample extremes (NaN when empty or
// poisoned — extremes of a NaN-containing sample are as undefined as
// its quantiles).
func (t *TDigest) Min() float64 {
	if t.total == 0 || t.hasNaN {
		return math.NaN()
	}
	return t.min
}

func (t *TDigest) Max() float64 {
	if t.total == 0 || t.hasNaN {
		return math.NaN()
	}
	return t.max
}

// Quantile returns the approximate p-quantile. It returns NaN when the
// digest is empty, poisoned by NaN, or p is outside [0, 1]. The exact
// sample min/max anchor the extreme quantiles, so p = 0 and p = 1 are
// exact.
func (t *TDigest) Quantile(p float64) float64 {
	if t.total == 0 || t.hasNaN || math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	t.process()
	cs := t.processed
	if len(cs) == 1 {
		return cs[0].mean
	}
	target := p * t.total
	// Centroid i covers cumulative weight (c_i − w_i/2, c_i + w_i/2]
	// around its midpoint; interpolate linearly between midpoints and
	// anchor the ends at the exact extremes.
	var cum float64
	for i, c := range cs {
		mid := cum + c.weight/2
		if target <= mid {
			if i == 0 {
				// Below the first midpoint: interpolate from the minimum.
				if c.weight <= 1 {
					return t.min
				}
				frac := target / mid
				return t.min + frac*(c.mean-t.min)
			}
			prev := cs[i-1]
			prevMid := cum - prev.weight/2
			frac := (target - prevMid) / (mid - prevMid)
			return prev.mean + frac*(c.mean-prev.mean)
		}
		cum += c.weight
	}
	// Above the last midpoint: interpolate toward the maximum.
	last := cs[len(cs)-1]
	mid := t.total - last.weight/2
	if last.weight <= 1 || t.total == mid {
		return t.max
	}
	frac := (target - mid) / (t.total - mid)
	return last.mean + frac*(t.max-last.mean)
}
