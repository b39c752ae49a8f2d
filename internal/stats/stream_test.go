package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// streamSamples builds deterministic test distributions: the heavy-
// tailed shapes (lognormal TTR, exponential TBF) the sketches meet in
// production, plus uniform as the easy case.
func streamSamples(n int) map[string][]float64 {
	rng := rand.New(rand.NewSource(1))
	uniform := make([]float64, n)
	lognormal := make([]float64, n)
	exponential := make([]float64, n)
	for i := 0; i < n; i++ {
		uniform[i] = rng.Float64() * 100
		lognormal[i] = math.Exp(rng.NormFloat64()*1.5 + 1)
		exponential[i] = rng.ExpFloat64() * 12
	}
	return map[string][]float64{
		"uniform":     uniform,
		"lognormal":   lognormal,
		"exponential": exponential,
	}
}

func TestWelfordMatchesExact(t *testing.T) {
	for name, xs := range streamSamples(10000) {
		var w Welford
		for _, x := range xs {
			w.Observe(x)
		}
		wantMean, wantVar := Mean(xs), Variance(xs)
		if rel := math.Abs(w.Mean()-wantMean) / math.Abs(wantMean); rel > 1e-12 {
			t.Errorf("%s: Welford mean %g vs exact %g (rel %g)", name, w.Mean(), wantMean, rel)
		}
		if rel := math.Abs(w.Variance()-wantVar) / wantVar; rel > 1e-9 {
			t.Errorf("%s: Welford variance %g vs exact %g (rel %g)", name, w.Variance(), wantVar, rel)
		}
		if w.Count() != int64(len(xs)) {
			t.Errorf("%s: count %d", name, w.Count())
		}
	}
}

func TestWelfordMergeEquivalence(t *testing.T) {
	xs := streamSamples(10000)["lognormal"]
	var whole Welford
	for _, x := range xs {
		whole.Observe(x)
	}
	// Merge unequal chunks (including an empty one) block-style.
	var merged Welford
	bounds := []int{0, 1, 1, 137, 5000, len(xs)}
	for i := 1; i < len(bounds); i++ {
		var part Welford
		for _, x := range xs[bounds[i-1]:bounds[i]] {
			part.Observe(x)
		}
		merged.Merge(part)
	}
	if merged.Count() != whole.Count() {
		t.Fatalf("merged count %d vs %d", merged.Count(), whole.Count())
	}
	if rel := math.Abs(merged.Mean()-whole.Mean()) / whole.Mean(); rel > 1e-12 {
		t.Errorf("merged mean %g vs whole %g", merged.Mean(), whole.Mean())
	}
	if rel := math.Abs(merged.Variance()-whole.Variance()) / whole.Variance(); rel > 1e-9 {
		t.Errorf("merged variance %g vs whole %g", merged.Variance(), whole.Variance())
	}
}

func TestWelfordNaNPoison(t *testing.T) {
	var w Welford
	w.Observe(1)
	w.Observe(math.NaN())
	w.Observe(2)
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Variance()) {
		t.Error("NaN observation must poison mean and variance")
	}
	var clean Welford
	clean.Observe(1)
	clean.Merge(w)
	if !math.IsNaN(clean.Mean()) {
		t.Error("merging a poisoned accumulator must poison the target")
	}
	var empty Welford
	if !math.IsNaN(empty.Mean()) || !math.IsNaN(empty.Variance()) {
		t.Error("empty accumulator must report NaN")
	}
}

// rankOf returns the fraction of the sorted sample ≤ x.
func rankOf(sorted []float64, x float64) float64 {
	return float64(sort.SearchFloat64s(sorted, math.Nextafter(x, math.Inf(1)))) / float64(len(sorted))
}

// tdigestTolerance is the documented accuracy bound for the default
// compression (δ = 100): rank error ≈ 4·q·(1−q)/δ, tested with 2x
// headroom at the midrange and a fixed floor at the tails.
func tdigestTolerance(p float64) float64 {
	tol := 2 * 4 * p * (1 - p) / DefaultTDigestCompression
	if tol < 0.005 {
		tol = 0.005
	}
	return tol
}

var quantileProbes = []float64{0.01, 0.05, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999}

func TestTDigestAccuracy(t *testing.T) {
	for name, xs := range streamSamples(100000) {
		td := NewTDigest(0)
		for _, x := range xs {
			td.Observe(x)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range quantileProbes {
			est := td.Quantile(p)
			if gotRank := rankOf(sorted, est); math.Abs(gotRank-p) > tdigestTolerance(p) {
				t.Errorf("%s p=%g: estimate %g has rank %g (err %g > tol %g)",
					name, p, est, gotRank, math.Abs(gotRank-p), tdigestTolerance(p))
			}
		}
		if td.Quantile(0) != sorted[0] || td.Quantile(1) != sorted[len(sorted)-1] {
			t.Errorf("%s: extremes not exact: %g/%g vs %g/%g",
				name, td.Quantile(0), td.Quantile(1), sorted[0], sorted[len(sorted)-1])
		}
	}
}

func TestTDigestMergeAccuracy(t *testing.T) {
	xs := streamSamples(100000)["lognormal"]
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	// Per-block digests merged pairwise, the streaming-digest shape.
	merged := NewTDigest(0)
	const block = 8192
	for lo := 0; lo < len(xs); lo += block {
		hi := lo + block
		if hi > len(xs) {
			hi = len(xs)
		}
		part := NewTDigest(0)
		for _, x := range xs[lo:hi] {
			part.Observe(x)
		}
		merged.Merge(part)
	}
	if merged.Count() != int64(len(xs)) {
		t.Fatalf("merged count %d, want %d", merged.Count(), len(xs))
	}
	for _, p := range quantileProbes {
		est := merged.Quantile(p)
		// Merging costs some accuracy; allow 2x the single-stream bound.
		tol := 2 * tdigestTolerance(p)
		if gotRank := rankOf(sorted, est); math.Abs(gotRank-p) > tol {
			t.Errorf("merged p=%g: rank %g (err %g > tol %g)", p, gotRank, math.Abs(gotRank-p), tol)
		}
	}
}

func TestTDigestEdgeCases(t *testing.T) {
	td := NewTDigest(0)
	if !math.IsNaN(td.Quantile(0.5)) || !math.IsNaN(td.Min()) {
		t.Error("empty digest must report NaN")
	}
	td.Observe(7)
	if got := td.Quantile(0.5); got != 7 {
		t.Errorf("single-sample median = %g", got)
	}
	if !math.IsNaN(td.Quantile(-0.1)) || !math.IsNaN(td.Quantile(1.1)) || !math.IsNaN(td.Quantile(math.NaN())) {
		t.Error("out-of-range p must be NaN")
	}
	td.Observe(math.NaN())
	if !math.IsNaN(td.Quantile(0.5)) || !math.IsNaN(td.Max()) {
		t.Error("NaN observation must poison the digest")
	}
	poisoned := NewTDigest(0)
	poisoned.Observe(math.NaN())
	fresh := NewTDigest(0)
	fresh.Observe(1)
	fresh.Merge(poisoned)
	if !math.IsNaN(fresh.Quantile(0.5)) {
		t.Error("merging a poisoned digest must poison the target")
	}
}
