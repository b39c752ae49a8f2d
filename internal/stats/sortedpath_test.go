package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// shuffled returns a deterministic pseudo-random sample and its sorted
// copy, the fixture of every sorted-path equivalence test below.
func shuffled(n int, seed int64) (xs, sorted []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs = make([]float64, n)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 55
	}
	sorted = append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return xs, sorted
}

// TestSummarizeSortedMatchesSummarize pins the sorted path bit-identical
// to the cloning path: the analysis index swaps one for the other, so any
// divergence here would break the byte-identical report goldens.
func TestSummarizeSortedMatchesSummarize(t *testing.T) {
	xs, sorted := shuffled(10_000, 1)
	want, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SummarizeSorted(sorted)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("SummarizeSorted = %+v, Summarize = %+v", got, want)
	}
}

func TestSummarizeSortedEdgeCases(t *testing.T) {
	if _, err := SummarizeSorted(nil); err != ErrEmpty {
		t.Errorf("empty sample: got %v, want ErrEmpty", err)
	}
	s, err := SummarizeSorted([]float64{1, math.NaN(), 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 3 || !math.IsNaN(s.Median) || !math.IsNaN(s.Mean) {
		t.Errorf("NaN sample must poison the summary, got %+v", s)
	}
}

// TestQuantilesSortedMatchesQuantiles pins the arena path to the cloning
// path across valid, invalid, and boundary probabilities.
func TestQuantilesSortedMatchesQuantiles(t *testing.T) {
	xs, sorted := shuffled(4_097, 2)
	ps := []float64{0, 0.25, 0.5, 0.75, 0.95, 1, -0.1, 1.1, math.NaN()}
	want := Quantiles(xs, ps)
	got := QuantilesSorted(sorted, ps)
	for i := range ps {
		if math.IsNaN(want[i]) != math.IsNaN(got[i]) || (!math.IsNaN(want[i]) && want[i] != got[i]) {
			t.Errorf("p=%v: QuantilesSorted=%v, Quantiles=%v", ps[i], got[i], want[i])
		}
	}
}

func TestQuantilesSortedPoisonsOnNaN(t *testing.T) {
	out := QuantilesSorted([]float64{1, 2, math.NaN()}, []float64{0.5})
	if !math.IsNaN(out[0]) {
		t.Errorf("NaN sample must poison quantiles, got %v", out[0])
	}
	out = QuantilesSorted(nil, []float64{0.5})
	if !math.IsNaN(out[0]) {
		t.Errorf("empty sample must poison quantiles, got %v", out[0])
	}
}

// TestSummarizeAllocs is the allocation regression gate of the sorted
// summary path: SummarizeSorted must not allocate at all. A clone
// creeping back in fails here before it shows up in the benchmark
// trajectory.
func TestSummarizeAllocs(t *testing.T) {
	_, sorted := shuffled(10_000, 3)
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := SummarizeSorted(sorted); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("SummarizeSorted allocated %v times per run, want 0", allocs)
	}
}

// TestQuantilesSortedAllocs pins the multi-quantile arena path to its
// single output-slice allocation: the P25/P50/P75 triple that used to
// cost three clones and three sorts now costs one 3-element slice.
func TestQuantilesSortedAllocs(t *testing.T) {
	_, sorted := shuffled(10_000, 4)
	ps := []float64{0.25, 0.5, 0.75, 0.95}
	if allocs := testing.AllocsPerRun(50, func() {
		QuantilesSorted(sorted, ps)
	}); allocs > 1 {
		t.Errorf("QuantilesSorted allocated %v times per run, want <= 1 (the output slice)", allocs)
	}
}

func TestNewECDFSorted(t *testing.T) {
	xs, sorted := shuffled(1_000, 5)
	want, err := NewECDF(xs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewECDFSorted(sorted)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		if got.Quantile(p) != want.Quantile(p) {
			t.Errorf("p=%v: sorted ECDF quantile %v, cloning ECDF %v", p, got.Quantile(p), want.Quantile(p))
		}
	}
	if got.N() != want.N() || got.Min() != want.Min() || got.Max() != want.Max() {
		t.Error("sorted ECDF endpoints diverged from cloning constructor")
	}
	if _, err := NewECDFSorted(nil); err != ErrEmpty {
		t.Errorf("empty input: got %v, want ErrEmpty", err)
	}
	if _, err := NewECDFSorted([]float64{2, 1}); err != ErrUnsorted {
		t.Errorf("unsorted input: got %v, want ErrUnsorted", err)
	}
}

// TestNewECDFSortedAliasesInput documents the zero-copy contract: the
// sorted constructor must NOT clone, so the index arena is shared rather
// than duplicated per consumer.
func TestNewECDFSortedAliasesInput(t *testing.T) {
	sorted := []float64{1, 2, 3}
	e, err := NewECDFSorted(sorted)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		if _, err := NewECDFSorted(sorted); err != nil {
			t.Fatal(err)
		}
	}); allocs > 1 {
		t.Errorf("NewECDFSorted allocated %v times per run, want <= 1 (the ECDF header)", allocs)
	}
	if e.Quantile(0.5) != 2 {
		t.Errorf("median = %v, want 2", e.Quantile(0.5))
	}
}
