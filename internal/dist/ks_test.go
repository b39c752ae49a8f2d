package dist_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/synth"
	"repro/internal/testutil"
)

// ksPlain is the KS statistic as the fitting path computed it before the
// certified search: the CDF at every order statistic. It is the oracle
// dist.KSStatisticSorted must match bit for bit.
func ksPlain(sorted []float64, cdf func(float64) float64) float64 {
	n := float64(len(sorted))
	var d float64
	for i, x := range sorted {
		f := cdf(x)
		d = math.Max(d, math.Max(math.Abs(f-float64(i)/n), math.Abs(float64(i+1)/n-f)))
	}
	return d
}

// sameKS reports whether the certified search and the plain scan score a
// sorted sample against cdf with the same bits.
func sameKS(sorted []float64, cdf func(float64) float64) error {
	got, want := dist.KSStatisticSorted(sorted, cdf), ksPlain(sorted, cdf)
	if math.Float64bits(got) != math.Float64bits(want) {
		return fmt.Errorf("n=%d: KS %v (%#x), plain scan %v (%#x)",
			len(sorted), got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return nil
}

// sameFitKS fits xs and checks every family's KS against the plain scan
// over the sorted sample, and the same for each fitted distribution with
// its scale stretched by 1.3, whose worse fit moves d and so which gaps
// the search skips.
func sameFitKS(xs []float64) error {
	fits, err := dist.FitAll(xs)
	if err != nil {
		return testutil.Skip
	}
	sorted := slices.Clone(xs)
	sort.Float64s(sorted)
	for _, f := range fits {
		if want := ksPlain(sorted, f.Dist.CDF); math.Float64bits(f.KS) != math.Float64bits(want) {
			return fmt.Errorf("%s on n=%d: FitAll KS %v, plain scan %v", f.Name, len(xs), f.KS, want)
		}
		stretched := func(x float64) float64 { return f.Dist.CDF(x / 1.3) }
		if err := sameKS(sorted, stretched); err != nil {
			return fmt.Errorf("%s stretched: %w", f.Name, err)
		}
	}
	return nil
}

// genKSSample draws a positive sample of 1 to 5000 values from one of six
// shapes: exponential, log-normal, Weibull-like, five-value ties,
// subnormal, or an e^(30·N) spread over hundreds of decades.
func genKSSample(g *testutil.Gen) []float64 {
	n := g.Range(1, 5000)
	kind := g.Intn(6)
	rng := rand.New(rand.NewSource(int64(g.Uint64(0))))
	scale := math.Pow(10, 6*g.Float64()-3)
	shape := 0.3 + 3*g.Float64()
	ties := make([]float64, 5)
	for i := range ties {
		ties[i] = scale * (1 + rng.ExpFloat64())
	}
	xs := make([]float64, n)
	for i := range xs {
		switch kind {
		case 0:
			xs[i] = scale * rng.ExpFloat64()
		case 1:
			xs[i] = scale * math.Exp(rng.NormFloat64()/shape)
		case 2:
			xs[i] = scale * math.Pow(rng.ExpFloat64(), 1/shape)
		case 3:
			xs[i] = ties[rng.Intn(len(ties))]
		case 4:
			xs[i] = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
		case 5:
			xs[i] = math.Exp(30 * rng.NormFloat64())
		}
		if xs[i] == 0 {
			xs[i] = math.SmallestNonzeroFloat64
		}
	}
	return xs
}

// TestPropertyKSMatchesPlainScan is the certified search's exactness
// claim on samples of every fitted family and on the shapes that stress
// the CDFs' rounding: ties, subnormals and extreme spreads.
func TestPropertyKSMatchesPlainScan(t *testing.T) {
	testutil.Check(t, 300, func(g *testutil.Gen) error {
		return sameFitKS(genKSSample(g))
	})
}

// TestKSMatchesPlainScanLarge repeats the check on samples as large as a
// fleet-scale category, where the coarse pass skips the most.
func TestKSMatchesPlainScanLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 6; trial++ {
		xs := make([]float64, 20_000+rng.Intn(40_000))
		for i := range xs {
			switch trial % 3 {
			case 0:
				xs[i] = 40 * rng.ExpFloat64()
			case 1:
				xs[i] = math.Exp(1 + 2*rng.NormFloat64())
			case 2:
				xs[i] = 72.6 * math.Pow(rng.ExpFloat64(), 1/0.74)
			}
		}
		if err := sameFitKS(xs); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestKSGuards covers the inputs the search hands to the plain scan: a
// sample holding ±Inf or NaN (sorted NaN-first, as sort.Float64s does),
// and a CDF that is NaN everywhere.
func TestKSGuards(t *testing.T) {
	base := make([]float64, 500)
	for i := range base {
		base[i] = float64(i + 1)
	}
	exp, err := dist.NewExponential(200)
	if err != nil {
		t.Fatal(err)
	}
	nanCDF := dist.Exponential{MeanVal: math.NaN()}
	for name, c := range map[string]struct {
		xs  []float64
		cdf func(float64) float64
	}{
		"+Inf":     {append(slices.Clone(base), math.Inf(1)), exp.CDF},
		"-Inf":     {append([]float64{math.Inf(-1)}, base...), exp.CDF},
		"NaN":      {append([]float64{math.NaN()}, base...), exp.CDF},
		"NaN CDF":  {base, nanCDF.CDF},
		"tiny":     {base[:3], exp.CDF},
		"empty":    {nil, exp.CDF},
		"one step": {base[:65], exp.CDF},
	} {
		if err := sameKS(c.xs, c.cdf); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestKSFitReport100k scores every sample of the fit report on the
// 100,048-record Tsubame-3 log (the published profile with every count
// ×296, seed 42) and requires FitAll's KS to equal the plain scan's for
// every family. On the system-wide recovery sample the search must
// evaluate the CDF at under 10% of the points.
func TestKSFitReport100k(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 100k-record log")
	}
	p := synth.Tsubame3Profile()
	for i := range p.Categories {
		p.Categories[i].Count *= 296
	}
	for i := range p.SoftwareCauses {
		p.SoftwareCauses[i].Count *= 296
	}
	p.NodeCount *= 296
	p.SoftwareOnMultiNodes *= 296
	log, err := synth.Generate(p, 42)
	if err != nil {
		t.Fatal(err)
	}

	positive := func(xs []float64) []float64 {
		return slices.DeleteFunc(xs, func(x float64) bool { return !(x > 0) })
	}
	samples := [][]float64{positive(log.InterarrivalHours()), positive(log.RecoveryHours())}
	for cat, n := range log.ByCategory() {
		if n >= 10 {
			sub := log.Filter(func(f failures.Failure) bool { return f.Category == cat })
			samples = append(samples, positive(sub.InterarrivalHours()), positive(sub.RecoveryHours()))
		}
	}
	var calls, points int
	for s, xs := range samples {
		if err := sameFitKS(xs); err != nil && !errors.Is(err, testutil.Skip) {
			t.Fatalf("sample %d: %v", s, err)
		}
		fits, err := dist.FitAll(xs)
		if err != nil {
			continue
		}
		sorted := slices.Clone(xs)
		sort.Float64s(sorted)
		for _, f := range fits {
			var c int
			dist.KSStatisticSorted(sorted, func(x float64) float64 { c++; return f.Dist.CDF(x) })
			calls, points = calls+c, points+len(sorted)
			if s == 1 && 10*c >= len(sorted) {
				t.Errorf("system-wide TTR, %s: %d CDF calls for %d points, want under 10%%", f.Name, c, len(sorted))
			}
		}
	}
	t.Logf("%d samples: %d CDF calls for %d order statistics", len(samples), calls, points)
}
