package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestMannWhitneyIdenticalSamples(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	res, err := MannWhitney(xs, xs)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.9 {
		t.Errorf("identical samples p = %v, want ~1", res.P)
	}
}

func TestMannWhitneyShiftedSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 60)
	ys := make([]float64, 60)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64() + 2 // clearly shifted
	}
	res, err := MannWhitney(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Errorf("shifted samples p = %v, want ~0", res.P)
	}
	if res.Z > 0 {
		t.Errorf("z = %v, want negative (first sample smaller)", res.Z)
	}
}

func TestMannWhitneyKnownU(t *testing.T) {
	// Textbook example: xs = {1,2}, ys = {3,4,5}: U1 = 0.
	res, err := MannWhitney([]float64{1, 2}, []float64{3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.U != 0 {
		t.Errorf("U = %v, want 0", res.U)
	}
	// Reversed: U1 = n1*n2 = 6.
	res, err = MannWhitney([]float64{3, 4, 5}, []float64{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.U != 6 {
		t.Errorf("U = %v, want 6", res.U)
	}
}

func TestMannWhitneyAllTied(t *testing.T) {
	res, err := MannWhitney([]float64{5, 5}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 {
		t.Errorf("all-tied p = %v, want 1", res.P)
	}
}

func TestMannWhitneyEmpty(t *testing.T) {
	if _, err := MannWhitney(nil, []float64{1}); err != ErrEmpty {
		t.Errorf("error = %v, want ErrEmpty", err)
	}
}

// legacyMannWhitney is the two-sort implementation MannWhitney replaced:
// Ranks over the pooled sample, then a second sort for the tie term.
func legacyMannWhitney(xs, ys []float64) MannWhitneyResult {
	n1, n2 := float64(len(xs)), float64(len(ys))
	combined := append(append([]float64(nil), xs...), ys...)
	ranks := Ranks(combined)
	var r1 float64
	for i := range xs {
		r1 += ranks[i]
	}
	u1 := r1 - n1*(n1+1)/2
	sorted := append([]float64(nil), combined...)
	sort.Float64s(sorted)
	var tieSum float64
	n := len(sorted)
	for i := 0; i < n; {
		j := i
		for j < n && sorted[j] == sorted[i] {
			j++
		}
		t := float64(j - i)
		tieSum += t*t*t - t
		i = j
	}
	nn := n1 + n2
	variance := n1 * n2 / 12 * ((nn + 1) - tieSum/(nn*(nn-1)))
	res := MannWhitneyResult{U: u1}
	if variance <= 0 {
		res.P = 1
		return res
	}
	diff := u1 - n1*n2/2
	switch {
	case diff > 0.5:
		diff -= 0.5
	case diff < -0.5:
		diff += 0.5
	default:
		diff = 0
	}
	res.Z = diff / math.Sqrt(variance)
	res.P = 2 * normalSurvival(math.Abs(res.Z))
	if res.P > 1 {
		res.P = 1
	}
	return res
}

// TestMannWhitneyMatchesLegacy pins the one-sort test, and the rank-sum
// entry point it shares with the one-vs-rest table, bit-for-bit to the
// two-sort implementation across tie-free, tie-heavy and all-tied
// samples of unequal sizes.
func TestMannWhitneyMatchesLegacy(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		levels := []int{0, 1, 3, 50}[trial%4] // 0: continuous values
		draw := func(n int, shift float64) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				if levels == 0 {
					xs[i] = rng.ExpFloat64() + shift
				} else {
					xs[i] = float64(rng.Intn(levels)) + math.Round(shift)
				}
			}
			return xs
		}
		xs, ys := draw(1+rng.Intn(60), 0), draw(1+rng.Intn(200), rng.Float64())
		want := legacyMannWhitney(xs, ys)
		got, err := MannWhitney(xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.U) != math.Float64bits(want.U) ||
			math.Float64bits(got.Z) != math.Float64bits(want.Z) ||
			math.Float64bits(got.P) != math.Float64bits(want.P) {
			t.Fatalf("trial %d: got %+v, want %+v", trial, got, want)
		}
	}
}

func TestKendallTauPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	tau, err := KendallTau(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tau, 1, 1e-12) {
		t.Errorf("tau = %v, want 1", tau)
	}
	rev := []float64{40, 30, 20, 10}
	tau, _ = KendallTau(xs, rev)
	if !almostEqual(tau, -1, 1e-12) {
		t.Errorf("tau = %v, want -1", tau)
	}
}

func TestKendallTauKnownValue(t *testing.T) {
	// Hand-computed: xs={1,2,3}, ys={1,3,2}: pairs (1,2)C (1,3)C (2,3)D
	// -> tau = (2-1)/3.
	tau, err := KendallTau([]float64{1, 2, 3}, []float64{1, 3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(tau, 1.0/3, 1e-12) {
		t.Errorf("tau = %v, want 1/3", tau)
	}
}

func TestKendallTauTies(t *testing.T) {
	// All xs tied: denominator collapses -> NaN.
	tau, err := KendallTau([]float64{1, 1, 1}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(tau) {
		t.Errorf("degenerate tau = %v, want NaN", tau)
	}
}

func TestKendallTauErrors(t *testing.T) {
	if _, err := KendallTau([]float64{1}, []float64{1, 2}); err != ErrMismatch {
		t.Errorf("mismatch error = %v", err)
	}
	if _, err := KendallTau([]float64{1}, []float64{1}); err != ErrEmpty {
		t.Errorf("short error = %v", err)
	}
}

func TestGini(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"perfectly even", []float64{5, 5, 5, 5}, 0},
		{"single holder", []float64{10}, 0},
		// All mass on one of four holders: G = (n-1)/n = 0.75.
		{"maximal concentration", []float64{0, 0, 0, 10}, 0.75},
		{"all zeros", []float64{0, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Gini(tt.in)
			if err != nil {
				t.Fatal(err)
			}
			if !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Gini = %v, want %v", got, tt.want)
			}
		})
	}
	if _, err := Gini(nil); err != ErrEmpty {
		t.Errorf("empty error = %v", err)
	}
	if _, err := Gini([]float64{1, -1}); err == nil {
		t.Error("negative values should fail")
	}
}

func TestGiniMonotoneInConcentration(t *testing.T) {
	even, _ := Gini([]float64{3, 3, 3, 3})
	mild, _ := Gini([]float64{1, 2, 4, 5})
	strong, _ := Gini([]float64{0, 0, 1, 11})
	if !(even < mild && mild < strong) {
		t.Errorf("Gini not increasing with concentration: %v, %v, %v", even, mild, strong)
	}
}

func TestLorenz(t *testing.T) {
	curve, err := Lorenz([]float64{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 4 {
		t.Fatalf("curve = %+v", curve)
	}
	if curve[0].PopShare != 0 || curve[0].MassShare != 0 {
		t.Error("curve should start at the origin")
	}
	last := curve[len(curve)-1]
	if !almostEqual(last.PopShare, 1, 1e-12) || !almostEqual(last.MassShare, 1, 1e-12) {
		t.Errorf("curve should end at (1,1): %+v", last)
	}
	// Lorenz curves lie under the diagonal and are non-decreasing.
	prev := LorenzPoint{}
	for _, pt := range curve {
		if pt.MassShare > pt.PopShare+1e-12 {
			t.Errorf("curve above diagonal at %+v", pt)
		}
		if pt.MassShare < prev.MassShare || pt.PopShare < prev.PopShare {
			t.Errorf("curve not monotone at %+v", pt)
		}
		prev = pt
	}
	if _, err := Lorenz(nil); err != ErrEmpty {
		t.Errorf("empty error = %v", err)
	}
}

func TestNormalSurvival(t *testing.T) {
	if got := normalSurvival(0); !almostEqual(got, 0.5, 1e-12) {
		t.Errorf("S(0) = %v", got)
	}
	if got := normalSurvival(1.959964); !almostEqual(got, 0.025, 1e-6) {
		t.Errorf("S(1.96) = %v, want 0.025", got)
	}
}

func TestMannKendallTrend(t *testing.T) {
	increasing := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
	res, err := MannKendall(increasing)
	if err != nil {
		t.Fatal(err)
	}
	if res.S != 66 { // all 66 pairs concordant
		t.Errorf("S = %d, want 66", res.S)
	}
	if res.P > 1e-4 {
		t.Errorf("monotone series p = %v, want ~0", res.P)
	}
	if res.Z <= 0 {
		t.Errorf("Z = %v, want positive for an increasing series", res.Z)
	}
}

func TestMannKendallNoTrend(t *testing.T) {
	flat := []float64{5, 3, 6, 4, 5, 6, 3, 5, 4, 6, 5, 4}
	res, err := MannKendall(flat)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.1 {
		t.Errorf("trendless series p = %v, want large", res.P)
	}
}

func TestMannKendallAllTied(t *testing.T) {
	res, err := MannKendall([]float64{7, 7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 || res.S != 0 {
		t.Errorf("all-tied result = %+v, want S=0 p=1", res)
	}
}

func TestMannKendallErrors(t *testing.T) {
	if _, err := MannKendall([]float64{1, 2}); err != ErrEmpty {
		t.Errorf("short series error = %v", err)
	}
}
