package dist

import (
	"math"
	"testing"
)

func TestExponentialContract(t *testing.T) {
	e, err := NewExponential(15.3)
	if err != nil {
		t.Fatal(err)
	}
	checkDistribution(t, e)
}

func TestExponentialAnalytic(t *testing.T) {
	e, _ := NewExponential(15)
	if !almostEqual(e.Mean(), 15, 1e-12) || !almostEqual(e.Var(), 225, 1e-12) {
		t.Errorf("moments = %v, %v", e.Mean(), e.Var())
	}
	// The Tsubame-2 signature: p75 = mean * ln 4 ~ 20.8 for mean 15.
	if !almostEqual(e.Quantile(0.75), 15*math.Log(4), 1e-9) {
		t.Errorf("p75 = %v, want %v", e.Quantile(0.75), 15*math.Log(4))
	}
	if !math.IsInf(e.Quantile(1), 1) {
		t.Error("Quantile(1) should be +Inf")
	}
}

func TestNewExponentialRejectsBadMean(t *testing.T) {
	for _, mean := range []float64{0, -1, math.NaN()} {
		if _, err := NewExponential(mean); err == nil {
			t.Errorf("NewExponential(%v) should fail", mean)
		}
	}
}

func TestWeibullContract(t *testing.T) {
	for _, k := range []float64{0.74, 1.0, 2.0} {
		w, err := NewWeibull(k, 50)
		if err != nil {
			t.Fatal(err)
		}
		checkDistribution(t, w)
	}
}

func TestWeibullReducesToExponential(t *testing.T) {
	w, _ := NewWeibull(1, 20)
	e, _ := NewExponential(20)
	for _, x := range []float64{0.5, 5, 20, 80} {
		if !almostEqual(w.CDF(x), e.CDF(x), 1e-12) {
			t.Errorf("Weibull(1) CDF(%v) = %v, exponential = %v", x, w.CDF(x), e.CDF(x))
		}
	}
}

func TestWeibullFromMean(t *testing.T) {
	w, err := WeibullFromMean(0.74, 72.6)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(w.Mean(), 72.6, 1e-9) {
		t.Errorf("mean = %v, want 72.6", w.Mean())
	}
	// The Tsubame-3 signature: shape < 1 puts p75 below the exponential's
	// mean*ln4 while stretching the tail.
	exponentialP75 := 72.6 * math.Log(4)
	if w.Quantile(0.75) >= exponentialP75 {
		t.Errorf("p75 = %v, want below exponential %v", w.Quantile(0.75), exponentialP75)
	}
	if w.Quantile(0.99) <= 72.6*math.Log(100) {
		t.Errorf("p99 = %v, want above exponential tail %v", w.Quantile(0.99), 72.6*math.Log(100))
	}
}

func TestNewWeibullRejectsBadParams(t *testing.T) {
	if _, err := NewWeibull(0, 1); err == nil {
		t.Error("shape 0 should fail")
	}
	if _, err := NewWeibull(1, 0); err == nil {
		t.Error("scale 0 should fail")
	}
	if _, err := WeibullFromMean(-1, 5); err == nil {
		t.Error("negative shape should fail")
	}
}

func TestLogNormalContract(t *testing.T) {
	l, err := NewLogNormal(3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	checkDistribution(t, l)
}

func TestLogNormalFromMoments(t *testing.T) {
	l, err := LogNormalFromMoments(55, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(l.Mean(), 55, 1e-9) {
		t.Errorf("mean = %v, want 55", l.Mean())
	}
	if !almostEqual(l.Median(), 30, 1e-9) {
		t.Errorf("median = %v, want 30", l.Median())
	}
	if !almostEqual(l.CDF(30), 0.5, 1e-9) {
		t.Errorf("CDF(median) = %v, want 0.5", l.CDF(30))
	}
	if _, err := LogNormalFromMoments(30, 55); err == nil {
		t.Error("mean < median should fail")
	}
	if _, err := LogNormalFromMoments(55, 0); err == nil {
		t.Error("zero median should fail")
	}
}

func TestNormalQuantile(t *testing.T) {
	tests := []struct {
		p, want float64
	}{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.841344746, 1}, // Phi(1)
		{0.999, 3.090232},
	}
	for _, tt := range tests {
		if got := normalQuantile(tt.p); !almostEqual(got, tt.want, 1e-5) {
			t.Errorf("normalQuantile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestEmpiricalExactResample(t *testing.T) {
	obs := []float64{10, 20, 30}
	e, err := NewEmpirical(obs, false)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(3)
	seen := make(map[float64]bool)
	for i := 0; i < 300; i++ {
		x := e.Sample(rng)
		seen[x] = true
		if x != 10 && x != 20 && x != 30 {
			t.Fatalf("exact resample produced %v", x)
		}
	}
	if len(seen) != 3 {
		t.Errorf("300 draws hit only %d of 3 observations", len(seen))
	}
	if e.N() != 3 || !almostEqual(e.Mean(), 20, 1e-12) {
		t.Errorf("N/Mean = %d/%v", e.N(), e.Mean())
	}
}

func TestEmpiricalSmooth(t *testing.T) {
	obs := []float64{0, 100}
	e, err := NewEmpirical(obs, true)
	if err != nil {
		t.Fatal(err)
	}
	// The full contract check does not apply: the empirical CDF is a step
	// function while smooth sampling interpolates, so CDF(Quantile(p))
	// intentionally differs from p between observations.
	rng := NewRNG(8)
	interpolated := false
	for i := 0; i < 100; i++ {
		x := e.Sample(rng)
		if x > 1 && x < 99 {
			interpolated = true
		}
		if x < 0 || x > 100 {
			t.Fatalf("smooth sample %v outside hull", x)
		}
	}
	if !interpolated {
		t.Error("smooth sampling never interpolated between observations")
	}
}

func TestNewEmpiricalEmpty(t *testing.T) {
	if _, err := NewEmpirical(nil, false); err == nil {
		t.Error("empty observations should fail")
	}
}

func TestMixtureContract(t *testing.T) {
	quick, _ := NewLogNormal(2, 0.5)
	slow, _ := NewLogNormal(4.5, 0.6)
	m, err := NewMixture([]Distribution{quick, slow}, []float64{0.7, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	checkDistribution(t, m)
}

func TestMixtureMoments(t *testing.T) {
	a, _ := NewExponential(10)
	b, _ := NewExponential(100)
	m, err := NewMixture([]Distribution{a, b}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.Mean(), 55, 1e-9) {
		t.Errorf("mixture mean = %v, want 55", m.Mean())
	}
	// Law of total variance: 0.5*(100+10000) + 0.5*(45^2+45^2) = 7075.
	if !almostEqual(m.Var(), 7075, 1e-6) {
		t.Errorf("mixture variance = %v, want 7075", m.Var())
	}
}

func TestNewMixtureErrors(t *testing.T) {
	e, _ := NewExponential(1)
	if _, err := NewMixture(nil, nil); err == nil {
		t.Error("empty mixture should fail")
	}
	if _, err := NewMixture([]Distribution{e}, []float64{1, 2}); err == nil {
		t.Error("weight/component mismatch should fail")
	}
	if _, err := NewMixture([]Distribution{e}, []float64{-1}); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := NewMixture([]Distribution{e}, []float64{0}); err == nil {
		t.Error("zero-sum weights should fail")
	}
}

func TestTruncated(t *testing.T) {
	base, _ := NewLogNormal(4, 1)
	tr, err := NewTruncated(base, 290)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(17)
	for i := 0; i < 5000; i++ {
		if x := tr.Sample(rng); x > 290 {
			t.Fatalf("truncated sample %v above cap", x)
		}
	}
	if tr.CDF(290) != 1 {
		t.Errorf("CDF(cap) = %v, want 1", tr.CDF(290))
	}
	if tr.Mean() >= base.Mean() {
		t.Errorf("truncated mean %v should be below base mean %v", tr.Mean(), base.Mean())
	}
	// Quantile stays within [0, cap].
	for p := 0.0; p <= 1.0; p += 0.1 {
		q := tr.Quantile(p)
		if q < 0 || q > 290+1e-9 {
			t.Errorf("Quantile(%v) = %v outside [0, 290]", p, q)
		}
	}
	if _, err := NewTruncated(nil, 1); err == nil {
		t.Error("nil base should fail")
	}
	if _, err := NewTruncated(base, 0); err == nil {
		t.Error("non-positive cap should fail")
	}
	// A cap keeping <1% of the mass is rejected (rejection sampling would
	// stall).
	if _, err := NewTruncated(base, 0.01); err == nil {
		t.Error("cap below the 1% quantile should fail")
	}
}

func TestStringers(t *testing.T) {
	e, _ := NewExponential(15)
	w, _ := NewWeibull(0.74, 80)
	l, _ := NewLogNormal(3, 1)
	m, _ := NewMixture([]Distribution{e}, []float64{1})
	for _, d := range []Distribution{e, w, l, m} {
		if d.String() == "" {
			t.Errorf("%T has empty String()", d)
		}
	}
}

func TestExponentialHazardConstant(t *testing.T) {
	e, _ := NewExponential(15)
	for _, x := range []float64{0, 1, 15, 100} {
		if got := e.Hazard(x); !almostEqual(got, 1.0/15, 1e-12) {
			t.Errorf("h(%v) = %v, want 1/15", x, got)
		}
	}
	if e.Hazard(-1) != 0 {
		t.Error("negative age hazard should be 0")
	}
}

func TestWeibullHazardMonotonicity(t *testing.T) {
	// Shape < 1: decreasing hazard (the Tsubame-3 TBF regime).
	infant, _ := NewWeibull(0.74, 80)
	if !(infant.Hazard(1) > infant.Hazard(10) && infant.Hazard(10) > infant.Hazard(100)) {
		t.Error("k<1 hazard should decrease with age")
	}
	if !math.IsInf(infant.Hazard(0), 1) {
		t.Error("k<1 hazard at 0 should be +Inf")
	}
	// Shape > 1: increasing (wear-out).
	wearout, _ := NewWeibull(2, 80)
	if !(wearout.Hazard(1) < wearout.Hazard(10) && wearout.Hazard(10) < wearout.Hazard(100)) {
		t.Error("k>1 hazard should increase with age")
	}
	if wearout.Hazard(0) != 0 {
		t.Error("k>1 hazard at 0 should be 0")
	}
	// Shape = 1 reduces to the exponential's constant rate.
	exp1, _ := NewWeibull(1, 80)
	for _, x := range []float64{0, 5, 50} {
		if got := exp1.Hazard(x); !almostEqual(got, 1.0/80, 1e-12) {
			t.Errorf("k=1 h(%v) = %v, want 1/80", x, got)
		}
	}
}

func TestLogNormalHazardNonMonotone(t *testing.T) {
	l, _ := NewLogNormal(3, 1)
	// Rises from ~0, peaks, then falls: check low < mid and late < peak
	// region.
	early := l.Hazard(0.5)
	mid := l.Hazard(20)
	late := l.Hazard(2000)
	if !(early < mid) {
		t.Errorf("hazard should rise early: h(0.5)=%v h(20)=%v", early, mid)
	}
	if !(late < mid) {
		t.Errorf("hazard should fall late: h(2000)=%v h(20)=%v", late, mid)
	}
	if l.Hazard(0) != 0 {
		t.Error("hazard at 0 should be 0")
	}
}

func TestNumericHazardMatchesAnalytic(t *testing.T) {
	w, _ := NewWeibull(0.74, 80)
	for _, x := range []float64{5, 20, 80, 200} {
		analytic := w.Hazard(x)
		numeric := NumericHazard(w, x, 1e-4)
		if math.Abs(numeric-analytic) > 0.02*analytic {
			t.Errorf("numeric h(%v) = %v vs analytic %v", x, numeric, analytic)
		}
	}
}
