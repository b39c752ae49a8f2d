package dist

import (
	"math"
	"testing"
	"testing/quick"
)

func sampleN(d Distribution, n int, seed int64) []float64 {
	rng := NewRNG(seed)
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = d.Sample(rng)
	}
	return xs
}

func TestFitExponentialRecovers(t *testing.T) {
	truth, _ := NewExponential(15.3)
	xs := sampleN(truth, 20000, 1)
	fit, err := FitExponential(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.MeanVal-15.3) > 0.5 {
		t.Errorf("fitted mean = %v, want ~15.3", fit.MeanVal)
	}
}

func TestFitExponentialErrors(t *testing.T) {
	if _, err := FitExponential(nil); err == nil {
		t.Error("empty sample should fail")
	}
	if _, err := FitExponential([]float64{1, -2}); err == nil {
		t.Error("negative observation should fail")
	}
	if _, err := FitExponential([]float64{1, 0}); err == nil {
		t.Error("zero observation should fail")
	}
}

func TestFitWeibullRecovers(t *testing.T) {
	for _, shape := range []float64{0.74, 1.5} {
		truth, _ := NewWeibull(shape, 80)
		xs := sampleN(truth, 20000, 2)
		fit, err := FitWeibull(xs)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fit.K-shape) > 0.05*shape+0.02 {
			t.Errorf("fitted shape = %v, want ~%v", fit.K, shape)
		}
		if math.Abs(fit.Lambda-80) > 3 {
			t.Errorf("fitted scale = %v, want ~80", fit.Lambda)
		}
	}
}

func TestFitWeibullErrors(t *testing.T) {
	if _, err := FitWeibull([]float64{5}); err == nil {
		t.Error("single observation should fail")
	}
	if _, err := FitWeibull([]float64{1, -1}); err == nil {
		t.Error("negative observation should fail")
	}
}

func TestFitLogNormalRecovers(t *testing.T) {
	truth, _ := NewLogNormal(3.4, 0.9)
	xs := sampleN(truth, 20000, 3)
	fit, err := FitLogNormal(xs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mu-3.4) > 0.03 || math.Abs(fit.Sigma-0.9) > 0.03 {
		t.Errorf("fit = (%v, %v), want ~(3.4, 0.9)", fit.Mu, fit.Sigma)
	}
}

func TestFitLogNormalErrors(t *testing.T) {
	if _, err := FitLogNormal([]float64{5}); err == nil {
		t.Error("single observation should fail")
	}
	if _, err := FitLogNormal([]float64{1, 0}); err == nil {
		t.Error("zero observation should fail")
	}
	if _, err := FitLogNormal([]float64{7, 7, 7}); err == nil {
		t.Error("degenerate sample should fail")
	}
}

func TestFitBestSelectsGeneratingFamily(t *testing.T) {
	tests := []struct {
		name  string
		truth Distribution
		want  string
	}{
		{"weibull 0.74", mustWeibull(t, 0.74, 72), "weibull"},
		{"lognormal", mustLogNormal(t, 3.2, 1.1), "lognormal"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			xs := sampleN(tt.truth, 15000, 4)
			best, err := FitBest(xs)
			if err != nil {
				t.Fatal(err)
			}
			if best.Name != tt.want {
				t.Errorf("selected %q (KS=%v), want %q", best.Name, best.KS, tt.want)
			}
		})
	}
}

func TestFitAllOrderedByKS(t *testing.T) {
	truth, _ := NewExponential(20)
	xs := sampleN(truth, 5000, 5)
	fits, err := FitAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 3 {
		t.Fatalf("FitAll returned %d fits, want 3", len(fits))
	}
	for i := 1; i < len(fits); i++ {
		if fits[i].KS < fits[i-1].KS {
			t.Errorf("fits not sorted by KS: %v", fits)
		}
	}
	// Exponential data: the exponential fit's KS must be competitive —
	// within a whisker of the best (Weibull nests it and can edge ahead).
	var expKS float64
	for _, f := range fits {
		if f.Name == "exponential" {
			expKS = f.KS
		}
	}
	if expKS > fits[0].KS+0.02 {
		t.Errorf("exponential KS %v is far from best %v on exponential data", expKS, fits[0].KS)
	}
}

func TestFitAllNoFamilyFits(t *testing.T) {
	if _, err := FitAll([]float64{-1, -2}); err == nil {
		t.Error("all-negative sample should fail")
	}
}

func mustWeibull(t *testing.T, k, lambda float64) Weibull {
	t.Helper()
	w, err := NewWeibull(k, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func mustLogNormal(t *testing.T, mu, sigma float64) LogNormal {
	t.Helper()
	l, err := NewLogNormal(mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// Property: the Weibull MLE shape equation is satisfied at the returned
// fit, and FitExponential returns the sample mean exactly.
func TestFitExponentialIsSampleMeanProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := NewRNG(seed)
		n := 2 + rng.Intn(50)
		xs := make([]float64, n)
		var sum float64
		for i := range xs {
			xs[i] = rng.ExpFloat64()*40 + 1e-9
			sum += xs[i]
		}
		fit, err := FitExponential(xs)
		if err != nil {
			return false
		}
		return math.Abs(fit.MeanVal-sum/float64(n)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPointDistribution(t *testing.T) {
	p, err := NewPoint(7.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewRNG(1)
	for i := 0; i < 10; i++ {
		if p.Sample(rng) != 7.5 {
			t.Fatal("point mass sampled a different value")
		}
	}
	if p.Mean() != 7.5 || p.Var() != 0 {
		t.Errorf("moments = %v, %v", p.Mean(), p.Var())
	}
	if p.CDF(7.4) != 0 || p.CDF(7.5) != 1 {
		t.Error("CDF should step at the value")
	}
	if p.Quantile(0.3) != 7.5 {
		t.Error("quantile should be the value")
	}
	if !math.IsNaN(p.Quantile(-1)) {
		t.Error("invalid quantile should be NaN")
	}
	if _, err := NewPoint(-1); err == nil {
		t.Error("negative point mass should fail")
	}
}

func TestFitAICPrefersGeneratingFamily(t *testing.T) {
	truth, _ := NewLogNormal(3.2, 1.1)
	xs := sampleN(truth, 10000, 9)
	fits, err := FitAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	bestAIC := fits[0]
	for _, f := range fits[1:] {
		if f.AIC < bestAIC.AIC {
			bestAIC = f
		}
	}
	if bestAIC.Name != "lognormal" {
		t.Errorf("AIC selected %q, want lognormal", bestAIC.Name)
	}
}

func TestLogLikelihoodFiniteness(t *testing.T) {
	e, _ := NewExponential(15)
	w, _ := NewWeibull(0.74, 80)
	l, _ := NewLogNormal(3, 1)
	xs := sampleN(e, 500, 2)
	for name, ll := range map[string]float64{
		"exp":     exponentialLogLik(e, xs),
		"weibull": weibullLogLik(w, xs),
		"lognorm": logNormalLogLik(l, xs),
	} {
		if math.IsNaN(ll) || math.IsInf(ll, 0) {
			t.Errorf("%s log-likelihood = %v", name, ll)
		}
	}
	// The true family should have the highest likelihood on its own data.
	fitted, _ := FitExponential(xs)
	if exponentialLogLik(fitted, xs) < weibullLogLik(w, xs) {
		t.Error("fitted exponential should beat an arbitrary Weibull on exponential data")
	}
}

// exponentialLogLik is the exponential log-likelihood of positive xs.
// FitAll's scoring sweep computes these three log-likelihoods term for
// term from the sample's shared logs; these standalone forms are the
// reference it is checked against.
func exponentialLogLik(e Exponential, xs []float64) float64 {
	logMean := math.Log(e.MeanVal)
	var ll float64
	for _, x := range xs {
		ll += -logMean - x/e.MeanVal
	}
	return ll
}

// weibullLogLik is the Weibull log-likelihood of positive xs.
func weibullLogLik(w Weibull, xs []float64) float64 {
	logK, logL := math.Log(w.K), math.Log(w.Lambda)
	var ll float64
	for _, x := range xs {
		z := x / w.Lambda
		ll += logK - logL + (w.K-1)*(math.Log(x)-logL) - math.Pow(z, w.K)
	}
	return ll
}

// logNormalLogLik is the log-normal log-likelihood of positive xs.
func logNormalLogLik(l LogNormal, xs []float64) float64 {
	c := -0.5*math.Log(2*math.Pi) - math.Log(l.Sigma)
	var ll float64
	for _, x := range xs {
		z := (math.Log(x) - l.Mu) / l.Sigma
		ll += c - math.Log(x) - z*z/2
	}
	return ll
}

// TestFitAllAICMatchesReferenceLogLik pins FitAll's scoring sweep, which
// reads each observation's log from the sample's one log pass, to the
// standalone log-likelihoods bit for bit.
func TestFitAllAICMatchesReferenceLogLik(t *testing.T) {
	truth, _ := NewWeibull(0.8, 40)
	xs := sampleN(truth, 3000, 11)
	fits, err := FitAll(xs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fits {
		var want float64
		switch d := f.Dist.(type) {
		case Exponential:
			want = 2 - 2*exponentialLogLik(d, xs)
		case Weibull:
			want = 4 - 2*weibullLogLik(d, xs)
		case LogNormal:
			want = 4 - 2*logNormalLogLik(d, xs)
		}
		if math.Float64bits(want) != math.Float64bits(f.AIC) {
			t.Errorf("%s: AIC %v, reference %v", f.Name, f.AIC, want)
		}
	}
}
