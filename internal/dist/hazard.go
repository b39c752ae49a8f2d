package dist

import "math"

// Hazard functions h(x) = f(x)/S(x): the instantaneous failure rate at
// age x given survival to x. They drive the aging/burn-in discussion of
// the survival extension: exponential lifetimes have constant hazard,
// Weibull shape < 1 decreasing hazard (infant mortality), shape > 1
// increasing (wear-out).

// Hazard returns the exponential's constant rate 1/mean.
func (e Exponential) Hazard(x float64) float64 {
	if x < 0 {
		return 0
	}
	return 1 / e.MeanVal
}

// Hazard returns (k/lambda) * (x/lambda)^(k-1).
func (w Weibull) Hazard(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x == 0 {
		switch {
		case w.K < 1:
			return math.Inf(1)
		case w.K == 1:
			return 1 / w.Lambda
		default:
			return 0
		}
	}
	return w.K / w.Lambda * math.Pow(x/w.Lambda, w.K-1)
}

// Hazard returns the log-normal hazard f(x)/S(x) (non-monotone: rises
// then falls, the classic repair-time signature).
func (l LogNormal) Hazard(x float64) float64 {
	if x <= 0 {
		return 0
	}
	z := (math.Log(x) - l.Mu) / l.Sigma
	pdf := math.Exp(-z*z/2) / (x * l.Sigma * math.Sqrt(2*math.Pi))
	surv := 1 - l.CDF(x)
	if surv <= 0 {
		return math.Inf(1)
	}
	return pdf / surv
}
