package conform

import (
	"fmt"
	"math"
	"strings"
)

// Report is the machine-readable result of one conformance evaluation,
// serialized as JSON by cmd/tsubame-conform and archived as a CI
// artifact. Statistics that are NaN are omitted rather than serialized
// (JSON has no NaN).
type Report struct {
	Tool        string        `json:"tool"`
	System      string        `json:"system"`
	Profile     string        `json:"profile"`
	Seeds       []int64       `json:"seeds"`
	Alpha       float64       `json:"alpha"`
	Budget      float64       `json:"budget"`
	PooledAlpha float64       `json:"pooled_alpha"`
	Pass        bool          `json:"pass"`
	Checks      []CheckResult `json:"checks"`
}

// CheckResult is one check's row in the report.
type CheckResult struct {
	Name        string   `json:"name"`
	Kind        Kind     `json:"kind"`
	Anchor      string   `json:"anchor"`
	Description string   `json:"description"`
	Tolerance   string   `json:"tolerance"`
	Pass        bool     `json:"pass"`
	Stat        *float64 `json:"stat,omitempty"`
	P           *float64 `json:"p,omitempty"`
	Seeds       int      `json:"seeds,omitempty"`
	FailedSeeds int      `json:"failed_seeds,omitempty"`
	// AllowedFailures is the binomial seed-failure budget of test checks.
	AllowedFailures int    `json:"allowed_failures,omitempty"`
	Detail          string `json:"detail,omitempty"`
}

// setStat records the headline statistic, omitting NaN and infinities.
func (r *CheckResult) setStat(v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.Stat = &v
	}
}

// setP records the p-value, omitting NaN.
func (r *CheckResult) setP(v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		r.P = &v
	}
}

// Failed returns the failing checks.
func (r *Report) Failed() []CheckResult {
	var out []CheckResult
	for _, c := range r.Checks {
		if !c.Pass {
			out = append(out, c)
		}
	}
	return out
}

// Summary renders a one-line human verdict.
func (r *Report) Summary() string {
	failed := r.Failed()
	if len(failed) == 0 {
		return fmt.Sprintf("%s: PASS (%d checks over %d seeds)", r.System, len(r.Checks), len(r.Seeds))
	}
	names := make([]string, 0, len(failed))
	for _, c := range failed {
		names = append(names, c.Name)
	}
	return fmt.Sprintf("%s: FAIL %d/%d checks (%s)", r.System, len(failed), len(r.Checks), strings.Join(names, ", "))
}
