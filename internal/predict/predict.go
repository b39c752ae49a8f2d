// Package predict implements the failure predictors the paper's RQ5
// summary calls for ("leveraging failure prediction to initiate recovery
// proactively"): an online per-category rate estimator used by the
// predictive spare-provisioning policy, and a temporal-locality predictor
// that exploits the Figure 8 observation that simultaneous multi-GPU
// failures cluster in time.
package predict

import (
	"fmt"

	"repro/internal/failures"
)

// EWMARate estimates per-category failure rates with an exponentially
// weighted moving average over observed inter-arrival gaps. The zero
// value is unusable; construct with NewEWMARate.
type EWMARate struct {
	alpha float64
	state failures.PerCategory[ewmaState]
}

type ewmaState struct {
	lastSeen float64
	meanGap  float64 // EWMA of inter-arrival gaps in hours
	observed int
}

// NewEWMARate builds a rate estimator with smoothing factor alpha in
// (0, 1]: higher alpha reacts faster to rate changes.
func NewEWMARate(alpha float64) (*EWMARate, error) {
	if !(alpha > 0) || alpha > 1 {
		return nil, fmt.Errorf("predict: alpha %v outside (0, 1]", alpha)
	}
	return &EWMARate{alpha: alpha}, nil
}

// Observe records a failure of cat at time now (hours). Out-of-order
// observations are ignored.
func (e *EWMARate) Observe(cat failures.Category, now float64) {
	st := &e.state[cat]
	if st.observed == 0 {
		*st = ewmaState{lastSeen: now, observed: 1}
		return
	}
	gap := now - st.lastSeen
	if gap < 0 {
		return
	}
	st.lastSeen = now
	st.observed++
	if st.observed == 2 {
		st.meanGap = gap
		return
	}
	st.meanGap = e.alpha*gap + (1-e.alpha)*st.meanGap
}

// RatePerHour returns the estimated failure rate of cat, or 0 before two
// observations exist.
func (e *EWMARate) RatePerHour(cat failures.Category) float64 {
	st := e.state.At(cat)
	if st.observed < 2 || st.meanGap <= 0 {
		return 0
	}
	return 1 / st.meanGap
}

// ExpectedWithin returns the expected number of cat failures in the next
// horizon hours.
func (e *EWMARate) ExpectedWithin(cat failures.Category, horizon float64) float64 {
	if horizon < 0 {
		return 0
	}
	return e.RatePerHour(cat) * horizon
}
