package core

import (
	"math"
	"time"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/stats"
)

// MultiGPUTemporalResult quantifies the temporal clustering of
// simultaneous multi-GPU failures (RQ4, Figure 8): whether a failure that
// took down several GPUs on one node is likely to be followed by another
// such failure soon.
type MultiGPUTemporalResult struct {
	// MultiEvents is the number of failures involving >= 2 GPUs.
	MultiEvents int
	// MedianGapHours is the median gap between consecutive multi-GPU
	// failures.
	MedianGapHours float64
	// ExpectedGapHours is the gap multi-GPU failures would show if they
	// were spread evenly over the multi-GPU failure window.
	ExpectedGapHours float64
	// ClusteringScore is ExpectedGapHours / MedianGapHours: 1 means no
	// clustering, above 1 means multi-GPU failures bunch together in time.
	ClusteringScore float64
	// WithinWindowPercent is the share of multi-GPU failures whose nearest
	// multi-GPU neighbour falls within WindowHours.
	WithinWindowPercent float64
	WindowHours         float64
	// Gaps holds the consecutive multi-GPU gap sample in hours.
	Gaps []float64
}

// multiGPUTemporal analyzes the clustering of multi-GPU failures using the
// given proximity window (hours).
func multiGPUTemporal(ix *index.View, windowHours float64) (*MultiGPUTemporalResult, error) {
	var times []time.Time
	for _, r := range ix.Records() {
		if r.MultiGPU() {
			times = append(times, r.Time)
		}
	}
	if len(times) < 2 {
		return nil, ErrTooFewRecords
	}
	gaps := make([]float64, len(times)-1)
	for i := 1; i < len(times); i++ {
		gaps[i-1] = times[i].Sub(times[i-1]).Hours()
	}
	span := times[len(times)-1].Sub(times[0]).Hours()
	expected := span / float64(len(gaps))
	median := stats.Median(gaps)

	within := 0
	for i := range times {
		near := false
		if i > 0 && times[i].Sub(times[i-1]).Hours() <= windowHours {
			near = true
		}
		if i+1 < len(times) && times[i+1].Sub(times[i]).Hours() <= windowHours {
			near = true
		}
		if near {
			within++
		}
	}

	score := 0.0
	if median > 0 {
		score = expected / median
	}
	return &MultiGPUTemporalResult{
		MultiEvents:         len(times),
		MedianGapHours:      median,
		ExpectedGapHours:    expected,
		ClusteringScore:     score,
		WithinWindowPercent: 100 * float64(within) / float64(len(times)),
		WindowHours:         windowHours,
		Gaps:                gaps,
	}, nil
}

// DailyAutocorrelation returns the lag-k autocorrelation of the daily
// failure-count series — a whole-log view of temporal clustering that
// complements the multi-GPU-specific Figure 8 analysis. Positive lag-1
// values mean failure-heavy days cluster.
func DailyAutocorrelation(log *failures.Log, lagDays int) (float64, error) {
	start, end, ok := log.Window()
	if !ok {
		return 0, ErrEmptyLog
	}
	days := int(end.Sub(start).Hours()/24) + 1
	if days < lagDays+2 {
		return 0, ErrTooFewRecords
	}
	counts := make([]float64, days)
	for _, r := range log.Records() {
		day := int(r.Time.Sub(start).Hours() / 24)
		if day >= 0 && day < days {
			counts[day]++
		}
	}
	ac := stats.AutoCorrelation(counts, lagDays)
	if math.IsNaN(ac) {
		return 0, ErrTooFewRecords
	}
	return ac, nil
}
