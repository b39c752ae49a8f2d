package core

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/failures"
	"repro/internal/stats"
)

// WindowMTBF is one point of a rolling reliability series: the MTBF
// measured over [Start, Start+Window).
type WindowMTBF struct {
	Start     time.Time
	Failures  int
	MTBFHours float64
}

// RollingMTBF computes the failure rate over sliding windows across the
// log, stepping stepDays at a time. It surfaces reliability drift inside
// one system generation (burn-in, aging, fleet interventions) that the
// single whole-log MTBF hides. Windows with fewer than two failures carry
// the window length as a lower-bound MTBF and Failures reflects the true
// count.
//
// The log is chronological, so each half-open window [cursor,
// cursor+window) is the record range between two binary searches: the
// cost is O(w log n) for w windows, with no record copied.
func RollingMTBF(log *failures.Log, windowDays, stepDays int) ([]WindowMTBF, error) {
	n := log.Len()
	if n < 2 {
		return nil, ErrTooFewRecords
	}
	if windowDays < 1 || stepDays < 1 {
		return nil, fmt.Errorf("core: rolling MTBF needs positive window and step, got %d/%d", windowDays, stepDays)
	}
	start, end, _ := log.Window()
	window := time.Duration(windowDays) * 24 * time.Hour
	step := time.Duration(stepDays) * 24 * time.Hour
	firstAtOrAfter := func(t time.Time) int {
		return sort.Search(n, func(i int) bool { return !log.At(i).Time.Before(t) })
	}

	var series []WindowMTBF
	for cursor := start; cursor.Before(end); cursor = cursor.Add(step) {
		lo, hi := firstAtOrAfter(cursor), firstAtOrAfter(cursor.Add(window))
		pt := WindowMTBF{Start: cursor, Failures: hi - lo}
		if pt.Failures >= 2 {
			gap := log.At(hi - 1).Time.Sub(log.At(lo).Time).Hours()
			pt.MTBFHours = gap / float64(pt.Failures-1)
		} else {
			pt.MTBFHours = window.Hours()
		}
		series = append(series, pt)
	}
	if len(series) == 0 {
		return nil, ErrTooFewRecords
	}
	return series, nil
}

// MTBFTrend summarizes a rolling series: the ratio of the mean MTBF in
// the final third of the series to the first third (>1 means the system
// got more reliable over its life).
func MTBFTrend(series []WindowMTBF) (float64, error) {
	if len(series) < 3 {
		return 0, ErrTooFewRecords
	}
	third := len(series) / 3
	var early, late float64
	for i := 0; i < third; i++ {
		early += series[i].MTBFHours
	}
	for i := len(series) - third; i < len(series); i++ {
		late += series[i].MTBFHours
	}
	if early == 0 {
		return 0, fmt.Errorf("core: degenerate early MTBF")
	}
	return late / early, nil
}

// MTBFTrendTest applies the Mann-Kendall monotone-trend test to a rolling
// series; a small p-value means the within-generation reliability drift
// is statistically real rather than windowing noise.
func MTBFTrendTest(series []WindowMTBF) (stats.MannKendallResult, error) {
	values := make([]float64, len(series))
	for i, pt := range series {
		values[i] = pt.MTBFHours
	}
	return stats.MannKendall(values)
}
