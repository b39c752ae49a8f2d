package core

import (
	"sort"
	"time"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/stats"
)

// MonthBucket aggregates one calendar month (across years) of a log:
// Figure 11's monthly recovery-time boxes and Figure 12's monthly failure
// counts share this type.
type MonthBucket struct {
	Month    time.Month
	Failures int
	// TTR summarizes the recovery hours of the month's failures; zero
	// value when the month has no failures.
	TTR stats.Summary
}

// monthlySeasonality computes the per-calendar-month failure counts and
// recovery-time distributions (RQ5, Figures 11 and 12). All twelve months
// are returned in calendar order, including empty ones.
func monthlySeasonality(ix *index.View) ([]MonthBucket, error) {
	if ix.Len() == 0 {
		return nil, ErrEmptyLog
	}
	counts := ix.MonthlyCounts()
	sorted := ix.SortedMonthlyRecoveryHours()
	out := make([]MonthBucket, 12)
	for i := 0; i < 12; i++ {
		m := time.Month(i + 1)
		out[i] = MonthBucket{Month: m, Failures: counts[m]}
		if counts[m] > 0 {
			sum, err := stats.SummarizeSorted(sorted[m])
			if err != nil {
				return nil, err
			}
			out[i].TTR = sum
		}
	}
	return out, nil
}

// SeasonalCorrelation is the density-vs-recovery correlation test of RQ5:
// the paper finds that months with more failures do not systematically
// show longer recoveries.
type SeasonalCorrelation struct {
	// Spearman is the rank correlation between monthly failure count and
	// monthly mean recovery time across the twelve calendar months.
	Spearman float64
	// SecondHalfTTRRatio is mean TTR of July-December over January-June;
	// the paper sees an elevation (> 1) on Tsubame-2 only.
	SecondHalfTTRRatio float64
	// ChiSquareP is the p-value of a uniformity test on monthly counts;
	// small values mean the monthly density genuinely varies (Figure 12).
	ChiSquareP float64
}

// seasonalAnalysis runs the density-versus-recovery tests over the monthly
// buckets.
func seasonalAnalysis(ix *index.View) (SeasonalCorrelation, error) {
	buckets, err := monthlySeasonality(ix)
	if err != nil {
		return SeasonalCorrelation{}, err
	}
	var counts []float64
	var means []float64
	var obs []int
	for _, b := range buckets {
		if b.Failures == 0 {
			continue
		}
		counts = append(counts, float64(b.Failures))
		means = append(means, b.TTR.Mean)
	}
	for _, b := range buckets {
		obs = append(obs, b.Failures)
	}
	rho, err := stats.Spearman(counts, means)
	if err != nil {
		return SeasonalCorrelation{}, err
	}
	var firstSum, firstN, secondSum, secondN float64
	for _, b := range buckets {
		if b.Failures == 0 {
			continue
		}
		total := b.TTR.Mean * float64(b.Failures)
		if b.Month <= time.June {
			firstSum += total
			firstN += float64(b.Failures)
		} else {
			secondSum += total
			secondN += float64(b.Failures)
		}
	}
	ratio := 0.0
	if firstN > 0 && secondN > 0 && firstSum > 0 {
		ratio = (secondSum / secondN) / (firstSum / firstN)
	}
	_, chiP, err := stats.ChiSquareUniform(obs)
	if err != nil {
		return SeasonalCorrelation{}, err
	}
	return SeasonalCorrelation{Spearman: rho, SecondHalfTTRRatio: ratio, ChiSquareP: chiP}, nil
}

// YearMonthCount is a (year, month) failure tally for chronological
// monthly series.
type YearMonthCount struct {
	Year     int
	Month    time.Month
	Failures int
}

// MonthlySeries returns the chronological month-by-month failure counts
// over the log window, including zero months.
func MonthlySeries(log *failures.Log) ([]YearMonthCount, error) {
	start, end, ok := log.Window()
	if !ok {
		return nil, ErrEmptyLog
	}
	counts := make(map[[2]int]int)
	for _, r := range log.Records() {
		counts[[2]int{r.Time.Year(), int(r.Time.Month())}]++
	}
	var out []YearMonthCount
	cursor := time.Date(start.Year(), start.Month(), 1, 0, 0, 0, 0, time.UTC)
	for !cursor.After(end) {
		key := [2]int{cursor.Year(), int(cursor.Month())}
		out = append(out, YearMonthCount{Year: cursor.Year(), Month: cursor.Month(), Failures: counts[key]})
		cursor = cursor.AddDate(0, 1, 0)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Year != out[j].Year {
			return out[i].Year < out[j].Year
		}
		return out[i].Month < out[j].Month
	})
	return out, nil
}
