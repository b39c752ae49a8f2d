package core

import (
	"context"
	"slices"
	"sort"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// quartiles are the probabilities of the boxplot-style P25/Median/P75
// readouts; both TBF and TTR read all three off one sorted arena.
var quartiles = []float64{0.25, 0.50, 0.75}

// TBFResult summarizes the system-wide time-between-failures distribution
// (RQ4, Figure 6).
type TBFResult struct {
	// N is the number of inter-arrival gaps (records - 1).
	N int
	// MTBFHours is the mean gap.
	MTBFHours float64
	// P25, Median, P75 are gap quantiles in hours; the paper reads the
	// 75th percentile off Figure 6 (20 h on Tsubame-2, 93 h on Tsubame-3).
	P25, Median, P75 float64
	// CDF is the empirical gap distribution for plotting.
	CDF *stats.ECDF
}

// tbfAnalysis computes the time-between-failures distribution of the whole
// log. It reads the gap series and its sorted arena off the index: the
// mean accumulates in chronological order (bit-identical to the
// historical path), while the ECDF and all three quantiles share the
// arena's single sort.
func tbfAnalysis(ix *index.View) (*TBFResult, error) {
	gaps := ix.InterarrivalHours()
	if len(gaps) == 0 {
		return nil, ErrTooFewRecords
	}
	sorted := ix.SortedInterarrivalHours()
	cdf, err := stats.NewECDFSorted(sorted)
	if err != nil {
		return nil, err
	}
	qs := stats.QuantilesSorted(sorted, quartiles)
	return &TBFResult{
		N:         len(gaps),
		MTBFHours: stats.Mean(gaps),
		P25:       qs[0],
		Median:    qs[1],
		P75:       qs[2],
		CDF:       cdf,
	}, nil
}

// CategoryDurations pairs a failure category with a duration summary; it
// is the row type of the per-category boxplot figures (Figures 7 and 10).
type CategoryDurations struct {
	Category failures.Category
	Summary  stats.Summary
}

// tbfByCategory computes the distribution of time between two failures of
// the same category, for every category with at least minCount failures
// (the paper's Figure 7 omits sparsely populated categories). Rows are
// sorted by ascending mean, matching the figure's ordering. The
// per-category summaries fan out across a bounded worker pool; results
// are identical under any width.
func tbfByCategory(ix *index.View, minCount, parallelism int) ([]CategoryDurations, error) {
	if ix.Len() == 0 {
		return nil, ErrEmptyLog
	}
	if minCount < 2 {
		minCount = 2
	}
	cats := categoriesWithAtLeast(ix.CategoryCounts(), minCount)
	rows, err := parallel.Map(context.Background(), parallelism, cats, func(_ context.Context, _ int, cat failures.Category) (*CategoryDurations, error) {
		gaps := ix.SortedCategoryGaps(cat)
		if len(gaps) == 0 {
			return nil, nil
		}
		sum, err := stats.SummarizeSorted(gaps)
		if err != nil {
			return nil, nil // degenerate category: skipped, as sequentially
		}
		return &CategoryDurations{Category: cat, Summary: sum}, nil
	})
	if err != nil {
		return nil, err
	}
	out := collectDurations(rows)
	if len(out) == 0 {
		return nil, ErrTooFewRecords
	}
	return out, nil
}

// categoriesWithAtLeast returns the categories with minCount+ records in
// a deterministic order, the fan-out work list of the per-type analyses.
func categoriesWithAtLeast(counts map[failures.Category]int, minCount int) []failures.Category {
	return slices.DeleteFunc(failures.SortedCategories(counts), func(c failures.Category) bool { return counts[c] < minCount })
}

// collectDurations drops skipped categories and applies the boxplot
// figures' ascending-mean ordering.
func collectDurations(rows []*CategoryDurations) []CategoryDurations {
	out := make([]CategoryDurations, 0, len(rows))
	for _, r := range rows {
		if r != nil {
			out = append(out, *r)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Summary.Mean != out[j].Summary.Mean {
			return out[i].Summary.Mean < out[j].Summary.Mean
		}
		return out[i].Category < out[j].Category
	})
	if len(out) == 0 {
		return nil
	}
	return out
}

// CategoryMTBF returns the mean time between failures of one category in
// hours, measured over the category's sub-log.
func CategoryMTBF(log *failures.Log, cat failures.Category) (float64, bool) {
	return categoryMTBF(index.New(log), cat)
}

// categoryMTBF averages the category's gap series with a plain running
// sum, replicating failures.Log.MTBFHours bit for bit (deliberately not
// stats.Mean, whose Kahan compensation can differ in the last ulp).
func categoryMTBF(ix *index.View, cat failures.Category) (float64, bool) {
	gaps := ix.CategoryGaps(cat)
	if len(gaps) == 0 {
		return 0, false
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	return sum / float64(len(gaps)), true
}

// GPUCardIncidentMTBF returns the mean time between GPU card incidents:
// each failure contributes one incident per involved card, the counting
// basis that best reconciles the paper's per-type GPU MTBF numbers with
// its Table III involvement counts.
func GPUCardIncidentMTBF(log *failures.Log) (float64, bool) {
	return gpuCardIncidentMTBF(index.New(log))
}

func gpuCardIncidentMTBF(ix *index.View) (float64, bool) {
	records := ix.GPURecords()
	var incidents int
	for _, r := range records {
		n := len(r.GPUs)
		if n == 0 {
			n = 1
		}
		incidents += n
	}
	if incidents < 2 || len(records) == 0 {
		return 0, false
	}
	window := records[len(records)-1].Time.Sub(records[0].Time)
	return window.Hours() / float64(incidents-1), true
}
