package core

import (
	"context"
	"sort"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/stats"
)

// TTRResult summarizes the system-wide time-to-recovery distribution (RQ5,
// Figure 9).
type TTRResult struct {
	N                int
	MTTRHours        float64
	P25, Median, P75 float64
	MaxHours         float64
	CDF              *stats.ECDF
}

// ttrAnalysis computes the time-to-recovery distribution of the whole log.
// It mirrors tbfAnalysis: chronological series for the mean, shared
// sorted arena for the ECDF, quantiles, and maximum.
func ttrAnalysis(ix *index.View) (*TTRResult, error) {
	hours := ix.RecoveryHours()
	if len(hours) == 0 {
		return nil, ErrEmptyLog
	}
	sorted := ix.SortedRecoveryHours()
	cdf, err := stats.NewECDFSorted(sorted)
	if err != nil {
		return nil, err
	}
	qs := stats.QuantilesSorted(sorted, quartiles)
	return &TTRResult{
		N:         len(hours),
		MTTRHours: stats.Mean(hours),
		P25:       qs[0],
		Median:    qs[1],
		P75:       qs[2],
		MaxHours:  cdf.Max(),
		CDF:       cdf,
	}, nil
}

// ttrByCategory computes the recovery-time distribution per category for
// categories with at least minCount records, sorted by ascending mean
// recovery time (Figure 10's ordering). The per-category summaries fan
// out across a bounded worker pool; results are identical under any
// width.
func ttrByCategory(ix *index.View, minCount, parallelism int) ([]CategoryDurations, error) {
	if ix.Len() == 0 {
		return nil, ErrEmptyLog
	}
	if minCount < 1 {
		minCount = 1
	}
	cats := categoriesWithAtLeast(ix.CategoryCounts(), minCount)
	rows, err := parallel.Map(context.Background(), parallelism, cats, func(_ context.Context, _ int, cat failures.Category) (*CategoryDurations, error) {
		sum, err := stats.SummarizeSorted(ix.SortedCategoryRecovery(cat))
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
		return nil, ErrEmptyLog
	}
	return out, nil
}

// SpreadComparison contrasts the recovery-time spread (IQR) of hardware
// and software failures; the paper observes hardware repairs spread wider
// (RQ5, Figure 10 discussion).
type SpreadComparison struct {
	HardwareIQRHours float64
	SoftwareIQRHours float64
	HardwareMean     float64
	SoftwareMean     float64
}

// TTRSpread computes the hardware-versus-software recovery spread.
func TTRSpread(log *failures.Log) (SpreadComparison, error) {
	return ttrSpread(index.New(log))
}

func ttrSpread(ix *index.View) (SpreadComparison, error) {
	hw := ix.SortedHardwareRecoveryHours()
	sw := ix.SortedSoftwareRecoveryHours()
	if len(hw) == 0 || len(sw) == 0 {
		return SpreadComparison{}, ErrEmptyLog
	}
	hwSum, err := stats.SummarizeSorted(hw)
	if err != nil {
		return SpreadComparison{}, err
	}
	swSum, err := stats.SummarizeSorted(sw)
	if err != nil {
		return SpreadComparison{}, err
	}
	return SpreadComparison{
		HardwareIQRHours: hwSum.IQR(),
		SoftwareIQRHours: swSum.IQR(),
		HardwareMean:     hwSum.Mean,
		SoftwareMean:     swSum.Mean,
	}, nil
}

// TTRSignificance is one category's one-vs-rest recovery-time comparison:
// the statistical form of the paper's Figure 10 observation that "the
// time to recovery distribution varies significantly across failure
// types".
type TTRSignificance struct {
	Category failures.Category
	N        int
	// MeanHours is the category's mean recovery; RestMeanHours is the
	// mean over every other record.
	MeanHours, RestMeanHours float64
	// P is the two-sided Mann-Whitney p-value of the category's recovery
	// times against the rest of the log.
	P float64
}

// TTRSignificanceByCategory runs a one-vs-rest Mann-Whitney test for each
// category with at least minCount records (clamped to 2), sorted by
// ascending p-value. It indexes log afresh; callers holding a view use
// TTRSignificanceView.
func TTRSignificanceByCategory(log *failures.Log, minCount int) ([]TTRSignificance, error) {
	return TTRSignificanceView(index.New(log), minCount)
}

// TTRSignificanceView is TTRSignificanceByCategory over an already-built
// index. "Category ∪ rest" is always the whole log, so every test ranks
// against the one sorted recovery arena: its tie term is computed once,
// and a category's rank sum comes from binary-searching each run of its
// own sorted arena in the global one. The cost is O(n) for the tie term
// and the sums plus O(d log n) per category with d distinct values, on
// top of the sorted arenas, which the RQ battery has usually built
// already.
func TTRSignificanceView(ix *index.View, minCount int) ([]TTRSignificance, error) {
	if ix.Len() == 0 {
		return nil, ErrEmptyLog
	}
	if minCount < 2 {
		minCount = 2
	}
	all := ix.SortedRecoveryHours()
	n := len(all)
	tieSum := stats.TieSum(all)
	counts := ix.CategoryCounts()
	cats := failures.SortedCategories(counts)
	// The rest of the log sums its categories' sums in category order, so
	// RestMeanHours is deterministic and, all terms being non-negative,
	// free of the cancellation a whole-minus-category difference suffers
	// when one category dominates.
	sums := make([]float64, len(cats))
	for i, cat := range cats {
		sums[i] = stats.Sum(ix.CategoryRecovery(cat))
	}
	rest := make([]float64, 0, len(cats))
	var out []TTRSignificance
	for i, cat := range cats {
		nCat := counts[cat]
		if nCat < minCount || nCat == n {
			continue
		}
		mw, err := stats.MannWhitneyFromRankSum(rankSum(all, ix.SortedCategoryRecovery(cat)), nCat, n-nCat, tieSum)
		if err != nil {
			return nil, err
		}
		rest = append(append(rest[:0], sums[:i]...), sums[i+1:]...)
		out = append(out, TTRSignificance{
			Category:      cat,
			N:             nCat,
			MeanHours:     stats.Mean(ix.CategoryRecovery(cat)),
			RestMeanHours: stats.Sum(rest) / float64(n-nCat),
			P:             mw.P,
		})
	}
	if len(out) == 0 {
		return nil, ErrEmptyLog
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].Category < out[j].Category
	})
	return out, nil
}

// rankSum returns the sum of the mid-ranks, within the ascending arena
// all, of the values of sub, an ascending sub-multiset of all. Each run
// of equal values in sub occupies all[lo:hi] and takes the mid-rank
// (lo+1+hi)/2 that stats.Ranks assigns; runs ascend, so each search
// starts where the previous run ended.
func rankSum(all, sub []float64) float64 {
	var sum float64
	lo := 0
	for i := 0; i < len(sub); {
		v := sub[i]
		j := i + 1
		for j < len(sub) && sub[j] == v {
			j++
		}
		lo += sort.SearchFloat64s(all[lo:], v)
		hi := lo + sort.Search(len(all)-lo, func(k int) bool { return all[lo+k] > v })
		sum += float64(j-i) * (float64(lo+1+hi) / 2)
		lo, i = hi, j
	}
	return sum
}
