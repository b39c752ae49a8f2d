package core

import (
	"sort"

	"repro/internal/failures"
	"repro/internal/index"
)

// CategoryShare is one bar of Figure 2: a failure category's share of the
// log.
type CategoryShare struct {
	Category failures.Category
	Count    int
	Percent  float64
}

// categoryBreakdown computes the per-category failure shares (RQ1,
// Figure 2), sorted by descending count with ties broken by category name
// for determinism.
func categoryBreakdown(ix *index.View) ([]CategoryShare, error) {
	if ix.Len() == 0 {
		return nil, ErrEmptyLog
	}
	counts := ix.CategoryCounts()
	out := make([]CategoryShare, 0, len(counts))
	total := float64(ix.Len())
	for cat, n := range counts {
		out = append(out, CategoryShare{Category: cat, Count: n, Percent: 100 * float64(n) / total})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Category < out[j].Category
	})
	return out, nil
}

// ShareOf returns the percentage share of a category in the breakdown
// (0 when absent).
func ShareOf(breakdown []CategoryShare, cat failures.Category) float64 {
	for _, s := range breakdown {
		if s.Category == cat {
			return s.Percent
		}
	}
	return 0
}

// CauseShare is one bar of Figure 3: a software root locus' share of the
// software failures.
type CauseShare struct {
	Cause   failures.SoftwareCause
	Count   int
	Percent float64
}

// softwareCauses breaks the Software-category failures down by root locus
// (RQ1, Figure 3) and returns the top-k loci sorted by descending count.
// k <= 0 returns all loci. The percentages are relative to the software
// failures carrying a cause, matching the paper's "171 reported root
// loci" denominator.
func softwareCauses(ix *index.View, k int) ([]CauseShare, error) {
	causes := failures.SoftwareCauses()
	counts := make([]int, len(causes)) // by Figure 3 position
	total := 0
	for _, r := range ix.Records() {
		if i := r.SoftwareCause.Index(); i >= 0 {
			counts[i]++
			total++
		}
	}
	if total == 0 {
		return nil, ErrEmptyLog
	}
	var out []CauseShare
	for i, n := range counts {
		if n > 0 {
			out = append(out, CauseShare{Cause: causes[i], Count: n, Percent: 100 * float64(n) / float64(total)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Cause < out[j].Cause
	})
	if k > 0 && k < len(out) {
		out = out[:k]
	}
	return out, nil
}
