package sim

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/failures"
)

// ProcessesFromLog fits one FailureProcess per category with at least
// minCount records: the inter-arrival model is the best parametric fit
// (exponential/Weibull/log-normal by KS distance) and the repair model is
// the smoothed empirical distribution of observed recovery times. This is
// the bridge from the paper's measurement half to its operational-
// implications half: analyze a log, then simulate policy changes against
// the fitted processes.
func ProcessesFromLog(log *failures.Log, minCount int) ([]FailureProcess, error) {
	if log.Len() == 0 {
		return nil, fmt.Errorf("sim: empty log")
	}
	if minCount < 3 {
		minCount = 3
	}
	counts := log.ByCategory()
	var procs []FailureProcess
	for _, cat := range failures.SortedCategories(counts) {
		if counts[cat] < minCount {
			continue
		}
		sub := log.Filter(func(f failures.Failure) bool { return f.Category == cat })
		gaps := sub.InterarrivalHours()
		gaps = positiveOnly(gaps)
		if len(gaps) < 2 {
			continue
		}
		fit, err := dist.FitBest(gaps)
		if err != nil {
			return nil, fmt.Errorf("sim: fitting inter-arrivals for %s: %w", cat, err)
		}
		repairs := positiveOnly(sub.RecoveryHours())
		if len(repairs) == 0 {
			continue
		}
		repair, err := dist.NewEmpirical(repairs, true)
		if err != nil {
			return nil, fmt.Errorf("sim: repair model for %s: %w", cat, err)
		}
		scope := ScopeNode
		if cat == failures.CatRack {
			scope = ScopeRack
		}
		procs = append(procs, FailureProcess{
			Category:     cat,
			Interarrival: fit.Dist,
			Repair:       repair,
			Scope:        scope,
			Involvement:  involvementPMF(sub, failures.GPUsPerNode(log.System())),
		})
	}
	if len(procs) == 0 {
		return nil, fmt.Errorf("sim: no category has %d+ records with positive gaps", minCount)
	}
	return procs, nil
}

// involvementPMF estimates the Table III involvement distribution of a
// category sub-log; nil when the category never reports involved cards.
func involvementPMF(sub *failures.Log, slots int) []float64 {
	if slots < 1 {
		return nil
	}
	counts := make([]int, slots)
	total := 0
	for _, r := range sub.Records() {
		k := len(r.GPUs)
		if k < 1 {
			continue
		}
		if k > slots {
			k = slots
		}
		counts[k-1]++
		total++
	}
	if total == 0 {
		return nil
	}
	pmf := make([]float64, slots)
	for i, c := range counts {
		pmf[i] = float64(c) / float64(total)
	}
	return pmf
}

func positiveOnly(xs []float64) []float64 {
	out := xs[:0:0]
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}
