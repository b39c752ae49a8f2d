package conform

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/failures"
	"repro/internal/stats"
)

// seedEval extracts, once per generated log, every derived statistic the
// checks consume, so a spec with thirty checks still walks the records a
// constant number of times. De-seasonalized quantities use the spec's
// anchored calendar model, not the profile under test: if the profile's
// seasonal constants drift, the de-warped samples stop matching the
// anchored base distributions and the distributional checks fail.
type seedEval struct {
	seed int64
	log  *failures.Log
	n    int

	byCat map[failures.Category]int

	// Arrival process.
	windowViolations int
	gapSumHours      float64 // raw inter-arrival hours
	gapCount         int
	// unitGaps are the arrival gaps mapped through the inverse seasonal
	// warp and rescaled so that, under the calibrated model, they are an
	// i.i.d.-like sample from Weibull(shape, 1).
	unitGaps []float64

	// Repair process. ttr holds de-seasonalized repair hours for the
	// spec's headline categories; maxTTR the raw per-category maximum.
	ttr         failures.PerCategory[[]float64]
	maxTTR      failures.PerCategory[float64]
	ttrSumHours float64
	ttrCount    int
	// Raw repair sums by calendar half (Figure 11's seasonal contrast).
	h1Sum, h2Sum float64
	h1N, h2N     int

	monthly [12]int

	// GPU spatial statistics.
	slotIncidents []int // per-slot card incidents, all GPU-carrying records
	invCounts     []int // CatGPU events by involvement size (index size-1)
	overInvolved  int   // CatGPU events larger than the anchored PMF support

	// Node statistics (node-attributable records only).
	singleNodes, twoNodes, multiNodes, totalNodes int
	swOnMulti                                     int

	// clusterRatio is median gap between consecutive multi-GPU events
	// over the evenly-spread expectation (Figure 8); NaN when the log has
	// fewer than three multi-GPU events.
	clusterRatio float64

	causes map[failures.SoftwareCause]int
}

func newSeedEval(s *Spec, seed int64, log *failures.Log) (*seedEval, error) {
	records := log.Records()
	n := len(records)
	if n == 0 {
		return nil, fmt.Errorf("conform: empty log for seed %d", seed)
	}
	slots := failures.GPUsPerNode(s.System)
	ev := &seedEval{
		seed:          seed,
		log:           log,
		n:             n,
		byCat:         log.ByCategory(),
		slotIncidents: make([]int, slots),
		invCounts:     make([]int, len(s.anchored.GPUInvolvementPMF)),
		clusterRatio:  math.NaN(),
		causes:        make(map[failures.SoftwareCause]int, 16),
	}
	var headline failures.PerCategory[bool]
	for _, c := range s.ttrCats {
		headline[c] = true
	}

	nodeCounts := log.ByNode()
	for _, c := range nodeCounts {
		ev.totalNodes++
		switch {
		case c == 1:
			ev.singleNodes++
		case c == 2:
			ev.twoNodes++
			ev.multiNodes++
		default:
			ev.multiNodes++
		}
	}

	var positions []float64
	var multiTimes []float64 // hours since first record, multi-GPU events
	var t0 = records[0].Time
	for i := range records {
		r := &records[i]
		if r.Time.Before(s.anchored.Start) || r.Time.After(s.anchored.End) {
			ev.windowViolations++
		}
		positions = append(positions, s.warp.Position(r.Time))
		if i > 0 {
			ev.gapSumHours += r.Time.Sub(records[i-1].Time).Hours()
			ev.gapCount++
		}

		hours := r.Recovery.Hours()
		ev.ttrSumHours += hours
		ev.ttrCount++
		if hours > ev.maxTTR[r.Category] {
			ev.maxTTR[r.Category] = hours
		}
		month := int(r.Time.Month()) - 1
		ev.monthly[month]++
		if month < 6 {
			ev.h1Sum += hours
			ev.h1N++
		} else {
			ev.h2Sum += hours
			ev.h2N++
		}
		if headline[r.Category] {
			mult := s.anchored.MonthlyTTRMultipliers[month]
			if mult > 0 {
				ev.ttr[r.Category] = append(ev.ttr[r.Category], hours/mult)
			}
		}

		for _, g := range r.GPUs {
			if g >= 0 && g < slots {
				ev.slotIncidents[g]++
			}
		}
		if r.Category == failures.CatGPU {
			k := len(r.GPUs)
			if k >= 1 && k <= len(ev.invCounts) {
				ev.invCounts[k-1]++
			} else if k > len(ev.invCounts) {
				ev.overInvolved++
			}
		}
		if r.MultiGPU() {
			multiTimes = append(multiTimes, r.Time.Sub(t0).Hours())
		}

		if r.Node != "" && r.Software() && nodeCounts[r.Node] >= 2 {
			ev.swOnMulti++
		}
		if r.SoftwareCause != 0 {
			ev.causes[r.SoftwareCause]++
		}
	}

	ev.unitGaps = unitScaleGaps(positions, s.anchored.TBFShape)
	ev.clusterRatio = clusterRatio(multiTimes)
	return ev, nil
}

// unitScaleGaps maps the warped arrival positions back to gaps that are,
// under the calibrated renewal model, a unit-scale Weibull sample: the
// de-warped spacings are Weibull(shape, sigma)/total for the seed's
// random total, so rescaling the sample to the shape's theoretical mean
// gamma(1+1/shape) removes the per-seed normalization (a one-parameter
// fit that makes the pooled KS slightly conservative, never optimistic).
func unitScaleGaps(positions []float64, shape float64) []float64 {
	if len(positions) < 2 {
		return nil
	}
	sorted := append([]float64(nil), positions...)
	// Positions of a chronologically sorted log are already ascending;
	// re-sorting keeps EvaluateLogs safe on arbitrary record orders.
	sort.Float64s(sorted)
	gaps := make([]float64, 0, len(sorted)-1)
	var sum float64
	for i := 1; i < len(sorted); i++ {
		du := sorted[i] - sorted[i-1]
		gaps = append(gaps, du)
		sum += du
	}
	if !(sum > 0) {
		return nil
	}
	mean := sum / float64(len(gaps))
	scale := math.Gamma(1+1/shape) / mean
	for i := range gaps {
		gaps[i] *= scale
	}
	return gaps
}

// clusterRatio quantifies Figure 8's temporal bunching: the median gap
// between consecutive multi-GPU events divided by the evenly-spread
// expectation over the same span. Below 1 means clustering.
func clusterRatio(multiTimes []float64) float64 {
	if len(multiTimes) < 3 {
		return math.NaN()
	}
	gaps := make([]float64, len(multiTimes)-1)
	for i := 1; i < len(multiTimes); i++ {
		gaps[i-1] = multiTimes[i] - multiTimes[i-1]
	}
	expected := (multiTimes[len(multiTimes)-1] - multiTimes[0]) / float64(len(gaps))
	if !(expected > 0) {
		return math.NaN()
	}
	return stats.Median(gaps) / expected
}
