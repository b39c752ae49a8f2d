// Package index is the analysis engine's memoized read substrate: an
// immutable, lazily-built view over one failures.Log, constructed once
// per core.Run (and once per log in core.Compare) and shared by every
// analysis phase.
//
// Before the index, each of the ~15 phases of the battery independently
// re-copied the record slice (failures.Log.Records clones defensively),
// re-filtered the same per-category sub-logs, re-derived the same
// inter-arrival and recovery series, and re-sorted the same samples —
// the unsorted quantile, summary and ECDF entry points each cloned and
// sorted per call. On a 100k-record log that redundancy dominates the
// battery's wall clock. The index computes each of these facets exactly
// once:
//
//   - one shared chronological record slice (no per-phase clone),
//   - per-category and per-month partitions in one pass each,
//   - the inter-arrival and recovery series in log order (so means keep
//     their historical accumulation order bit-for-bit), and
//   - sorted-sample arenas for every series, feeding the sorted-path
//     stats APIs (QuantilesSorted, SummarizeSorted, NewECDFSorted) so
//     the hot path sorts each sample at most once.
//
// Concurrency: every facet is guarded by its own facetOnce (a sync.Once
// whose completion is observable — delta.go), so phases fanned out by
// internal/parallel can demand facets concurrently; the first caller
// builds, the rest wait, and no facet is built twice. All
// returned slices and maps are shared and MUST be treated as read-only —
// the analyses only read, which is what makes the whole battery
// race-free by construction (docs/PERFORMANCE.md).
//
// Determinism: a facet holds exactly the value the pre-index code
// computed — same element order, same floating-point accumulation order —
// so analyses running over the index are byte-identical to their
// history (pinned by the goldens in parallel_golden_test.go).
package index

import (
	"sort"
	"time"

	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/stats"
)

// View is the memoized read-only index over one log. Construct with New;
// the zero value is unusable. A View is safe for concurrent use.
type View struct {
	log *failures.Log

	recordsOnce facetOnce
	records     []failures.Failure

	catCountsOnce facetOnce
	catCounts     map[failures.Category]int

	nodesOnce  facetOnce
	nodeCounts map[string]int
	nodes      []string

	partitionOnce facetOnce
	catRecords    failures.PerCategory[[]failures.Failure]
	gpuRecords    []failures.Failure

	gapsOnce facetOnce
	gaps     []float64

	sortedGapsOnce facetOnce
	sortedGaps     []float64

	recoveryOnce facetOnce
	recovery     []float64

	sortedRecoveryOnce facetOnce
	sortedRecovery     []float64

	catSeriesOnce facetOnce
	catGaps       failures.PerCategory[[]float64]
	catRecovery   failures.PerCategory[[]float64]

	catSortedOnce     facetOnce
	catGapsSorted     failures.PerCategory[[]float64]
	catRecoverySorted failures.PerCategory[[]float64]

	monthlyOnce   facetOnce
	monthlyRecov  map[time.Month][]float64
	monthlySorted map[time.Month][]float64
	monthlyCounts map[time.Month]int

	hwswOnce   facetOnce
	hwRecovery []float64
	swRecovery []float64

	hwswSortedOnce   facetOnce
	hwRecoverySorted []float64
	swRecoverySorted []float64
}

// New builds an index over log. Construction is O(1): every facet is
// lazy, so a caller that touches two facets pays for two.
func New(log *failures.Log) *View { return &View{log: log} }

// Log returns the underlying log.
func (v *View) Log() *failures.Log { return v.log }

// Len returns the record count.
func (v *View) Len() int { return v.log.Len() }

// System returns the machine generation the log belongs to.
func (v *View) System() failures.System { return v.log.System() }

// Window returns the occurrence times of the first and last records.
func (v *View) Window() (start, end time.Time, ok bool) { return v.log.Window() }

// Span returns the duration between the first and last failure.
func (v *View) Span() time.Duration { return v.log.Span() }

// Records returns the chronologically ordered records. Unlike
// failures.Log.Records, the slice is built once and shared: callers must
// not mutate it.
func (v *View) Records() []failures.Failure {
	v.recordsOnce.Do(func() {
		defer obs.StartSpan("index/records").End()
		v.records = v.log.Records()
	})
	return v.records
}

// CategoryCounts returns record counts per category (shared map,
// read-only).
func (v *View) CategoryCounts() map[failures.Category]int {
	v.catCountsOnce.Do(func() {
		defer obs.StartSpan("index/category-counts").End()
		v.catCounts = v.log.ByCategory()
	})
	return v.catCounts
}

// NodeCounts returns record counts per node, skipping records without
// node attribution (shared map, read-only).
func (v *View) NodeCounts() map[string]int {
	v.buildNodes()
	return v.nodeCounts
}

// Nodes returns the sorted names of every node that appears in the log
// (shared slice, read-only).
func (v *View) Nodes() []string {
	v.buildNodes()
	return v.nodes
}

func (v *View) buildNodes() {
	v.nodesOnce.Do(func() {
		defer obs.StartSpan("index/nodes").End()
		records := v.Records()
		counts := make(map[string]int, len(records)/4)
		for i := range records {
			if records[i].Node != "" {
				counts[records[i].Node]++
			}
		}
		nodes := make([]string, 0, len(counts))
		for node := range counts {
			nodes = append(nodes, node)
		}
		sort.Strings(nodes)
		v.nodeCounts, v.nodes = counts, nodes
	})
}

// GPURecords returns the chronological sub-slice of records whose
// category involves GPU cards (shared, read-only).
func (v *View) GPURecords() []failures.Failure {
	v.buildPartitions()
	return v.gpuRecords
}

func (v *View) buildPartitions() {
	v.partitionOnce.Do(func() {
		defer obs.StartSpan("index/partitions").End()
		records := v.Records()
		// Exact-capacity partitions: one allocation per category instead of
		// an append growth ladder over 88-byte record structs.
		var byCat failures.PerCategory[[]failures.Failure]
		gpuTotal := 0
		for cat, n := range v.CategoryCounts() {
			byCat[cat] = make([]failures.Failure, 0, n)
			if cat.GPURelated() {
				gpuTotal += n
			}
		}
		var gpu []failures.Failure
		if gpuTotal > 0 {
			gpu = make([]failures.Failure, 0, gpuTotal)
		}
		for i := range records {
			cat := records[i].Category
			byCat[cat] = append(byCat[cat], records[i])
			if cat.GPURelated() {
				gpu = append(gpu, records[i])
			}
		}
		v.catRecords, v.gpuRecords = byCat, gpu
	})
}

// InterarrivalHours returns the whole-log inter-arrival gaps in hours, in
// chronological order (shared, read-only).
func (v *View) InterarrivalHours() []float64 {
	v.gapsOnce.Do(func() {
		defer obs.StartSpan("index/gaps").End()
		v.gaps = interarrival(v.Records())
	})
	return v.gaps
}

// SortedInterarrivalHours returns the ascending-sorted inter-arrival
// arena (shared, read-only).
func (v *View) SortedInterarrivalHours() []float64 {
	v.sortedGapsOnce.Do(func() {
		defer obs.StartSpan("index/gaps-sorted").End()
		v.sortedGaps = sortedCopy(v.InterarrivalHours())
	})
	return v.sortedGaps
}

// RecoveryHours returns every record's recovery time in hours, in
// chronological order (shared, read-only).
func (v *View) RecoveryHours() []float64 {
	v.recoveryOnce.Do(func() {
		defer obs.StartSpan("index/recovery").End()
		v.recovery = recoveryHours(v.Records())
	})
	return v.recovery
}

// SortedRecoveryHours returns the ascending-sorted recovery arena
// (shared, read-only).
func (v *View) SortedRecoveryHours() []float64 {
	v.sortedRecoveryOnce.Do(func() {
		defer obs.StartSpan("index/recovery-sorted").End()
		v.sortedRecovery = sortedCopy(v.RecoveryHours())
	})
	return v.sortedRecovery
}

// CategoryGaps returns the inter-arrival gaps between consecutive
// failures of one category, in chronological order — exactly the series
// Filter(category).InterarrivalHours() produced (shared, read-only).
func (v *View) CategoryGaps(cat failures.Category) []float64 {
	v.buildCategorySeries()
	return v.catGaps.At(cat)
}

// CategoryRecovery returns the recovery hours of one category's records
// in chronological order (shared, read-only).
func (v *View) CategoryRecovery(cat failures.Category) []float64 {
	v.buildCategorySeries()
	return v.catRecovery.At(cat)
}

func (v *View) buildCategorySeries() {
	v.catSeriesOnce.Do(func() {
		defer obs.StartSpan("index/category-series").End()
		v.buildPartitions()
		for cat, records := range v.catRecords {
			v.catGaps[cat] = interarrival(records)
			v.catRecovery[cat] = recoveryHours(records)
		}
	})
}

// SortedCategoryGaps returns the ascending-sorted per-category gap arena
// (shared, read-only).
func (v *View) SortedCategoryGaps(cat failures.Category) []float64 {
	v.buildCategorySorted()
	return v.catGapsSorted.At(cat)
}

// SortedCategoryRecovery returns the ascending-sorted per-category
// recovery arena (shared, read-only).
func (v *View) SortedCategoryRecovery(cat failures.Category) []float64 {
	v.buildCategorySorted()
	return v.catRecoverySorted.At(cat)
}

func (v *View) buildCategorySorted() {
	v.catSortedOnce.Do(func() {
		defer obs.StartSpan("index/category-series-sorted").End()
		v.buildCategorySeries()
		for cat := range v.catGaps {
			v.catGapsSorted[cat] = sortedCopy(v.catGaps[cat])
			v.catRecoverySorted[cat] = sortedCopy(v.catRecovery[cat])
		}
	})
}

// SortedMonthlyRecoveryHours returns the ascending-sorted per-month
// recovery arenas (shared, read-only).
func (v *View) SortedMonthlyRecoveryHours() map[time.Month][]float64 {
	v.buildMonthly()
	return v.monthlySorted
}

// MonthlyCounts returns failure counts per calendar month (shared,
// read-only).
func (v *View) MonthlyCounts() map[time.Month]int {
	v.buildMonthly()
	return v.monthlyCounts
}

func (v *View) buildMonthly() {
	v.monthlyOnce.Do(func() {
		defer obs.StartSpan("index/monthly").End()
		records := v.Records()
		// Array-bucketed two-pass build: count, size exactly, fill — no map
		// operations in the per-record loops.
		var perMonth [13]int
		for i := range records {
			perMonth[records[i].Time.Month()]++
		}
		var series [13][]float64
		for m := time.January; m <= time.December; m++ {
			if perMonth[m] > 0 {
				series[m] = make([]float64, 0, perMonth[m])
			}
		}
		for i := range records {
			m := records[i].Time.Month()
			series[m] = append(series[m], records[i].Recovery.Hours())
		}
		recov := make(map[time.Month][]float64, 12)
		sorted := make(map[time.Month][]float64, 12)
		counts := make(map[time.Month]int, 12)
		for m := time.January; m <= time.December; m++ {
			if perMonth[m] == 0 {
				continue
			}
			recov[m] = series[m]
			sorted[m] = sortedCopy(series[m])
			counts[m] = perMonth[m]
		}
		v.monthlyRecov, v.monthlySorted, v.monthlyCounts = recov, sorted, counts
	})
}

func (v *View) buildHWSW() {
	v.hwswOnce.Do(func() {
		defer obs.StartSpan("index/hw-sw").End()
		records := v.Records()
		// Exact sizes from the category counts: Software() is a property of
		// the category, so the split sizes are known before the fill pass.
		swTotal := 0
		for cat, n := range v.CategoryCounts() {
			if cat.Software() {
				swTotal += n
			}
		}
		var hw, sw []float64
		if hwTotal := len(records) - swTotal; hwTotal > 0 {
			hw = make([]float64, 0, hwTotal)
		}
		if swTotal > 0 {
			sw = make([]float64, 0, swTotal)
		}
		for i := range records {
			if records[i].Software() {
				sw = append(sw, records[i].Recovery.Hours())
			} else {
				hw = append(hw, records[i].Recovery.Hours())
			}
		}
		v.hwRecovery, v.swRecovery = hw, sw
	})
}

// SortedHardwareRecoveryHours returns the ascending-sorted hardware
// recovery arena (shared, read-only).
func (v *View) SortedHardwareRecoveryHours() []float64 {
	v.buildHWSWSorted()
	return v.hwRecoverySorted
}

// SortedSoftwareRecoveryHours returns the ascending-sorted software
// recovery arena (shared, read-only).
func (v *View) SortedSoftwareRecoveryHours() []float64 {
	v.buildHWSWSorted()
	return v.swRecoverySorted
}

func (v *View) buildHWSWSorted() {
	v.hwswSortedOnce.Do(func() {
		defer obs.StartSpan("index/hw-sw-sorted").End()
		v.buildHWSW()
		v.hwRecoverySorted = sortedCopy(v.hwRecovery)
		v.swRecoverySorted = sortedCopy(v.swRecovery)
	})
}

// interarrival computes the hours between consecutive records, matching
// failures.Log.InterarrivalHours element for element.
func interarrival(records []failures.Failure) []float64 {
	if len(records) < 2 {
		return nil
	}
	out := make([]float64, len(records)-1)
	for i := 1; i < len(records); i++ {
		out[i-1] = records[i].Time.Sub(records[i-1].Time).Hours()
	}
	return out
}

// recoveryHours extracts each record's recovery in hours, matching
// failures.Log.RecoveryHours. It returns nil for no records so map
// facets stay compact.
func recoveryHours(records []failures.Failure) []float64 {
	if len(records) == 0 {
		return nil
	}
	out := make([]float64, len(records))
	for i := range records {
		out[i] = records[i].Recovery.Hours()
	}
	return out
}

// sortedCopy clones and ascending-sorts a sample; nil in, nil out. Every
// arena holds time.Duration.Hours values, which are never NaN or -0, so
// stats.SortFloat64s orders them bit-identically to sort.Float64s.
func sortedCopy(xs []float64) []float64 {
	if len(xs) == 0 {
		return nil
	}
	out := append([]float64(nil), xs...)
	stats.SortFloat64s(out)
	return out
}
