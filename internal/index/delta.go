package index

import (
	"maps"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failures"
)

// This file is the incremental half of the index: given the previous
// epoch's View and the sorted delta just merged into the log, nextView
// builds the next epoch's View with every facet the previous epoch had
// already materialized carried forward from the delta — extended for
// chronological series, merged for sorted arenas, re-counted for maps —
// instead of recomputed from the whole log. Facets the previous epoch
// never touched stay lazy, so a store that is only ever appended to pays
// O(batch) per epoch, and a store that is queried between appends pays
// for its materialized facets in delta-sized (or merge-linear) work
// rather than sort-linearithmic rebuilds.
//
// The correctness bar is the store's epoch-equivalence contract: every
// maintained facet must be reflect.DeepEqual to what the batch builders
// in index.go would produce over the merged log — same element order,
// same nil-versus-empty shape, same float values (series elements are
// raw per-record values, never re-accumulated, so extending a series
// cannot drift). store_metamorphic_test.go pins this for every facet
// under arbitrary batch splits.
//
// Slice lineage: extending a facet with append may grow the previous
// view's backing array in place past its length. That is safe under the
// store's discipline — epochs form a linear chain, so each view's facets
// are extended at most once, and earlier views only ever read their own
// lengths — but it is why nextView is not a general-purpose API: it must
// only be called by Store.Append, under the store mutex, with prev being
// the view of the epoch the log was just extended from.

// facetOnce is a sync.Once whose completion is observable. The delta
// builder uses Done to ask which facets the previous epoch materialized;
// the atomic store happens after the build function returns, so a true
// Done synchronizes with (and licenses reading) the built facet fields.
type facetOnce struct {
	once sync.Once
	done atomic.Bool
}

// Do runs f once, then marks the facet done.
func (o *facetOnce) Do(f func()) {
	o.once.Do(func() {
		f()
		o.done.Store(true)
	})
}

// Done reports whether a Do call has completed.
func (o *facetOnce) Done() bool { return o.done.Load() }

// nextView builds the view of the epoch whose log is log = prev.log +
// delta (merged; atTail reports the pure-append case). Facets prev
// materialized are maintained from the delta; the rest stay lazy.
func nextView(prev *View, log *failures.Log, delta []failures.Failure, atTail bool) *View {
	next := New(log)
	if prev == nil || len(delta) == 0 {
		return next
	}
	prevN := prev.log.Len()

	// Order-independent facets hold regardless of where the delta landed
	// in the log: counts count, sorted arenas are multisets.
	if prev.catCountsOnce.Done() {
		counts := maps.Clone(prev.catCounts)
		for i := range delta {
			counts[delta[i].Category]++
		}
		next.catCountsOnce.Do(func() { next.catCounts = counts })
	}
	if prev.nodesOnce.Done() {
		counts := make(map[string]int, len(prev.nodeCounts)+4)
		for node, n := range prev.nodeCounts {
			counts[node] = n
		}
		var fresh []string
		for i := range delta {
			if node := delta[i].Node; node != "" {
				if counts[node] == 0 {
					fresh = append(fresh, node)
				}
				counts[node]++
			}
		}
		nodes := prev.nodes
		if len(fresh) > 0 {
			sort.Strings(fresh)
			nodes = mergeSortedStrings(prev.nodes, fresh)
		}
		next.nodesOnce.Do(func() { next.nodeCounts, next.nodes = counts, nodes })
	}
	if prev.sortedRecoveryOnce.Done() {
		merged := mergeSortedFloats(prev.sortedRecovery, sortedCopy(recoveryHours(delta)))
		next.sortedRecoveryOnce.Do(func() { next.sortedRecovery = merged })
	}
	if prev.hwswSortedOnce.Done() {
		var hw, sw []float64
		for i := range delta {
			if delta[i].Software() {
				sw = append(sw, delta[i].Recovery.Hours())
			} else {
				hw = append(hw, delta[i].Recovery.Hours())
			}
		}
		hwMerged := mergeSortedFloats(prev.hwRecoverySorted, sortedCopy(hw))
		swMerged := mergeSortedFloats(prev.swRecoverySorted, sortedCopy(sw))
		next.hwswSortedOnce.Do(func() { next.hwRecoverySorted, next.swRecoverySorted = hwMerged, swMerged })
	}

	// Everything below extends a chronological series at its end, which is
	// only the truth when the delta sorted entirely at the log's tail. A
	// mid-log merge changes interior gaps and interleaves series, so those
	// facets fall back to their lazy batch builders.
	if !atTail {
		return next
	}

	if prev.recordsOnce.Done() {
		records := append(prev.records, delta...)
		next.recordsOnce.Do(func() { next.records = records })
	}
	if prev.gapsOnce.Done() {
		var prevTail []failures.Failure
		if prevN > 0 {
			prevTail = []failures.Failure{prev.log.At(prevN - 1)}
		}
		fresh := bridgeGaps(prevTail, delta)
		gaps := prev.gaps
		if len(fresh) > 0 {
			gaps = append(gaps, fresh...)
		}
		next.gapsOnce.Do(func() { next.gaps = gaps })
		if prev.sortedGapsOnce.Done() {
			merged := mergeSortedFloats(prev.sortedGaps, sortedCopy(fresh))
			next.sortedGapsOnce.Do(func() { next.sortedGaps = merged })
		}
	}
	if prev.recoveryOnce.Done() {
		recovery := prev.recovery
		for i := range delta {
			recovery = append(recovery, delta[i].Recovery.Hours())
		}
		next.recoveryOnce.Do(func() { next.recovery = recovery })
	}
	// Snapshot the partition flag once: the catSeries carry below reads
	// prev.catRecords (owned by partitionOnce, and materialized by
	// buildCategorySeries as a prerequisite), so it must run only when
	// the partition carry above it ran too. Checking Done() twice races
	// with a concurrent reader completing buildCategorySeries between the
	// checks, which would hand the next epoch carried catSeries but nil
	// catRecords — and the append after that would bridge per-category
	// gaps against nil, silently dropping gap samples.
	partitionDone := prev.partitionOnce.Done()
	if partitionDone {
		byCat, gpu := prev.catRecords, prev.gpuRecords
		for i := range delta {
			cat := delta[i].Category
			byCat[cat] = append(byCat[cat], delta[i])
			if cat.GPURelated() {
				gpu = append(gpu, delta[i])
			}
		}
		next.partitionOnce.Do(func() { next.catRecords, next.gpuRecords = byCat, gpu })
	}
	if partitionDone && prev.catSeriesOnce.Done() {
		// prev.catRecords feeds the per-category bridges; the partitionDone
		// snapshot guarantees it was carried into next alongside catSeries.
		var deltaByCat failures.PerCategory[[]failures.Failure]
		for i := range delta {
			deltaByCat[delta[i].Category] = append(deltaByCat[delta[i].Category], delta[i])
		}
		gapsM, recovM := prev.catGaps, prev.catRecovery
		var freshByCat failures.PerCategory[[]float64]
		for cat, dcat := range deltaByCat {
			if len(dcat) == 0 {
				continue
			}
			fresh := bridgeGaps(prev.catRecords[cat], dcat)
			freshByCat[cat] = fresh
			gapsM[cat] = append(gapsM[cat], fresh...)
			for i := range dcat {
				recovM[cat] = append(recovM[cat], dcat[i].Recovery.Hours())
			}
		}
		next.catSeriesOnce.Do(func() { next.catGaps, next.catRecovery = gapsM, recovM })
		if prev.catSortedOnce.Done() {
			gapsS, recovS := prev.catGapsSorted, prev.catRecoverySorted
			for cat, dcat := range deltaByCat {
				if len(dcat) == 0 {
					continue
				}
				if fresh := freshByCat[cat]; len(fresh) > 0 {
					gapsS[cat] = mergeSortedFloats(gapsS[cat], sortedCopy(fresh))
				}
				recovS[cat] = mergeSortedFloats(recovS[cat], sortedCopy(recoveryHours(dcat)))
			}
			next.catSortedOnce.Do(func() { next.catGapsSorted, next.catRecoverySorted = gapsS, recovS })
		}
	}
	if prev.monthlyOnce.Done() {
		var perMonth [13][]float64
		for i := range delta {
			m := delta[i].Time.Month()
			perMonth[m] = append(perMonth[m], delta[i].Recovery.Hours())
		}
		recov := make(map[time.Month][]float64, 12)
		sorted := make(map[time.Month][]float64, 12)
		counts := make(map[time.Month]int, 12)
		for m, n := range prev.monthlyCounts {
			recov[m], sorted[m], counts[m] = prev.monthlyRecov[m], prev.monthlySorted[m], n
		}
		for m := time.January; m <= time.December; m++ {
			if len(perMonth[m]) == 0 {
				continue
			}
			recov[m] = append(recov[m], perMonth[m]...)
			sorted[m] = mergeSortedFloats(sorted[m], sortedCopy(perMonth[m]))
			counts[m] += len(perMonth[m])
		}
		next.monthlyOnce.Do(func() {
			next.monthlyRecov, next.monthlySorted, next.monthlyCounts = recov, sorted, counts
		})
	}
	if prev.hwswOnce.Done() {
		hw, sw := prev.hwRecovery, prev.swRecovery
		for i := range delta {
			if delta[i].Software() {
				sw = append(sw, delta[i].Recovery.Hours())
			} else {
				hw = append(hw, delta[i].Recovery.Hours())
			}
		}
		next.hwswOnce.Do(func() { next.hwRecovery, next.swRecovery = hw, sw })
	}
	return next
}

// bridgeGaps returns the inter-arrival values the batch contributes when
// appended after prev: the bridge gap from prev's last record (when prev
// is non-empty) followed by the batch's internal gaps — exactly the tail
// of interarrival(prev + batch). Only prev's last element is read, so
// callers may pass a one-element tail slice for the whole log.
func bridgeGaps(prev, batch []failures.Failure) []float64 {
	if len(prev) == 0 {
		return interarrival(batch)
	}
	if len(batch) == 0 {
		return nil
	}
	out := make([]float64, len(batch))
	out[0] = batch[0].Time.Sub(prev[len(prev)-1].Time).Hours()
	for i := 1; i < len(batch); i++ {
		out[i] = batch[i].Time.Sub(batch[i-1].Time).Hours()
	}
	return out
}

// mergeSortedFloats merges two ascending runs into a fresh ascending
// slice; nil when both are empty, matching sortedCopy's nil-in-nil-out.
func mergeSortedFloats(a, b []float64) []float64 {
	if len(a)+len(b) == 0 {
		return nil
	}
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// mergeSortedStrings merges two ascending runs with no duplicates across
// them into a fresh ascending slice. Always non-nil, matching the batch
// nodes builder.
func mergeSortedStrings(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if b[j] < a[i] {
			out = append(out, b[j])
			j++
		} else {
			out = append(out, a[i])
			i++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
