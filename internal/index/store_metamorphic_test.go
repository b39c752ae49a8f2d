package index_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/index"
)

// This file is the metamorphic gate on the incremental ingest path: for
// any way of cutting a record stream into append batches — one shot, one
// record at a time, random cuts, batches whose timestamps interleave
// earlier batches — and any pattern of facet reads between appends, the
// final epoch's every facet must be reflect.DeepEqual to a one-shot
// index.New over the same records, with and without retention. Reading
// facets mid-ingest matters because it is what arms the delta
// maintenance in delta.go: a facet materialized on epoch k is carried
// forward into epoch k+1 rather than rebuilt, and this suite is what
// proves carrying forward is unobservable.

// forceAllFacets materializes every facet family on v.
func forceAllFacets(v *index.View) {
	v.Records()
	v.CategoryCounts()
	v.NodeCounts()
	v.Nodes()
	v.GPURecords()
	v.InterarrivalHours()
	v.SortedInterarrivalHours()
	v.RecoveryHours()
	v.SortedRecoveryHours()
	v.MonthlyCounts()
	v.MonthlyRecoveryHours()
	v.SortedMonthlyRecoveryHours()
	v.HardwareRecoveryHours()
	v.SoftwareRecoveryHours()
	v.SortedHardwareRecoveryHours()
	v.SortedSoftwareRecoveryHours()
	for cat := range v.CategoryCounts() {
		v.CategoryRecords(cat)
		v.CategoryGaps(cat)
		v.CategoryRecovery(cat)
		v.SortedCategoryGaps(cat)
		v.SortedCategoryRecovery(cat)
	}
}

// facetTouchers are the read patterns applied to each intermediate
// epoch, controlling which facets the delta path must maintain: none
// (everything stays lazy), all (everything is maintained), or a seeded
// random subset per epoch (mixed lazy/maintained, the adversarial case).
var facetTouchers = map[string]func(v *index.View, rng *rand.Rand){
	"touch-none": func(*index.View, *rand.Rand) {},
	"touch-all":  func(v *index.View, _ *rand.Rand) { forceAllFacets(v) },
	"touch-random": func(v *index.View, rng *rand.Rand) {
		touches := []func(){
			func() { v.Records() },
			func() { v.CategoryCounts() },
			func() { v.Nodes() },
			func() { v.GPURecords() },
			func() { v.InterarrivalHours() },
			func() { v.SortedInterarrivalHours() },
			func() { v.RecoveryHours() },
			func() { v.SortedRecoveryHours() },
			func() { v.MonthlyRecoveryHours() },
			func() { v.HardwareRecoveryHours() },
			func() { v.SortedSoftwareRecoveryHours() },
			func() { v.CategoryGaps(failures.CatGPU) },
			func() { v.SortedCategoryRecovery(failures.CatGPU) },
		}
		for _, touch := range touches {
			if rng.Intn(2) == 0 {
				touch()
			}
		}
	},
}

// compareAllFacets asserts every facet of got equals the batch build
// want, including per-category facets for every category present plus
// one absent category.
func compareAllFacets(t *testing.T, got, want *index.View) {
	t.Helper()
	checks := []struct {
		name      string
		got, want any
	}{
		{"Records", got.Records(), want.Records()},
		{"CategoryCounts", got.CategoryCounts(), want.CategoryCounts()},
		{"NodeCounts", got.NodeCounts(), want.NodeCounts()},
		{"Nodes", got.Nodes(), want.Nodes()},
		{"GPURecords", got.GPURecords(), want.GPURecords()},
		{"InterarrivalHours", got.InterarrivalHours(), want.InterarrivalHours()},
		{"SortedInterarrivalHours", got.SortedInterarrivalHours(), want.SortedInterarrivalHours()},
		{"RecoveryHours", got.RecoveryHours(), want.RecoveryHours()},
		{"SortedRecoveryHours", got.SortedRecoveryHours(), want.SortedRecoveryHours()},
		{"MonthlyCounts", got.MonthlyCounts(), want.MonthlyCounts()},
		{"MonthlyRecoveryHours", got.MonthlyRecoveryHours(), want.MonthlyRecoveryHours()},
		{"SortedMonthlyRecoveryHours", got.SortedMonthlyRecoveryHours(), want.SortedMonthlyRecoveryHours()},
		{"HardwareRecoveryHours", got.HardwareRecoveryHours(), want.HardwareRecoveryHours()},
		{"SoftwareRecoveryHours", got.SoftwareRecoveryHours(), want.SoftwareRecoveryHours()},
		{"SortedHardwareRecoveryHours", got.SortedHardwareRecoveryHours(), want.SortedHardwareRecoveryHours()},
		{"SortedSoftwareRecoveryHours", got.SortedSoftwareRecoveryHours(), want.SortedSoftwareRecoveryHours()},
	}
	cats := make([]failures.Category, 0, len(want.CategoryCounts())+1)
	for cat := range want.CategoryCounts() {
		cats = append(cats, cat)
	}
	cats = append(cats, failures.Category(99))
	for _, cat := range cats {
		checks = append(checks,
			struct {
				name      string
				got, want any
			}{fmt.Sprintf("CategoryRecords[%s]", cat), got.CategoryRecords(cat), want.CategoryRecords(cat)},
			struct {
				name      string
				got, want any
			}{fmt.Sprintf("CategoryGaps[%s]", cat), got.CategoryGaps(cat), want.CategoryGaps(cat)},
			struct {
				name      string
				got, want any
			}{fmt.Sprintf("CategoryRecovery[%s]", cat), got.CategoryRecovery(cat), want.CategoryRecovery(cat)},
			struct {
				name      string
				got, want any
			}{fmt.Sprintf("SortedCategoryGaps[%s]", cat), got.SortedCategoryGaps(cat), want.SortedCategoryGaps(cat)},
			struct {
				name      string
				got, want any
			}{fmt.Sprintf("SortedCategoryRecovery[%s]", cat), got.SortedCategoryRecovery(cat), want.SortedCategoryRecovery(cat)},
		)
	}
	for _, c := range checks {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s differs from batch index.New\n got: %v\nwant: %v", c.name, c.got, c.want)
		}
	}
}

// splitPatterns cuts recs into append batches. Patterns that reorder
// records produce batches whose time ranges overlap earlier batches,
// forcing the non-tail merge path.
func splitPatterns(recs []failures.Failure) map[string][][]failures.Failure {
	shuffled := append([]failures.Failure(nil), recs...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	randomCuts := func(in []failures.Failure, seed int64) [][]failures.Failure {
		rng := rand.New(rand.NewSource(seed))
		var out [][]failures.Failure
		for start := 0; start < len(in); {
			n := 1 + rng.Intn(len(in)/4+1)
			if start+n > len(in) {
				n = len(in) - start
			}
			out = append(out, in[start:start+n])
			start += n
		}
		return out
	}
	singletons := func(in []failures.Failure) [][]failures.Failure {
		out := make([][]failures.Failure, len(in))
		for i := range in {
			out[i] = in[i : i+1]
		}
		return out
	}
	half := len(recs) / 2
	return map[string][][]failures.Failure{
		"one-shot":             {recs},
		"singletons":           singletons(recs),
		"random-cuts":          randomCuts(recs, 11),
		"shuffled-singletons":  singletons(shuffled),
		"shuffled-random-cuts": randomCuts(shuffled, 12),
		"later-half-first":     {recs[half:], recs[:half]},
	}
}

// TestStoreMetamorphicBatchSplits is the suite body for an unbounded
// store: every split pattern × every facet-touch pattern ends in a final
// epoch byte-identical to the one-shot batch index, and intermediate
// epochs under touch-all are themselves verified against their prefix.
func TestStoreMetamorphicBatchSplits(t *testing.T) {
	recs := storeRecords(t, 250)
	wantLog, err := failures.NewLog(failures.Tsubame2, recs)
	if err != nil {
		t.Fatal(err)
	}
	for splitName, batches := range splitPatterns(recs) {
		for touchName, touch := range facetTouchers {
			t.Run(splitName+"/"+touchName, func(t *testing.T) {
				store, err := index.NewStore(failures.Tsubame2)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(99))
				for bi, batch := range batches {
					ep, err := store.Append(batch)
					if err != nil {
						t.Fatalf("append batch %d: %v", bi, err)
					}
					touch(ep.View(), rng)
				}
				compareAllFacets(t, store.Snapshot().View(), index.New(wantLog))
			})
		}
	}
}

// retainedSuffix applies the store's retention rule to the full sorted
// log: keep the newest maxRecords records and drop records older than
// the newest record's time minus maxAge. Iterative per-append eviction
// provably converges to this one-shot suffix (a record evicted early can
// never be in the final window), which is what makes it the oracle.
func retainedSuffix(t *testing.T, recs []failures.Failure, maxRecords int, maxAge time.Duration) *failures.Log {
	t.Helper()
	full, err := failures.NewLog(failures.Tsubame2, recs)
	if err != nil {
		t.Fatal(err)
	}
	sorted := full.Records()
	k := 0
	if maxRecords > 0 && len(sorted) > maxRecords {
		k = len(sorted) - maxRecords
	}
	if maxAge > 0 && len(sorted) > 0 {
		cutoff := sorted[len(sorted)-1].Time.Add(-maxAge)
		j := 0
		for j < len(sorted) && sorted[j].Time.Before(cutoff) {
			j++
		}
		if j > k {
			k = j
		}
	}
	retained, err := failures.NewLog(failures.Tsubame2, sorted[k:])
	if err != nil {
		t.Fatal(err)
	}
	return retained
}

// TestStoreMetamorphicWithRetention repeats the split suite on bounded
// stores: the final epoch must equal batch-indexing the retained suffix,
// for count-based, age-based, and combined retention.
func TestStoreMetamorphicWithRetention(t *testing.T) {
	recs := storeRecords(t, 250)
	options := map[string]index.StoreOptions{
		"max-records": {MaxRecords: 100},
		"max-age":     {MaxAge: 90 * 24 * time.Hour},
		"combined":    {MaxRecords: 120, MaxAge: 120 * 24 * time.Hour},
	}
	for optName, opts := range options {
		want := index.New(retainedSuffix(t, recs, opts.MaxRecords, opts.MaxAge))
		if want.Len() == len(recs) || want.Len() == 0 {
			t.Fatalf("%s: retention oracle keeps %d of %d records — fixture does not exercise eviction", optName, want.Len(), len(recs))
		}
		for splitName, batches := range splitPatterns(recs) {
			for touchName, touch := range facetTouchers {
				t.Run(optName+"/"+splitName+"/"+touchName, func(t *testing.T) {
					store, err := index.NewStoreWithOptions(failures.Tsubame2, opts)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(5))
					evicted := 0
					for bi, batch := range batches {
						ep, err := store.Append(batch)
						if err != nil {
							t.Fatalf("append batch %d: %v", bi, err)
						}
						evicted += ep.Evicted()
						touch(ep.View(), rng)
					}
					if got := len(recs) - evicted; got != want.Len() {
						t.Errorf("Evicted sums to %d, leaving %d records; oracle retains %d", evicted, got, want.Len())
					}
					compareAllFacets(t, store.Snapshot().View(), want)
				})
			}
		}
	}
}

// TestStoreFailedAppendCostIndependentOfResidentSize pins the satellite
// fix: a rejected batch is validated standalone, so its allocation cost
// does not scale with the resident log (it used to copy and re-sort the
// whole log before discovering the batch was bad).
func TestStoreFailedAppendCostIndependentOfResidentSize(t *testing.T) {
	recs := storeRecords(t, 800)
	seed := func(n int) *index.Store {
		store, err := index.NewStore(failures.Tsubame2)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := store.Append(recs[:n]); err != nil {
			t.Fatal(err)
		}
		return store
	}
	small, large := seed(50), seed(800)
	bad := recs[0]
	bad.Recovery = -time.Hour
	batch := []failures.Failure{bad}
	measure := func(s *index.Store) float64 {
		return testing.AllocsPerRun(100, func() {
			if _, err := s.Append(batch); err == nil {
				t.Fatal("Append accepted a record with negative recovery")
			}
		})
	}
	smallAllocs, largeAllocs := measure(small), measure(large)
	if largeAllocs > smallAllocs {
		t.Errorf("failed append allocates more on a large store: %.1f allocs at 800 resident vs %.1f at 50", largeAllocs, smallAllocs)
	}
}

// TestStoreConcurrentIngestWithRetentionAndMerges race-certifies the
// merge + delta + retention paths together: writers append shuffled
// (time-interleaving) batches into a bounded store while readers force
// every facet family on each snapshot. Unlike the unbounded test, the
// record count may shrink across epochs (eviction), so readers assert
// only sequence monotonicity and the retention cap.
func TestStoreConcurrentIngestWithRetentionAndMerges(t *testing.T) {
	recs := storeRecords(t, 400)
	shuffled := append([]failures.Failure(nil), recs...)
	rand.New(rand.NewSource(8)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	const maxRecords = 150
	store, err := index.NewStoreWithOptions(failures.Tsubame2, index.StoreOptions{MaxRecords: maxRecords})
	if err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastSeq uint64
			for !done.Load() {
				ep := store.Snapshot()
				if ep.Seq() < lastSeq {
					errs <- fmt.Errorf("epoch seq went backwards: %d after %d", ep.Seq(), lastSeq)
					return
				}
				if n := ep.View().Len(); ep.Seq() > 0 && n > maxRecords {
					errs <- fmt.Errorf("epoch %d holds %d records, above the %d cap", ep.Seq(), n, maxRecords)
					return
				}
				lastSeq = ep.Seq()
				forceAllFacets(ep.View())
			}
		}()
	}

	const batch = 10
	for i := 0; i < len(shuffled); i += batch {
		if _, err := store.Append(shuffled[i : i+batch]); err != nil {
			t.Fatalf("append at %d: %v", i, err)
		}
	}
	done.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	want := index.New(retainedSuffix(t, recs, maxRecords, 0))
	compareAllFacets(t, store.Snapshot().View(), want)
}
