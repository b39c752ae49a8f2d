package index

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/synth"
)

func testLog(t *testing.T) *failures.Log {
	t.Helper()
	log, err := synth.Generate(synth.Tsubame2Profile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestFacetsMatchLog pins every facet to the failures.Log derivation it
// memoizes: the index must be a pure cache, never a reinterpretation.
func TestFacetsMatchLog(t *testing.T) {
	log := testLog(t)
	ix := New(log)

	if ix.Len() != log.Len() || ix.System() != log.System() || ix.Span() != log.Span() {
		t.Fatal("passthroughs diverge from the log")
	}
	if !reflect.DeepEqual(ix.Records(), log.Records()) {
		t.Error("Records facet diverges")
	}
	if !reflect.DeepEqual(ix.CategoryCounts(), log.ByCategory()) {
		t.Error("CategoryCounts facet diverges")
	}
	if !reflect.DeepEqual(ix.NodeCounts(), log.ByNode()) {
		t.Error("NodeCounts facet diverges")
	}
	wantNodes := make([]string, 0)
	for node := range log.ByNode() {
		wantNodes = append(wantNodes, node)
	}
	sort.Strings(wantNodes)
	if !reflect.DeepEqual(ix.Nodes(), wantNodes) {
		t.Error("Nodes facet diverges")
	}
	if !reflect.DeepEqual(ix.InterarrivalHours(), log.InterarrivalHours()) {
		t.Error("InterarrivalHours facet diverges")
	}
	if !reflect.DeepEqual(ix.RecoveryHours(), log.RecoveryHours()) {
		t.Error("RecoveryHours facet diverges")
	}
	if !reflect.DeepEqual(ix.GPURecords(), log.GPUFailures().Records()) {
		t.Error("GPURecords facet diverges")
	}
	if !reflect.DeepEqual(ix.HardwareRecoveryHours(), log.HardwareFailures().RecoveryHours()) {
		t.Error("HardwareRecoveryHours facet diverges")
	}
	if !reflect.DeepEqual(ix.SoftwareRecoveryHours(), log.SoftwareFailures().RecoveryHours()) {
		t.Error("SoftwareRecoveryHours facet diverges")
	}

	for cat := range log.ByCategory() {
		sub := log.Filter(func(f failures.Failure) bool { return f.Category == cat })
		if !reflect.DeepEqual(ix.CategoryRecords(cat), sub.Records()) {
			t.Errorf("%v: CategoryRecords facet diverges", cat)
		}
		if !reflect.DeepEqual(ix.CategoryGaps(cat), sub.InterarrivalHours()) {
			t.Errorf("%v: CategoryGaps facet diverges", cat)
		}
		wantRecov := sub.RecoveryHours()
		if len(wantRecov) == 0 {
			wantRecov = nil
		}
		if !reflect.DeepEqual(ix.CategoryRecovery(cat), wantRecov) {
			t.Errorf("%v: CategoryRecovery facet diverges", cat)
		}
	}

	wantMonthly := make(map[time.Month][]float64)
	for _, r := range log.Records() {
		wantMonthly[r.Time.Month()] = append(wantMonthly[r.Time.Month()], r.Recovery.Hours())
	}
	if !reflect.DeepEqual(ix.MonthlyRecoveryHours(), wantMonthly) {
		t.Error("MonthlyRecoveryHours facet diverges")
	}
	for m, xs := range wantMonthly {
		if ix.MonthlyCounts()[m] != len(xs) {
			t.Errorf("month %v: count diverges", m)
		}
	}
}

// TestSortedArenas checks every sorted facet is the ascending permutation
// of its chronological twin.
func TestSortedArenas(t *testing.T) {
	log := testLog(t)
	ix := New(log)
	checks := []struct {
		name         string
		chrono, made []float64
	}{
		{"gaps", ix.InterarrivalHours(), ix.SortedInterarrivalHours()},
		{"recovery", ix.RecoveryHours(), ix.SortedRecoveryHours()},
		{"hw-recovery", ix.HardwareRecoveryHours(), ix.SortedHardwareRecoveryHours()},
		{"sw-recovery", ix.SoftwareRecoveryHours(), ix.SortedSoftwareRecoveryHours()},
	}
	for cat := range ix.CategoryCounts() {
		checks = append(checks,
			struct {
				name         string
				chrono, made []float64
			}{cat.String() + "-gaps", ix.CategoryGaps(cat), ix.SortedCategoryGaps(cat)},
			struct {
				name         string
				chrono, made []float64
			}{cat.String() + "-recovery", ix.CategoryRecovery(cat), ix.SortedCategoryRecovery(cat)},
		)
	}
	for m, xs := range ix.MonthlyRecoveryHours() {
		checks = append(checks, struct {
			name         string
			chrono, made []float64
		}{"month-" + m.String(), xs, ix.SortedMonthlyRecoveryHours()[m]})
	}
	for _, c := range checks {
		want := append([]float64(nil), c.chrono...)
		sort.Float64s(want)
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(c.made, want) {
			t.Errorf("%s: sorted arena is not the sorted chronological series", c.name)
		}
	}
}

// TestFacetsMemoized checks each facet is built once: repeated calls must
// return the identical slice/map header, not a rebuilt copy.
func TestFacetsMemoized(t *testing.T) {
	ix := New(testLog(t))
	if a, b := ix.Records(), ix.Records(); &a[0] != &b[0] {
		t.Error("Records rebuilt on second call")
	}
	if a, b := ix.SortedInterarrivalHours(), ix.SortedInterarrivalHours(); &a[0] != &b[0] {
		t.Error("SortedInterarrivalHours rebuilt on second call")
	}
	if a, b := ix.SortedRecoveryHours(), ix.SortedRecoveryHours(); &a[0] != &b[0] {
		t.Error("SortedRecoveryHours rebuilt on second call")
	}
	if a, b := ix.CategoryCounts(), ix.NodeCounts(); a == nil || b == nil {
		t.Error("count facets missing")
	}
}

// TestConcurrentFacetAccess hammers every facet from many goroutines on
// one shared View; under -race this pins the sync.Once-per-facet design
// (the exact sharing pattern of Run's phase fan-out). Each goroutine
// also checks it observed the same memoized arena as goroutine 0.
func TestConcurrentFacetAccess(t *testing.T) {
	log := testLog(t)
	ix := New(log)
	const goroutines = 16
	arenas := make([][]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_ = ix.Records()
			_ = ix.CategoryCounts()
			_ = ix.NodeCounts()
			_ = ix.Nodes()
			_ = ix.GPURecords()
			_ = ix.InterarrivalHours()
			_ = ix.RecoveryHours()
			_ = ix.MonthlyRecoveryHours()
			_ = ix.SortedMonthlyRecoveryHours()
			_ = ix.SortedHardwareRecoveryHours()
			_ = ix.SortedSoftwareRecoveryHours()
			for cat := range ix.CategoryCounts() {
				_ = ix.SortedCategoryGaps(cat)
				_ = ix.SortedCategoryRecovery(cat)
			}
			arenas[g] = ix.SortedInterarrivalHours()
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if &arenas[g][0] != &arenas[0][0] {
			t.Fatalf("goroutine %d observed a different arena: facet built twice", g)
		}
	}
}

// TestEmptyAndTinyLogs checks the degenerate shapes analyses probe for.
func TestEmptyAndTinyLogs(t *testing.T) {
	empty, err := failures.NewLog(failures.Tsubame2, nil)
	if err != nil {
		t.Fatal(err)
	}
	ix := New(empty)
	if ix.Len() != 0 || ix.Records() != nil && len(ix.Records()) != 0 {
		t.Error("empty log: non-empty records")
	}
	if got := ix.InterarrivalHours(); len(got) != 0 {
		t.Errorf("empty log: %d gaps", len(got))
	}
	if got := ix.SortedRecoveryHours(); len(got) != 0 {
		t.Errorf("empty log: %d recovery values", len(got))
	}
	if got := ix.CategoryGaps(failures.CatGPU); got != nil {
		t.Error("empty log: category gaps not nil")
	}
	if got := ix.GPURecords(); got != nil {
		t.Error("empty log: GPU records not nil")
	}
}
