package index

import (
	"testing"

	"repro/internal/failures"
	"repro/internal/testutil"
)

// TestViewInvariantUnderPermutation checks that every memoized facet of
// the index is a function of the log's canonical order, not of the order
// records were handed to NewLog.
func TestViewInvariantUnderPermutation(t *testing.T) {
	log := testutil.MustGenerate(t, failures.Tsubame2, 5)
	base := New(log)
	permuted := New(testutil.Permuted(t, log, 17))

	testutil.RequireDeepEqual(t, base.CategoryCounts(), permuted.CategoryCounts(), "category counts")
	testutil.RequireDeepEqual(t, base.NodeCounts(), permuted.NodeCounts(), "node counts")
	testutil.RequireDeepEqual(t, base.Nodes(), permuted.Nodes(), "node order")
	testutil.RequireDeepEqual(t, base.InterarrivalHours(), permuted.InterarrivalHours(), "interarrival hours")
	testutil.RequireDeepEqual(t, base.SortedInterarrivalHours(), permuted.SortedInterarrivalHours(), "sorted interarrivals")
	testutil.RequireDeepEqual(t, base.SortedRecoveryHours(), permuted.SortedRecoveryHours(), "sorted recoveries")
	testutil.RequireDeepEqual(t, base.GPURecords(), permuted.GPURecords(), "GPU partition")
	for cat := range base.CategoryCounts() {
		testutil.RequireDeepEqual(t, base.CategoryRecords(cat), permuted.CategoryRecords(cat), "category partition "+cat.String())
	}
}

// TestViewMatchesDirectLogMethods checks the memoized facets agree with
// the unmemoized Log computations they cache.
func TestViewMatchesDirectLogMethods(t *testing.T) {
	log := testutil.MustGenerate(t, failures.Tsubame3, 5)
	v := New(log)
	testutil.RequireDeepEqual(t, log.ByCategory(), v.CategoryCounts(), "category counts vs log")
	testutil.RequireDeepEqual(t, log.ByNode(), v.NodeCounts(), "node counts vs log")
	testutil.RequireDeepEqual(t, log.InterarrivalHours(), v.InterarrivalHours(), "interarrivals vs log")
	testutil.RequireDeepEqual(t, log.RecoveryHours(), v.RecoveryHours(), "recoveries vs log")
}
