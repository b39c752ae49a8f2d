package dist

// SortCount exposes the fitting path's sample-sort counter to the
// single-sort regression tests.
func SortCount() int64 { return fitSortCount.Load() }

// KSStatisticSorted exposes the certified KS search to the differential
// tests against the plain scan.
var KSStatisticSorted = ksStatisticSorted
