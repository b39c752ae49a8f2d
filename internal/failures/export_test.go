package failures

// NewLogSortedSharded exposes NewLogSorted's pool width and shard size
// to the external tests.
var NewLogSortedSharded = newLogSorted
