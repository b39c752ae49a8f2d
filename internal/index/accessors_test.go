package index

import (
	"time"

	"repro/internal/failures"
)

// The chronological accessors below read facets the program consumes
// only internally (the sorted arenas and the epoch delta build from
// them); the tests read them to check each facet against the log.

// CategoryRecords returns the chronological records of one category
// (shared slice, read-only; nil for an absent category).
func (v *View) CategoryRecords(cat failures.Category) []failures.Failure {
	v.buildPartitions()
	return v.catRecords.At(cat)
}

// MonthlyRecoveryHours returns recovery hours grouped by calendar month
// across years, each month's series in chronological order (shared,
// read-only). Months without failures are absent.
func (v *View) MonthlyRecoveryHours() map[time.Month][]float64 {
	v.buildMonthly()
	return v.monthlyRecov
}

// HardwareRecoveryHours returns recovery hours of hardware-category
// records in chronological order (shared, read-only).
func (v *View) HardwareRecoveryHours() []float64 {
	v.buildHWSW()
	return v.hwRecovery
}

// SoftwareRecoveryHours returns recovery hours of software-category
// records in chronological order (shared, read-only).
func (v *View) SoftwareRecoveryHours() []float64 {
	v.buildHWSW()
	return v.swRecovery
}
