package core

import (
	"fmt"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/stats"
)

// PeriodDiff contrasts two slices of one system's history — before and
// after a maintenance intervention, a driver upgrade, or an operational-
// practice change. It is the statistical machinery an operator needs to
// decide whether an intervention actually moved the reliability needle,
// rather than eyeballing two MTBF numbers (the trap the paper's seasonal
// analysis warns about: monthly variance is large).
type PeriodDiff struct {
	// BeforeFailures/AfterFailures are the record counts.
	BeforeFailures, AfterFailures int
	// FailureRateRatio is (after failures/day) / (before failures/day);
	// below 1 means the failure rate dropped.
	FailureRateRatio float64
	// MTTRBefore/MTTRAfter are the mean recovery hours.
	MTTRBefore, MTTRAfter float64
	// TTRShiftP is the Mann-Whitney p-value for a recovery-time shift;
	// small values mean the TTR distribution genuinely moved.
	TTRShiftP float64
	// TBFShiftP is the Mann-Whitney p-value for an inter-arrival shift.
	TBFShiftP float64
	// Drift is the category-share movement between the periods.
	Drift []DriftRow
}

// DiffPeriods compares two logs of the same system. Both need at least
// two records.
func DiffPeriods(before, after *failures.Log) (*PeriodDiff, error) {
	if before.System() != after.System() {
		return nil, fmt.Errorf("core: cannot diff %v against %v", before.System(), after.System())
	}
	if before.Len() < 2 || after.Len() < 2 {
		return nil, ErrTooFewRecords
	}
	d := &PeriodDiff{
		BeforeFailures: before.Len(),
		AfterFailures:  after.Len(),
	}
	beforeDays := before.Span().Hours() / 24
	afterDays := after.Span().Hours() / 24
	if beforeDays > 0 && afterDays > 0 {
		d.FailureRateRatio = (float64(after.Len()) / afterDays) / (float64(before.Len()) / beforeDays)
	}
	d.MTTRBefore, _ = before.MTTRHours()
	d.MTTRAfter, _ = after.MTTRHours()

	ttr, err := stats.MannWhitney(before.RecoveryHours(), after.RecoveryHours())
	if err != nil {
		return nil, fmt.Errorf("core: TTR shift test: %w", err)
	}
	d.TTRShiftP = ttr.P
	tbf, err := stats.MannWhitney(before.InterarrivalHours(), after.InterarrivalHours())
	if err != nil {
		return nil, fmt.Errorf("core: TBF shift test: %w", err)
	}
	d.TBFShiftP = tbf.P

	beforeShares, err := categoryBreakdown(index.New(before))
	if err != nil {
		return nil, err
	}
	afterShares, err := categoryBreakdown(index.New(after))
	if err != nil {
		return nil, err
	}
	d.Drift = CategoryDrift(beforeShares, afterShares)
	return d, nil
}

// Improved reports whether the diff shows a statistically backed
// reliability improvement at the given significance level: the failure
// rate dropped and the TBF distribution shifted significantly.
func (d *PeriodDiff) Improved(alpha float64) bool {
	return d.FailureRateRatio < 1 && d.TBFShiftP < alpha
}
