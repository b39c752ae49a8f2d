package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/synth"
)

func ts(h int) time.Time {
	return time.Date(2020, time.January, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(h) * time.Hour)
}

// tinyLog builds a hand-checkable Tsubame-2 log:
//
//	t=0   GPU on n1, slots {1}, TTR 10h
//	t=10  GPU on n1, slots {0,1}, TTR 20h
//	t=30  GPU on n2, slots {2}, TTR 30h
//	t=40  OtherSW on n3, TTR 4h
//	t=100 Network (no node), TTR 8h
func tinyLog(t *testing.T) *failures.Log {
	t.Helper()
	records := []failures.Failure{
		{ID: 1, System: failures.Tsubame2, Time: ts(0), Recovery: 10 * time.Hour, Category: failures.CatGPU, Node: "n1", GPUs: []int{1}},
		{ID: 2, System: failures.Tsubame2, Time: ts(10), Recovery: 20 * time.Hour, Category: failures.CatGPU, Node: "n1", GPUs: []int{0, 1}},
		{ID: 3, System: failures.Tsubame2, Time: ts(30), Recovery: 30 * time.Hour, Category: failures.CatGPU, Node: "n2", GPUs: []int{2}},
		{ID: 4, System: failures.Tsubame2, Time: ts(40), Recovery: 4 * time.Hour, Category: failures.CatOtherSW, Node: "n3"},
		{ID: 5, System: failures.Tsubame2, Time: ts(100), Recovery: 8 * time.Hour, Category: failures.CatNetwork},
	}
	log, err := failures.NewLog(failures.Tsubame2, records)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func emptyLog(t *testing.T) *failures.Log {
	t.Helper()
	log, err := failures.NewLog(failures.Tsubame2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestCategoryBreakdown(t *testing.T) {
	log := tinyLog(t)
	shares, err := categoryBreakdown(index.New(log))
	if err != nil {
		t.Fatal(err)
	}
	if shares[0].Category != failures.CatGPU || shares[0].Count != 3 {
		t.Errorf("top category = %+v, want GPU x3", shares[0])
	}
	if math.Abs(shares[0].Percent-60) > 1e-9 {
		t.Errorf("GPU percent = %v, want 60", shares[0].Percent)
	}
	var total float64
	for _, s := range shares {
		total += s.Percent
	}
	if math.Abs(total-100) > 1e-9 {
		t.Errorf("shares sum to %v, want 100", total)
	}
	if got := ShareOf(shares, failures.CatNetwork); math.Abs(got-20) > 1e-9 {
		t.Errorf("ShareOf(Network) = %v, want 20", got)
	}
	if got := ShareOf(shares, failures.CatCPU); got != 0 {
		t.Errorf("ShareOf(absent) = %v, want 0", got)
	}
	if _, err := categoryBreakdown(index.New(emptyLog(t))); err != ErrEmptyLog {
		t.Errorf("empty log error = %v", err)
	}
}

func TestCategoryBreakdownDeterministicTies(t *testing.T) {
	records := []failures.Failure{
		{ID: 1, System: failures.Tsubame2, Time: ts(0), Category: failures.CatFan, Node: "n1"},
		{ID: 2, System: failures.Tsubame2, Time: ts(1), Category: failures.CatDisk, Node: "n2"},
	}
	log, err := failures.NewLog(failures.Tsubame2, records)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := categoryBreakdown(index.New(log))
	if err != nil {
		t.Fatal(err)
	}
	if shares[0].Category != failures.CatDisk {
		t.Errorf("tie order = %v, want alphabetical (Disk first)", shares)
	}
}

func TestSoftwareCauses(t *testing.T) {
	records := []failures.Failure{
		{ID: 1, System: failures.Tsubame3, Time: ts(0), Category: failures.CatSoftware, Node: "n1", SoftwareCause: failures.CauseGPUDriver},
		{ID: 2, System: failures.Tsubame3, Time: ts(1), Category: failures.CatSoftware, Node: "n2", SoftwareCause: failures.CauseGPUDriver},
		{ID: 3, System: failures.Tsubame3, Time: ts(2), Category: failures.CatSoftware, Node: "n3", SoftwareCause: failures.CauseUnknown},
		{ID: 4, System: failures.Tsubame3, Time: ts(3), Category: failures.CatGPU, Node: "n4", GPUs: []int{0}},
	}
	log, err := failures.NewLog(failures.Tsubame3, records)
	if err != nil {
		t.Fatal(err)
	}
	causes, err := softwareCauses(index.New(log), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(causes) != 2 || causes[0].Cause != failures.CauseGPUDriver || causes[0].Count != 2 {
		t.Errorf("causes = %+v", causes)
	}
	if math.Abs(causes[0].Percent-66.666) > 0.01 {
		t.Errorf("GPU-driver percent = %v, want ~66.7 (of software failures)", causes[0].Percent)
	}
	top1, err := softwareCauses(index.New(log), 1)
	if err != nil || len(top1) != 1 {
		t.Errorf("top-1 = %+v, %v", top1, err)
	}
	if _, err := softwareCauses(index.New(tinyLog(t)), 5); err != ErrEmptyLog {
		t.Errorf("no-cause log error = %v", err)
	}
}

func TestNodeFailureCounts(t *testing.T) {
	log := tinyLog(t)
	bins, err := nodeFailureCounts(index.New(log))
	if err != nil {
		t.Fatal(err)
	}
	// n1 has 2 failures; n2, n3 have 1 each. The network failure has no
	// node and must not contribute.
	if got := PercentWithExactly(bins, 1); math.Abs(got-66.666) > 0.01 {
		t.Errorf("single-failure share = %v, want ~66.7", got)
	}
	if got := PercentWithExactly(bins, 2); math.Abs(got-33.333) > 0.01 {
		t.Errorf("two-failure share = %v, want ~33.3", got)
	}
	if got := PercentWithAtLeast(bins, 2); math.Abs(got-33.333) > 0.01 {
		t.Errorf("multi-failure share = %v, want ~33.3", got)
	}
	if got := PercentWithExactly(bins, 7); got != 0 {
		t.Errorf("absent bin = %v, want 0", got)
	}
	if _, err := nodeFailureCounts(index.New(emptyLog(t))); err != ErrEmptyLog {
		t.Errorf("empty error = %v", err)
	}
}

func TestMultiFailureNodeSplit(t *testing.T) {
	log := tinyLog(t)
	split, err := multiFailureNodeSplit(index.New(log))
	if err != nil {
		t.Fatal(err)
	}
	// Only n1 is a multi-failure node, with 2 hardware (GPU) failures.
	if split.Hardware != 2 || split.Software != 0 {
		t.Errorf("split = %+v, want {2 0}", split)
	}
}

func TestGPUSlotDistribution(t *testing.T) {
	log := tinyLog(t)
	slots, err := gpuSlotDistribution(index.New(log))
	if err != nil {
		t.Fatal(err)
	}
	// Incidents: slot0 x1, slot1 x2, slot2 x1 -> 25%, 50%, 25%.
	want := []float64{25, 50, 25}
	for i, s := range slots {
		if s.Slot != i || math.Abs(s.Percent-want[i]) > 1e-9 {
			t.Errorf("slot %d = %+v, want %.0f%%", i, s, want[i])
		}
	}
	noGPU, err := failures.NewLog(failures.Tsubame2, []failures.Failure{
		{ID: 1, System: failures.Tsubame2, Time: ts(0), Category: failures.CatFan, Node: "n1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gpuSlotDistribution(index.New(noGPU)); err != ErrEmptyLog {
		t.Errorf("no-GPU error = %v", err)
	}
}

func TestMultiGPUInvolvement(t *testing.T) {
	log := tinyLog(t)
	rows, err := multiGPUInvolvement(index.New(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v, want one per involvement size", rows)
	}
	if rows[0].Count != 2 || rows[1].Count != 1 || rows[2].Count != 0 {
		t.Errorf("counts = %+v, want 2/1/0", rows)
	}
	if math.Abs(MultiGPUPercent(rows)-33.333) > 0.01 {
		t.Errorf("multi-GPU percent = %v, want ~33.3", MultiGPUPercent(rows))
	}
	if _, err := multiGPUInvolvement(index.New(emptyLog(t))); err != ErrEmptyLog {
		t.Errorf("empty error = %v", err)
	}
}

func TestTBFAnalysis(t *testing.T) {
	log := tinyLog(t)
	res, err := tbfAnalysis(index.New(log))
	if err != nil {
		t.Fatal(err)
	}
	// Gaps: 10, 20, 10, 60 -> mean 25.
	if res.N != 4 || math.Abs(res.MTBFHours-25) > 1e-9 {
		t.Errorf("TBF = %+v, want mean 25 over 4 gaps", res)
	}
	if res.P75 < res.Median || res.Median < res.P25 {
		t.Error("quantiles out of order")
	}
	single, _ := failures.NewLog(failures.Tsubame2, []failures.Failure{
		{ID: 1, System: failures.Tsubame2, Time: ts(0), Category: failures.CatGPU, Node: "n1", GPUs: []int{0}},
	})
	if _, err := tbfAnalysis(index.New(single)); err != ErrTooFewRecords {
		t.Errorf("single-record error = %v", err)
	}
}

func TestTBFByCategory(t *testing.T) {
	log := tinyLog(t)
	rows, err := tbfByCategory(index.New(log), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Only GPU has >= 2 records; gaps 10 and 20 -> mean 15.
	if len(rows) != 1 || rows[0].Category != failures.CatGPU {
		t.Fatalf("rows = %+v", rows)
	}
	if math.Abs(rows[0].Summary.Mean-15) > 1e-9 {
		t.Errorf("GPU TBF mean = %v, want 15", rows[0].Summary.Mean)
	}
	if _, err := tbfByCategory(index.New(log), 10, 1); err != ErrTooFewRecords {
		t.Errorf("high threshold error = %v", err)
	}
	if _, err := tbfByCategory(index.New(emptyLog(t)), 2, 1); err != ErrEmptyLog {
		t.Errorf("empty error = %v", err)
	}
}

func TestCategoryMTBF(t *testing.T) {
	log := tinyLog(t)
	mtbf, ok := CategoryMTBF(log, failures.CatGPU)
	if !ok || math.Abs(mtbf-15) > 1e-9 {
		t.Errorf("GPU MTBF = %v ok=%v, want 15", mtbf, ok)
	}
	if _, ok := CategoryMTBF(log, failures.CatCPU); ok {
		t.Error("absent category should report !ok")
	}
}

func TestGPUCardIncidentMTBF(t *testing.T) {
	log := tinyLog(t)
	// GPU failures at t=0,10,30 with 1+2+1 = 4 card incidents over a
	// 30-hour window: 30/(4-1) = 10.
	mtbf, ok := GPUCardIncidentMTBF(log)
	if !ok || math.Abs(mtbf-10) > 1e-9 {
		t.Errorf("card-incident MTBF = %v ok=%v, want 10", mtbf, ok)
	}
}

func TestMultiGPUTemporal(t *testing.T) {
	// Three multi-GPU failures: two 5h apart, one 500h later.
	records := []failures.Failure{
		{ID: 1, System: failures.Tsubame2, Time: ts(0), Category: failures.CatGPU, Node: "n1", GPUs: []int{0, 1}},
		{ID: 2, System: failures.Tsubame2, Time: ts(5), Category: failures.CatGPU, Node: "n2", GPUs: []int{1, 2}},
		{ID: 3, System: failures.Tsubame2, Time: ts(505), Category: failures.CatGPU, Node: "n3", GPUs: []int{0, 2}},
	}
	log, err := failures.NewLog(failures.Tsubame2, records)
	if err != nil {
		t.Fatal(err)
	}
	res, err := multiGPUTemporal(index.New(log), 72)
	if err != nil {
		t.Fatal(err)
	}
	if res.MultiEvents != 3 {
		t.Errorf("events = %d, want 3", res.MultiEvents)
	}
	// Gaps 5 and 500: median 252.5, expected 505/2 = 252.5 -> score 1.
	if math.Abs(res.MedianGapHours-252.5) > 1e-9 {
		t.Errorf("median gap = %v", res.MedianGapHours)
	}
	// Two of three events have a neighbour within 72 h.
	if math.Abs(res.WithinWindowPercent-66.666) > 0.01 {
		t.Errorf("within-window = %v%%, want ~66.7%%", res.WithinWindowPercent)
	}
	if _, err := multiGPUTemporal(index.New(tinyLog(t)), 72); err != ErrTooFewRecords {
		t.Errorf("one-multi-event log error = %v", err)
	}
}

func TestTTRAnalysis(t *testing.T) {
	log := tinyLog(t)
	res, err := ttrAnalysis(index.New(log))
	if err != nil {
		t.Fatal(err)
	}
	// Recoveries: 10, 20, 30, 4, 8 -> mean 14.4, max 30.
	if math.Abs(res.MTTRHours-14.4) > 1e-9 || res.MaxHours != 30 {
		t.Errorf("TTR = %+v", res)
	}
	if _, err := ttrAnalysis(index.New(emptyLog(t))); err != ErrEmptyLog {
		t.Errorf("empty error = %v", err)
	}
}

func TestTTRByCategory(t *testing.T) {
	log := tinyLog(t)
	rows, err := ttrByCategory(index.New(log), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %+v, want 3 categories", rows)
	}
	// Sorted ascending by mean: OtherSW (4) < Network (8) < GPU (20).
	if rows[0].Category != failures.CatOtherSW || rows[2].Category != failures.CatGPU {
		t.Errorf("order = %v, %v, %v", rows[0].Category, rows[1].Category, rows[2].Category)
	}
}

func TestTTRSpread(t *testing.T) {
	log := tinyLog(t)
	spread, err := TTRSpread(log)
	if err != nil {
		t.Fatal(err)
	}
	if spread.HardwareMean <= spread.SoftwareMean {
		t.Errorf("hardware mean %v should exceed software mean %v here", spread.HardwareMean, spread.SoftwareMean)
	}
	hwOnly, _ := failures.NewLog(failures.Tsubame2, []failures.Failure{
		{ID: 1, System: failures.Tsubame2, Time: ts(0), Category: failures.CatGPU, Node: "n1", GPUs: []int{0}},
	})
	if _, err := TTRSpread(hwOnly); err != ErrEmptyLog {
		t.Errorf("one-sided log error = %v", err)
	}
}

func TestMonthlySeasonality(t *testing.T) {
	log := tinyLog(t)
	buckets, err := monthlySeasonality(index.New(log))
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 12 {
		t.Fatalf("%d buckets, want 12", len(buckets))
	}
	if buckets[0].Month != time.January || buckets[0].Failures != 5 {
		t.Errorf("January bucket = %+v, want all 5 records", buckets[0])
	}
	for i := 1; i < 12; i++ {
		if buckets[i].Failures != 0 {
			t.Errorf("month %v has %d failures, want 0", buckets[i].Month, buckets[i].Failures)
		}
	}
	if _, err := monthlySeasonality(index.New(emptyLog(t))); err != ErrEmptyLog {
		t.Errorf("empty error = %v", err)
	}
}

func TestMonthlySeries(t *testing.T) {
	records := []failures.Failure{
		{ID: 1, System: failures.Tsubame2, Time: time.Date(2012, 1, 15, 0, 0, 0, 0, time.UTC), Category: failures.CatGPU, Node: "n1", GPUs: []int{0}},
		{ID: 2, System: failures.Tsubame2, Time: time.Date(2012, 3, 2, 0, 0, 0, 0, time.UTC), Category: failures.CatGPU, Node: "n2", GPUs: []int{1}},
	}
	log, err := failures.NewLog(failures.Tsubame2, records)
	if err != nil {
		t.Fatal(err)
	}
	series, err := MonthlySeries(log)
	if err != nil {
		t.Fatal(err)
	}
	// Jan, Feb, Mar 2012 — including the empty February.
	if len(series) != 3 {
		t.Fatalf("series = %+v, want 3 months", series)
	}
	if series[1].Failures != 0 || series[1].Month != time.February {
		t.Errorf("February = %+v, want zero count", series[1])
	}
}

func TestSeasonalAnalysisOnSynthetic(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame2Profile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := seasonalAnalysis(index.New(log))
	if err != nil {
		t.Fatal(err)
	}
	if sc.SecondHalfTTRRatio < 1.02 {
		t.Errorf("Tsubame-2 second-half ratio = %v, want > 1 (Figure 11)", sc.SecondHalfTTRRatio)
	}
	if sc.ChiSquareP > 0.01 {
		t.Errorf("monthly counts uniformity p = %v, want small (Figure 12 varies)", sc.ChiSquareP)
	}
	if math.Abs(sc.Spearman) > 0.75 {
		t.Errorf("density-TTR Spearman = %v; the paper finds no strong correlation", sc.Spearman)
	}
}

func TestNewStudyAndCompare(t *testing.T) {
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := Compare(t2, t3)
	if err != nil {
		t.Fatal(err)
	}
	// Headline cross-generation claims.
	if cmp.MTBFImprovement < 4 {
		t.Errorf("MTBF improvement = %.2fx, paper reports >4x", cmp.MTBFImprovement)
	}
	if cmp.MTTRRatio < 0.8 || cmp.MTTRRatio > 1.25 {
		t.Errorf("MTTR ratio = %.2f, paper reports ~1 (no improvement)", cmp.MTTRRatio)
	}
	if cmp.GPUMTBFImprovement < 6 {
		t.Errorf("GPU MTBF improvement = %.2fx, paper reports ~10x", cmp.GPUMTBFImprovement)
	}
	if cmp.CPUMTBFImprovement < 1.5 || cmp.CPUMTBFImprovement > 5 {
		t.Errorf("CPU MTBF improvement = %.2fx, paper reports ~3x", cmp.CPUMTBFImprovement)
	}
	if cmp.PEPRatio < cmp.MTBFImprovement {
		t.Errorf("PEP ratio %.1fx should exceed the bare MTBF ratio %.1fx", cmp.PEPRatio, cmp.MTBFImprovement)
	}
	if cmp.TTRShapeKS > 0.15 {
		t.Errorf("TTR shape KS = %v, paper reports very similar shapes", cmp.TTRShapeKS)
	}
	// Study plumbing.
	if cmp.Old.Records != 897 || cmp.New.Records != 338 {
		t.Errorf("study sizes = %d, %d", cmp.Old.Records, cmp.New.Records)
	}
	if cmp.New.SoftwareTop == nil || cmp.Old.SoftwareTop != nil {
		t.Error("software causes should exist only on Tsubame-3")
	}
	if cmp.Old.MultiGPU == nil {
		t.Error("Tsubame-2 study should have a multi-GPU temporal result")
	}
	if cmp.Old.PEP.FLOPPerMTBF <= 0 || cmp.New.PEP.FLOPPerMTBF <= 0 {
		t.Error("PEP should be positive")
	}
}

func TestNewStudyErrors(t *testing.T) {
	if _, err := NewStudy(emptyLog(t)); err == nil {
		t.Error("empty log should fail")
	}
}
