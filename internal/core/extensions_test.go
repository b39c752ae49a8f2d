package core

import (
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/synth"
)

func syntheticT2(t *testing.T) *failures.Log {
	t.Helper()
	log, err := synth.Generate(synth.Tsubame2Profile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func syntheticT3(t *testing.T) *failures.Log {
	t.Helper()
	log, err := synth.Generate(synth.Tsubame3Profile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestSpatialAnalysis(t *testing.T) {
	res, err := spatialAnalysis(index.New(syntheticT2(t)), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Racks) == 0 {
		t.Fatal("no rack shares")
	}
	// Shares sum to ~100% and are sorted descending.
	var sum float64
	prev := res.Racks[0].Failures
	for _, r := range res.Racks {
		sum += r.Percent
		if r.Failures > prev {
			t.Error("racks not sorted by descending failures")
		}
		prev = r.Failures
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("rack shares sum to %v", sum)
	}
	// The generator skews 20% of racks by 3x: concentration must be
	// visible at both rack and node level.
	if res.RackGini <= 0.1 {
		t.Errorf("rack Gini = %v, want visible concentration", res.RackGini)
	}
	if res.NodeGini <= res.AffectedNodeGini {
		t.Errorf("fleet-wide node Gini %v should exceed affected-only Gini %v (most nodes never fail)",
			res.NodeGini, res.AffectedNodeGini)
	}
	if res.Top10PctRackShare <= 0.10 {
		t.Errorf("top-10%% racks carry %.1f%%, want more than their proportional share", 100*res.Top10PctRackShare)
	}
}

func TestSpatialAnalysisErrors(t *testing.T) {
	if _, err := spatialAnalysis(index.New(emptyLog(t)), 1); err != ErrEmptyLog {
		t.Errorf("empty error = %v", err)
	}
	// Node identifiers outside the canonical topology are rejected.
	bad, err := failures.NewLog(failures.Tsubame2, []failures.Failure{
		{ID: 1, System: failures.Tsubame2, Time: ts(0), Category: failures.CatGPU, Node: "weird-name", GPUs: []int{0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spatialAnalysis(index.New(bad), 1); err == nil {
		t.Error("foreign node IDs should fail")
	}
}

func TestGPUSurvival(t *testing.T) {
	res2, err := gpuSurvival(index.New(syntheticT2(t)))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cards != 1408*3 {
		t.Errorf("Tsubame-2 cards = %d, want 4224", res2.Cards)
	}
	if res2.Failed == 0 || res2.Failed > res2.Cards {
		t.Errorf("failed cards = %d", res2.Failed)
	}
	if res2.SurvivalAtOneYear <= 0 || res2.SurvivalAtOneYear >= 1 {
		t.Errorf("one-year survival = %v, want in (0, 1)", res2.SurvivalAtOneYear)
	}
	// Curve is non-increasing.
	prev := 1.0
	for _, pt := range res2.Curve {
		if pt.Survival > prev+1e-12 {
			t.Fatalf("survival curve rises at t=%v", pt.Time)
		}
		prev = pt.Survival
	}

	res3, err := gpuSurvival(index.New(syntheticT3(t)))
	if err != nil {
		t.Fatal(err)
	}
	if res3.Cards != 540*4 {
		t.Errorf("Tsubame-3 cards = %d, want 2160", res3.Cards)
	}
	// The newer generation's cards survive their first year better: the
	// paper's 10x GPU MTBF improvement shows up as a survival gap.
	if res3.SurvivalAtOneYear <= res2.SurvivalAtOneYear {
		t.Errorf("Tsubame-3 one-year survival %v should exceed Tsubame-2's %v",
			res3.SurvivalAtOneYear, res2.SurvivalAtOneYear)
	}
}

func TestGPUSurvivalNoGPUData(t *testing.T) {
	log, err := failures.NewLog(failures.Tsubame2, []failures.Failure{
		{ID: 1, System: failures.Tsubame2, Time: ts(0), Category: failures.CatFan, Node: "n0001"},
		{ID: 2, System: failures.Tsubame2, Time: ts(5), Category: failures.CatFan, Node: "n0002"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gpuSurvival(index.New(log)); err != ErrEmptyLog {
		t.Errorf("no-GPU log error = %v", err)
	}
}

func TestRollingMTBF(t *testing.T) {
	log := syntheticT2(t)
	series, err := RollingMTBF(log, 60, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) < 10 {
		t.Fatalf("series too short: %d windows", len(series))
	}
	var totalFailures int
	for i, pt := range series {
		if pt.MTBFHours <= 0 {
			t.Errorf("window %d MTBF = %v", i, pt.MTBFHours)
		}
		totalFailures += pt.Failures
	}
	// 60-day windows stepping 30 days double-cover: total window failures
	// roughly twice the log size.
	if totalFailures < log.Len() {
		t.Errorf("windows saw %d failures, log has %d", totalFailures, log.Len())
	}
	// Window starts step by 30 days.
	if gap := series[1].Start.Sub(series[0].Start); gap != 30*24*time.Hour {
		t.Errorf("step = %v, want 720h", gap)
	}
}

func TestRollingMTBFErrors(t *testing.T) {
	log := syntheticT2(t)
	if _, err := RollingMTBF(log, 0, 30); err == nil {
		t.Error("zero window should fail")
	}
	if _, err := RollingMTBF(log, 30, 0); err == nil {
		t.Error("zero step should fail")
	}
	if _, err := RollingMTBF(emptyLog(t), 30, 30); err != ErrTooFewRecords {
		t.Errorf("empty error = %v", err)
	}
}

func TestMTBFTrend(t *testing.T) {
	series := []WindowMTBF{
		{MTBFHours: 10}, {MTBFHours: 10}, {MTBFHours: 10},
		{MTBFHours: 20}, {MTBFHours: 20}, {MTBFHours: 20},
		{MTBFHours: 30}, {MTBFHours: 30}, {MTBFHours: 30},
	}
	trend, err := MTBFTrend(series)
	if err != nil {
		t.Fatal(err)
	}
	if trend != 3 {
		t.Errorf("trend = %v, want 3 (30h late vs 10h early)", trend)
	}
	if _, err := MTBFTrend(series[:2]); err != ErrTooFewRecords {
		t.Errorf("short-series error = %v", err)
	}
}

func TestStudyCarriesExtensions(t *testing.T) {
	s, err := NewStudy(syntheticT2(t))
	if err != nil {
		t.Fatal(err)
	}
	if s.Spatial == nil {
		t.Error("study missing spatial extension")
	}
	if s.Survival == nil {
		t.Error("study missing survival extension")
	}
}

func TestCategoryDrift(t *testing.T) {
	old := []CategoryShare{
		{Category: failures.CatGPU, Percent: 44.37},
		{Category: failures.CatFan, Percent: 10.0},
		{Category: failures.CatCPU, Percent: 1.78},
	}
	new_ := []CategoryShare{
		{Category: failures.CatGPU, Percent: 27.81},
		{Category: failures.CatSoftware, Percent: 50.59},
		{Category: failures.CatCPU, Percent: 3.25},
	}
	rows := CategoryDrift(old, new_)
	if len(rows) != 4 {
		t.Fatalf("rows = %+v, want 4", rows)
	}
	// Largest |delta| first: Software +50.59.
	if rows[0].Category != failures.CatSoftware || !rows[0].NewOnly {
		t.Errorf("top drift = %+v, want Software (new-only)", rows[0])
	}
	if rows[1].Category != failures.CatGPU || rows[1].Delta > -16 || rows[1].Delta < -17 {
		t.Errorf("GPU drift = %+v, want ~-16.56", rows[1])
	}
	var fan DriftRow
	for _, r := range rows {
		if r.Category == failures.CatFan {
			fan = r
		}
	}
	if !fan.OldOnly || fan.Delta != -10 {
		t.Errorf("Fan drift = %+v, want old-only -10", fan)
	}
}

func TestCategoryDriftOnSynthetic(t *testing.T) {
	oldStudy, err := NewStudy(syntheticT2(t))
	if err != nil {
		t.Fatal(err)
	}
	newStudy, err := NewStudy(syntheticT3(t))
	if err != nil {
		t.Fatal(err)
	}
	rows := CategoryDrift(oldStudy.Breakdown, newStudy.Breakdown)
	// The paper's RQ1 narrative: software rises to dominance, GPU drops.
	if rows[0].Category != failures.CatSoftware || rows[0].Delta < 40 {
		t.Errorf("top drift = %+v, want Software rising ~+50", rows[0])
	}
	foundGPUDrop := false
	for _, r := range rows {
		if r.Category == failures.CatGPU && r.Delta < -10 {
			foundGPUDrop = true
		}
	}
	if !foundGPUDrop {
		t.Error("GPU share should drop across generations")
	}
}

func TestDiffPeriodsNoChange(t *testing.T) {
	// Split one stationary log in half: no significant shifts expected.
	log := syntheticT2(t)
	before, after := log.SplitFraction(0.5)
	d, err := DiffPeriods(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if d.BeforeFailures+d.AfterFailures != log.Len() {
		t.Errorf("split lost records: %d + %d != %d", d.BeforeFailures, d.AfterFailures, log.Len())
	}
	if d.FailureRateRatio < 0.8 || d.FailureRateRatio > 1.25 {
		t.Errorf("rate ratio = %v on a stationary split, want ~1", d.FailureRateRatio)
	}
	if d.TBFShiftP < 0.01 {
		t.Errorf("TBF shift p = %v on a stationary split", d.TBFShiftP)
	}
	if d.Improved(0.05) {
		t.Error("stationary split should not report improvement")
	}
}

func TestDiffPeriodsDetectsImprovement(t *testing.T) {
	// Compare Tsubame-2 against Tsubame-3 recovery/arrival behaviour by
	// relabeling: generate two logs with very different MTBF from custom
	// profiles of the same system.
	slow := synth.Tsubame2Profile()
	fast := synth.Tsubame2Profile()
	// Halve the category counts so the "after" period has half the
	// failures over the same window: a 2x MTBF improvement.
	for i := range fast.Categories {
		fast.Categories[i].Count = (fast.Categories[i].Count + 1) / 2
	}
	fast.SoftwareOnMultiNodes = 1
	beforeLog, err := synth.Generate(slow, 1)
	if err != nil {
		t.Fatal(err)
	}
	afterLog, err := synth.Generate(fast, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DiffPeriods(beforeLog, afterLog)
	if err != nil {
		t.Fatal(err)
	}
	if d.FailureRateRatio > 0.7 {
		t.Errorf("rate ratio = %v, want ~0.5", d.FailureRateRatio)
	}
	if d.TBFShiftP > 0.001 {
		t.Errorf("TBF shift p = %v, want tiny for a 2x rate change", d.TBFShiftP)
	}
	if !d.Improved(0.01) {
		t.Error("2x MTBF improvement should be reported as improved")
	}
}

func TestDiffPeriodsErrors(t *testing.T) {
	t2 := syntheticT2(t)
	t3 := syntheticT3(t)
	if _, err := DiffPeriods(t2, t3); err == nil {
		t.Error("cross-system diff should fail")
	}
	short, rest := t2.SplitFraction(0.001)
	if _, err := DiffPeriods(short, rest); err != ErrTooFewRecords {
		t.Errorf("short-period error = %v", err)
	}
}

func TestGPUSurvivalHazard(t *testing.T) {
	res, err := gpuSurvival(index.New(syntheticT2(t)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hazard) == 0 {
		t.Fatal("no hazard curve")
	}
	prev := 0.0
	for _, pt := range res.Hazard {
		if pt.CumulativeHazard < prev {
			t.Fatalf("hazard decreased at t=%v", pt.Time)
		}
		prev = pt.CumulativeHazard
	}
	// Constant-rate generator: the cumulative hazard should be roughly
	// linear — the hazard accumulated in the second half of the window is
	// within 2x of the first half.
	horizon := res.Hazard[len(res.Hazard)-1].Time
	mid := hazardAtTime(res.Hazard, horizon/2)
	end := res.Hazard[len(res.Hazard)-1].CumulativeHazard
	if mid <= 0 || end <= 0 {
		t.Fatalf("degenerate hazard: mid=%v end=%v", mid, end)
	}
	ratio := (end - mid) / mid
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("hazard second/first half ratio = %v, want roughly 1 (constant rate)", ratio)
	}
}

func hazardAtTime(curve []stats.HazardPoint, t float64) float64 {
	h := 0.0
	for _, pt := range curve {
		if pt.Time > t {
			break
		}
		h = pt.CumulativeHazard
	}
	return h
}

func TestTTRSignificanceByCategory(t *testing.T) {
	log := syntheticT2(t)
	rows, err := TTRSignificanceByCategory(log, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 5 {
		t.Fatalf("only %d categories tested", len(rows))
	}
	// Sorted by ascending p.
	for i := 1; i < len(rows); i++ {
		if rows[i].P < rows[i-1].P {
			t.Error("rows not sorted by p-value")
		}
	}
	// The generator gives categories genuinely different TTR models, so
	// at least some one-vs-rest tests must reject at 1%: the paper's
	// "varies significantly across failure types".
	significant := 0
	for _, r := range rows {
		if r.P < 0.01 {
			significant++
		}
		if r.P < 0 || r.P > 1 {
			t.Errorf("%s p = %v", r.Category, r.P)
		}
	}
	if significant < 2 {
		t.Errorf("only %d categories significant at 1%%; Figure 10's variation should show", significant)
	}
	if _, err := TTRSignificanceByCategory(emptyLog(t), 5); err != ErrEmptyLog {
		t.Errorf("empty error = %v", err)
	}
}

func TestDailyAutocorrelation(t *testing.T) {
	log := syntheticT2(t)
	ac, err := DailyAutocorrelation(log, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ac < -1 || ac > 1 {
		t.Errorf("autocorrelation = %v outside [-1, 1]", ac)
	}
	// Lag 0 is exactly 1 by definition.
	ac0, err := DailyAutocorrelation(log, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ac0 < 0.999 {
		t.Errorf("lag-0 autocorrelation = %v, want 1", ac0)
	}
	if _, err := DailyAutocorrelation(emptyLog(t), 1); err != ErrEmptyLog {
		t.Errorf("empty error = %v", err)
	}
	if _, err := DailyAutocorrelation(log, 100000); err != ErrTooFewRecords {
		t.Errorf("huge-lag error = %v", err)
	}
}
