// Benchmark harness: one benchmark per table and figure of the paper plus
// the ablation experiments from DESIGN.md. Each benchmark regenerates its
// artifact from the calibrated synthetic logs and reports the headline
// numbers as benchmark metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the paper's rows/series and records paper-vs-measured values
// (collected into EXPERIMENTS.md).
package tsubame_test

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spares"
	"repro/internal/synth"
)

// benchSeed keeps every benchmark on the same deterministic dataset.
const benchSeed = 42

// benchLogs generates both logs once per benchmark.
func benchLogs(b *testing.B) (t2, t3 *failures.Log) {
	b.Helper()
	t2, t3, err := synth.GenerateBoth(benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return t2, t3
}

func benchStudies(b *testing.B) (*core.Study, *core.Study) {
	b.Helper()
	t2, t3 := benchLogs(b)
	s2, err := core.NewStudy(t2)
	if err != nil {
		b.Fatal(err)
	}
	s3, err := core.NewStudy(t3)
	if err != nil {
		b.Fatal(err)
	}
	return s2, s3
}

// BenchmarkTableI regenerates the node-configuration table.
func BenchmarkTableI(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = report.TableI()
	}
	if len(out) == 0 {
		b.Fatal("empty table")
	}
}

// BenchmarkTableII regenerates the failure-category taxonomy table.
func BenchmarkTableII(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = report.TableII()
	}
	if len(out) == 0 {
		b.Fatal("empty table")
	}
}

// BenchmarkFig2 regenerates the failure-category breakdowns. Paper: GPU
// 44.37% / CPU 1.78% on Tsubame-2; Software 50.59% / GPU 27.81% / CPU
// 3.25% on Tsubame-3.
func BenchmarkFig2(b *testing.B) {
	t2, t3 := benchLogs(b)
	b.ResetTimer()
	var shares2, shares3 []core.CategoryShare
	for i := 0; i < b.N; i++ {
		var err error
		if shares2, err = core.CategoryBreakdown(t2); err != nil {
			b.Fatal(err)
		}
		if shares3, err = core.CategoryBreakdown(t3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(core.ShareOf(shares2, failures.CatGPU), "t2_gpu_pct")
	b.ReportMetric(core.ShareOf(shares2, failures.CatCPU), "t2_cpu_pct")
	b.ReportMetric(core.ShareOf(shares3, failures.CatSoftware), "t3_sw_pct")
	b.ReportMetric(core.ShareOf(shares3, failures.CatGPU), "t3_gpu_pct")
}

// BenchmarkFig3 regenerates the Tsubame-3 software root-locus breakdown.
// Paper: GPU-driver ~43%, unknown ~20% of 171 software failures.
func BenchmarkFig3(b *testing.B) {
	_, t3 := benchLogs(b)
	b.ResetTimer()
	var causes []core.CauseShare
	for i := 0; i < b.N; i++ {
		var err error
		if causes, err = core.SoftwareCauses(t3, 16); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(causes[0].Percent, "gpu_driver_pct")
	b.ReportMetric(causes[1].Percent, "unknown_pct")
}

// BenchmarkFig4 regenerates the failures-per-node distributions. Paper:
// ~60% single-failure nodes on Tsubame-2, ~60% multi-failure nodes on
// Tsubame-3, ~10% two-failure nodes on both.
func BenchmarkFig4(b *testing.B) {
	t2, t3 := benchLogs(b)
	b.ResetTimer()
	var bins2, bins3 []core.NodeCountBin
	for i := 0; i < b.N; i++ {
		var err error
		if bins2, err = core.NodeFailureCounts(t2); err != nil {
			b.Fatal(err)
		}
		if bins3, err = core.NodeFailureCounts(t3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(core.PercentWithExactly(bins2, 1), "t2_one_failure_pct")
	b.ReportMetric(core.PercentWithExactly(bins2, 2), "t2_two_failure_pct")
	b.ReportMetric(core.PercentWithAtLeast(bins3, 2), "t3_multi_failure_pct")
}

// BenchmarkFig5 regenerates the GPU-slot distributions. Paper: slot 1
// ~20% above slots 0/2 on Tsubame-2; outer slots dominate on Tsubame-3.
func BenchmarkFig5(b *testing.B) {
	t2, t3 := benchLogs(b)
	b.ResetTimer()
	var slots2, slots3 []core.SlotShare
	for i := 0; i < b.N; i++ {
		var err error
		if slots2, err = core.GPUSlotDistribution(t2); err != nil {
			b.Fatal(err)
		}
		if slots3, err = core.GPUSlotDistribution(t3); err != nil {
			b.Fatal(err)
		}
	}
	outer := (slots2[0].Percent + slots2[2].Percent) / 2
	b.ReportMetric(slots2[1].Percent/outer, "t2_slot1_over_outer")
	b.ReportMetric(slots3[0].Percent+slots3[3].Percent, "t3_outer_pct")
}

// BenchmarkTableIII regenerates the multi-GPU involvement table. Paper:
// ~70% multi-GPU on Tsubame-2, <8% on Tsubame-3, zero 4-GPU failures.
func BenchmarkTableIII(b *testing.B) {
	t2, t3 := benchLogs(b)
	b.ResetTimer()
	var rows2, rows3 []core.InvolvementRow
	for i := 0; i < b.N; i++ {
		var err error
		if rows2, err = core.MultiGPUInvolvement(t2); err != nil {
			b.Fatal(err)
		}
		if rows3, err = core.MultiGPUInvolvement(t3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(core.MultiGPUPercent(rows2), "t2_multi_gpu_pct")
	b.ReportMetric(core.MultiGPUPercent(rows3), "t3_multi_gpu_pct")
	b.ReportMetric(float64(rows3[3].Count), "t3_four_gpu_count")
}

// BenchmarkFig6 regenerates the TBF distributions. Paper: MTBF ~15 h vs
// >70 h; p75 of 20 h vs 93 h.
func BenchmarkFig6(b *testing.B) {
	t2, t3 := benchLogs(b)
	b.ResetTimer()
	var r2, r3 *core.TBFResult
	for i := 0; i < b.N; i++ {
		var err error
		if r2, err = core.TBFAnalysis(t2); err != nil {
			b.Fatal(err)
		}
		if r3, err = core.TBFAnalysis(t3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r2.MTBFHours, "t2_mtbf_h")
	b.ReportMetric(r3.MTBFHours, "t3_mtbf_h")
	b.ReportMetric(r2.P75, "t2_p75_h")
	b.ReportMetric(r3.P75, "t3_p75_h")
}

// BenchmarkFig7 regenerates the per-category TBF boxplots. Paper: GPU
// MTBF 21.94 h -> 226.48 h (~10x on card incidents), CPU 537.6 h ->
// 1593.6 h (~3x).
func BenchmarkFig7(b *testing.B) {
	t2, t3 := benchLogs(b)
	b.ResetTimer()
	var perType2, perType3 []core.CategoryDurations
	for i := 0; i < b.N; i++ {
		var err error
		if perType2, err = core.TBFByCategory(t2, 5); err != nil {
			b.Fatal(err)
		}
		if perType3, err = core.TBFByCategory(t3, 5); err != nil {
			b.Fatal(err)
		}
	}
	if len(perType2) == 0 || len(perType3) == 0 {
		b.Fatal("empty per-type TBF")
	}
	gpu2, _ := core.GPUCardIncidentMTBF(t2)
	gpu3, _ := core.GPUCardIncidentMTBF(t3)
	b.ReportMetric(gpu3/gpu2, "gpu_mtbf_improvement_x")
	cpu2, _ := core.CategoryMTBF(t2, failures.CatCPU)
	cpu3, _ := core.CategoryMTBF(t3, failures.CatCPU)
	b.ReportMetric(cpu3/cpu2, "cpu_mtbf_improvement_x")
}

// BenchmarkFig8 regenerates the multi-GPU temporal-clustering analysis.
// Paper: multi-GPU failures "often tend to happen close-by in time".
func BenchmarkFig8(b *testing.B) {
	t2, _ := benchLogs(b)
	b.ResetTimer()
	var res *core.MultiGPUTemporalResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = core.MultiGPUTemporal(t2, 72); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.ClusteringScore, "clustering_score")
	b.ReportMetric(res.WithinWindowPercent, "within_72h_pct")
}

// BenchmarkFig9 regenerates the TTR distributions. Paper: MTTR ~55 h on
// both systems with very similar shapes.
func BenchmarkFig9(b *testing.B) {
	t2, t3 := benchLogs(b)
	b.ResetTimer()
	var r2, r3 *core.TTRResult
	for i := 0; i < b.N; i++ {
		var err error
		if r2, err = core.TTRAnalysis(t2); err != nil {
			b.Fatal(err)
		}
		if r3, err = core.TTRAnalysis(t3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r2.MTTRHours, "t2_mttr_h")
	b.ReportMetric(r3.MTTRHours, "t3_mttr_h")
	b.ReportMetric(r3.MTTRHours/r2.MTTRHours, "mttr_ratio")
}

// BenchmarkFig10 regenerates the per-category TTR boxplots. Paper:
// hardware repairs spread wider than software; SSD max ~290 h (T2),
// power-board ~230 h (T3).
func BenchmarkFig10(b *testing.B) {
	t2, t3 := benchLogs(b)
	b.ResetTimer()
	var perType2, perType3 []core.CategoryDurations
	for i := 0; i < b.N; i++ {
		var err error
		if perType2, err = core.TTRByCategory(t2, 2); err != nil {
			b.Fatal(err)
		}
		if perType3, err = core.TTRByCategory(t3, 2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(maxOf(perType2, failures.CatSSD), "t2_ssd_max_h")
	b.ReportMetric(maxOf(perType3, failures.CatPowerBoard), "t3_powerboard_max_h")
	spread2, err := core.TTRSpread(t2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(spread2.HardwareIQRHours/spread2.SoftwareIQRHours, "t2_hw_over_sw_iqr")
}

// BenchmarkFig11 regenerates the monthly TTR distributions. Paper:
// second-half elevation on Tsubame-2 only; no clean seasonal signal.
func BenchmarkFig11(b *testing.B) {
	t2, t3 := benchLogs(b)
	b.ResetTimer()
	var sc2, sc3 core.SeasonalCorrelation
	for i := 0; i < b.N; i++ {
		var err error
		if sc2, err = core.SeasonalAnalysis(t2); err != nil {
			b.Fatal(err)
		}
		if sc3, err = core.SeasonalAnalysis(t3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sc2.SecondHalfTTRRatio, "t2_second_half_ratio")
	b.ReportMetric(sc3.SecondHalfTTRRatio, "t3_second_half_ratio")
}

// BenchmarkFig12 regenerates the monthly failure counts. Paper: monthly
// density varies, and density does not predict recovery time.
func BenchmarkFig12(b *testing.B) {
	t2, _ := benchLogs(b)
	b.ResetTimer()
	var buckets []core.MonthBucket
	var sc core.SeasonalCorrelation
	for i := 0; i < b.N; i++ {
		var err error
		if buckets, err = core.MonthlySeasonality(t2); err != nil {
			b.Fatal(err)
		}
		if sc, err = core.SeasonalAnalysis(t2); err != nil {
			b.Fatal(err)
		}
	}
	if len(buckets) != 12 {
		b.Fatal("expected 12 months")
	}
	b.ReportMetric(sc.ChiSquareP, "uniformity_p")
	b.ReportMetric(sc.Spearman, "density_ttr_spearman")
}

// BenchmarkPerfErrorProportionality regenerates the paper's proposed
// metric: useful work per failure-free period grew faster than MTBF.
func BenchmarkPerfErrorProportionality(b *testing.B) {
	t2, t3 := benchLogs(b)
	b.ResetTimer()
	var cmp *core.Comparison
	for i := 0; i < b.N; i++ {
		var err error
		if cmp, err = core.Compare(t2, t3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.MTBFImprovement, "mtbf_improvement_x")
	b.ReportMetric(cmp.PEPRatio, "pep_gain_x")
}

// --- Ablations (DESIGN.md A1-A5) ---

// BenchmarkAblationLoadBalance compares GPU-slot placement policies under
// Figure 5's non-uniform slot failure rates (RQ2 implication).
func BenchmarkAblationLoadBalance(b *testing.B) {
	// Moderate load (~0.8 of one slot) so the policies actually choose
	// different slots: packed concentrates on failure-prone slot 0 while
	// reliability-aware placement prefers the inner slots.
	cfg := sched.LoadBalanceConfig{
		SlotWeights:            []float64{1.5, 0.75, 0.75, 1.5},
		BaseRatePerHour:        0.002,
		UtilizationSensitivity: 0.8,
		JobHours:               24,
		ArrivalEveryHours:      30,
		HorizonHours:           200000,
		Seed:                   benchSeed,
	}
	var results []*sched.LoadBalanceResult
	for i := 0; i < b.N; i++ {
		var err error
		if results, err = sched.CompareLoadBalance(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(results[0].InterruptionRate, "packed_interrupt_rate")
	b.ReportMetric(results[1].InterruptionRate, "balanced_interrupt_rate")
	b.ReportMetric(results[2].InterruptionRate, "aware_interrupt_rate")
}

// BenchmarkAblationSpares compares spare-provisioning policies on fitted
// Tsubame-2 processes (RQ5 implication).
func BenchmarkAblationSpares(b *testing.B) {
	t2, _ := benchLogs(b)
	procs, err := sim.ProcessesFromLog(t2, 10)
	if err != nil {
		b.Fatal(err)
	}
	run := func(parts sim.PartsPolicy) *sim.Result {
		res, err := sim.Run(sim.Config{
			Nodes: 1408, GPUsPerNode: 3, HorizonHours: 8760, Processes: procs,
			Crews: 8, Parts: parts, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.ResetTimer()
	var fixed, predictive *sim.Result
	for i := 0; i < b.N; i++ {
		fixedParts, err := spares.NewFixedStock(1, 72)
		if err != nil {
			b.Fatal(err)
		}
		rate, err := predict.NewEWMARate(0.3)
		if err != nil {
			b.Fatal(err)
		}
		predParts, err := spares.NewPredictive(rate, 72, 1.5)
		if err != nil {
			b.Fatal(err)
		}
		fixed = run(fixedParts)
		predictive = run(predParts)
	}
	b.ReportMetric(fixed.MeanRepairWait, "fixed_wait_h")
	b.ReportMetric(predictive.MeanRepairWait, "predictive_wait_h")
}

// BenchmarkAblationPrediction back-tests the temporal-locality predictor
// against the clustered multi-GPU failures (RQ5 implication: prediction-
// initiated proactive recovery).
func BenchmarkAblationPrediction(b *testing.B) {
	t2, _ := benchLogs(b)
	b.ResetTimer()
	var recall, lift float64
	for i := 0; i < b.N; i++ {
		ev, err := predict.EvaluateLocality(t2, 72)
		if err != nil {
			b.Fatal(err)
		}
		recall, lift = ev.Recall(), ev.Lift()
	}
	b.ReportMetric(100*recall, "recall_pct")
	b.ReportMetric(lift, "lift_x")
}

// BenchmarkAblationCheckpoint sweeps checkpoint intervals in both MTBF
// regimes (cross-generation implication of RQ4).
func BenchmarkAblationCheckpoint(b *testing.B) {
	m2 := sched.CheckpointModel{CheckpointCostHours: 0.1, RestartCostHours: 0.2, MTBFHours: 15.3}
	m3 := sched.CheckpointModel{CheckpointCostHours: 0.1, RestartCostHours: 0.2, MTBFHours: 72.6}
	intervals := []float64{0.5, 1, 1.65, 2, 3.7, 6, 12}
	var best2, best3 float64
	for i := 0; i < b.N; i++ {
		var err error
		if best2, _, err = sched.IntervalSweep(m2, intervals); err != nil {
			b.Fatal(err)
		}
		if best3, _, err = sched.IntervalSweep(m3, intervals); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(best2, "t2_best_interval_h")
	b.ReportMetric(best3, "t3_best_interval_h")
}

// BenchmarkAblationClustering measures how temporal clustering of
// failures (Figure 8) changes checkpointed goodput versus a memoryless
// process with the same MTBF: the clustered stream is a hyperexponential
// burst/calm mixture (30% of gaps average 5 h, the rest stretch so the
// mean stays 72.6 h), giving the bursty inter-arrival pattern the
// multi-GPU analysis observed.
func BenchmarkAblationClustering(b *testing.B) {
	m := sched.CheckpointModel{CheckpointCostHours: 0.1, RestartCostHours: 0.2, MTBFHours: 72.6}
	tau := m.OptimalInterval()
	exp, err := dist.NewExponential(m.MTBFHours)
	if err != nil {
		b.Fatal(err)
	}
	clustered, err := burstyDist(m.MTBFHours, 0.3, 5)
	if err != nil {
		b.Fatal(err)
	}
	var effRenewal, effClustered float64
	for i := 0; i < b.N; i++ {
		if effRenewal, err = sched.SimulatedEfficiency(m, tau, exp, 200000, benchSeed); err != nil {
			b.Fatal(err)
		}
		if effClustered, err = sched.SimulatedEfficiency(m, tau, clustered, 200000, benchSeed); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(effRenewal, "renewal_efficiency")
	b.ReportMetric(effClustered, "clustered_efficiency")
}

// burstyDist returns a hyperexponential burst/calm inter-arrival mixture
// with the given overall mean: a burstFraction share of gaps averages
// burstMeanHours, the remainder stretches so the total mean holds. It
// models the temporal clustering of failures observed in Figure 8.
func burstyDist(meanHours, burstFraction, burstMeanHours float64) (dist.Distribution, error) {
	if burstFraction <= 0 || burstFraction >= 1 {
		return nil, fmt.Errorf("burst fraction %v outside (0, 1)", burstFraction)
	}
	if !(burstMeanHours > 0) || !(meanHours > burstMeanHours*burstFraction) {
		return nil, fmt.Errorf("burst mean %v incompatible with overall mean %v", burstMeanHours, meanHours)
	}
	calmMean := (meanHours - burstFraction*burstMeanHours) / (1 - burstFraction)
	burst, err := dist.NewExponential(burstMeanHours)
	if err != nil {
		return nil, err
	}
	calm, err := dist.NewExponential(calmMean)
	if err != nil {
		return nil, err
	}
	return dist.NewMixture([]dist.Distribution{burst, calm}, []float64{burstFraction, 1 - burstFraction})
}

func TestBurstyDist(t *testing.T) {
	d, err := burstyDist(72.6, 0.3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if m := d.Mean(); m < 72.5 || m > 72.7 {
		t.Errorf("bursty mean = %v, want 72.6", m)
	}
	// Hyperexponential: variance strictly above the exponential's.
	if d.Var() <= 72.6*72.6 {
		t.Errorf("bursty variance = %v, want above exponential %v", d.Var(), 72.6*72.6)
	}
	for _, bad := range []struct{ mean, frac, burst float64 }{
		{72, 0, 5}, {72, 1, 5}, {72, 0.5, 0}, {5, 0.9, 10},
	} {
		if _, err := burstyDist(bad.mean, bad.frac, bad.burst); err == nil {
			t.Errorf("burstyDist(%v) should fail", bad)
		}
	}
}

// BenchmarkGenerate measures raw synthetic-log generation throughput.
func BenchmarkGenerate(b *testing.B) {
	p := synth.Tsubame2Profile()
	for i := 0; i < b.N; i++ {
		if _, err := synth.Generate(p, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullStudy measures the full RQ1-RQ5 battery on one log.
func BenchmarkFullStudy(b *testing.B) {
	t2, _ := benchLogs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewStudy(t2); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Parallel analysis engine (internal/parallel substrate) ---
//
// Each BenchmarkParallel* below has a sequential counterpart; on a
// GOMAXPROCS >= 4 runner the parallel variant is expected to run >= 1.5x
// faster. Every variant reports its pool width so CI artifacts record
// the hardware the numbers came from.

// benchSeeds is the multi-seed/multi-trial work list of the fan-out
// benchmarks: enough independent units to saturate a typical CI runner.
var benchSeeds = []int64{42, 43, 44, 45, 46, 47, 48, 49}

// BenchmarkFullStudySequential is BenchmarkFullStudy under its explicit
// sequential name: the baseline of BenchmarkParallelFullStudy.
func BenchmarkFullStudySequential(b *testing.B) {
	t2, _ := benchLogs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(t2, core.Options{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "pool_width")
}

// BenchmarkParallelFullStudy fans the RQ1-RQ5 battery's independent
// analyses out across every core.
func BenchmarkParallelFullStudy(b *testing.B) {
	t2, _ := benchLogs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(t2, core.Options{Parallelism: 0}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "pool_width")
}

// BenchmarkGenerateSeedsSequential generates the multi-seed batch on one
// worker: the baseline of BenchmarkParallelGenerateSeeds.
func BenchmarkGenerateSeedsSequential(b *testing.B) {
	p := synth.Tsubame2Profile()
	for i := 0; i < b.N; i++ {
		if err := synth.GenerateEach(context.Background(), p, benchSeeds, 1, discardLog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "pool_width")
}

// BenchmarkParallelGenerateSeeds generates the multi-seed batch across
// every core; generation is embarrassingly parallel, so this is the
// cleanest >= 1.5x demonstration on a multi-core runner.
func BenchmarkParallelGenerateSeeds(b *testing.B) {
	p := synth.Tsubame2Profile()
	for i := 0; i < b.N; i++ {
		if err := synth.GenerateEach(context.Background(), p, benchSeeds, 0, discardLog); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "pool_width")
}

// benchTrialConfig builds the multi-trial simulation workload shared by
// the sequential and parallel trial benchmarks.
func benchTrialConfig(b *testing.B) sim.Config {
	b.Helper()
	t2, _ := benchLogs(b)
	procs, err := sim.ProcessesFromLog(t2, 10)
	if err != nil {
		b.Fatal(err)
	}
	return sim.Config{
		Nodes: 1408, GPUsPerNode: 3, HorizonHours: 4380,
		Processes: procs, Crews: 8,
	}
}

// BenchmarkSimTrialsSequential replays the trial batch on one worker:
// the baseline of BenchmarkParallelSimTrials.
func BenchmarkSimTrialsSequential(b *testing.B) {
	cfg := benchTrialConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunTrials(context.Background(), cfg, benchSeeds, 1, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "pool_width")
}

// BenchmarkParallelSimTrials replays the independent trials across every
// core.
func BenchmarkParallelSimTrials(b *testing.B) {
	cfg := benchTrialConfig(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunTrials(context.Background(), cfg, benchSeeds, 0, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "pool_width")
}

func maxOf(rows []core.CategoryDurations, cat failures.Category) float64 {
	for _, r := range rows {
		if r.Category == cat {
			return r.Summary.Max
		}
	}
	return 0
}

// --- Extensions beyond the paper's figures ---

// BenchmarkExtRackConcentration measures the rack-level failure
// concentration extension (related-work observation of rack
// non-uniformity).
func BenchmarkExtRackConcentration(b *testing.B) {
	t2, _ := benchLogs(b)
	b.ResetTimer()
	var res *core.SpatialResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = core.SpatialAnalysis(t2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.RackGini, "rack_gini")
	b.ReportMetric(100*res.Top10PctRackShare, "top10pct_rack_share_pct")
}

// BenchmarkExtSurvival measures the per-card Kaplan-Meier extension (the
// card-lifetime view of the paper's reference [11]).
func BenchmarkExtSurvival(b *testing.B) {
	t2, t3 := benchLogs(b)
	b.ResetTimer()
	var s2, s3 *core.GPUSurvivalResult
	for i := 0; i < b.N; i++ {
		var err error
		if s2, err = core.GPUSurvival(t2); err != nil {
			b.Fatal(err)
		}
		if s3, err = core.GPUSurvival(t3); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*s2.SurvivalAtOneYear, "t2_year_survival_pct")
	b.ReportMetric(100*s3.SurvivalAtOneYear, "t3_year_survival_pct")
}

// BenchmarkExtRollingMTBF measures the rolling reliability series at the
// report's 45-day step and at a fine 7-day step. Each window is two
// binary searches over the chronological log, so the cost follows the
// window count, not the record count.
func BenchmarkExtRollingMTBF(b *testing.B) {
	t2, _ := benchLogs(b)
	for _, step := range []int{45, 7} {
		b.Run(fmt.Sprintf("step=%dd", step), func(b *testing.B) {
			var trend float64
			for i := 0; i < b.N; i++ {
				series, err := core.RollingMTBF(t2, 90, step)
				if err != nil {
					b.Fatal(err)
				}
				if trend, err = core.MTBFTrend(series); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(trend, "late_over_early_mtbf")
		})
	}
}

// BenchmarkAblationColocation measures how Table III's involvement
// distributions change the blast radius of co-locating single-GPU jobs on
// one node (RQ3 implication: scheduler design for co-location).
func BenchmarkAblationColocation(b *testing.B) {
	t2cfg := sched.ColocationConfig{
		GPUsPerNode:    3,
		InvolvementPMF: []float64{0.3044, 0.3478, 0.3478},
		JobsPerNode:    3,
		Trials:         100000,
		Seed:           benchSeed,
	}
	t3cfg := sched.ColocationConfig{
		GPUsPerNode:    4,
		InvolvementPMF: []float64{0.926, 0.0495, 0.0245, 0},
		JobsPerNode:    4,
		Trials:         100000,
		Seed:           benchSeed,
	}
	var r2, r3 *sched.ColocationResult
	for i := 0; i < b.N; i++ {
		var err error
		if r2, err = sched.SimulateColocation(t2cfg); err != nil {
			b.Fatal(err)
		}
		if r3, err = sched.SimulateColocation(t3cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r2.ColocatedKillsPerFailure, "t2_jobs_killed_per_failure")
	b.ReportMetric(r3.ColocatedKillsPerFailure, "t3_jobs_killed_per_failure")
}

// BenchmarkAblationProactiveRecovery measures prediction-initiated repair
// discounts on bursty fitted Tsubame-2 processes (RQ5: "initiate recovery
// proactively").
func BenchmarkAblationProactiveRecovery(b *testing.B) {
	t2, _ := benchLogs(b)
	procs, err := sim.ProcessesFromLog(t2, 10)
	if err != nil {
		b.Fatal(err)
	}
	base := sim.Config{Nodes: 1408, GPUsPerNode: 3, HorizonHours: 8760, Processes: procs, Seed: 1}
	proactive := base
	proactive.Proactive = &sim.ProactiveRecovery{WindowHours: 24, Factor: 0.5}
	var plain, alarmed *sim.Result
	for i := 0; i < b.N; i++ {
		if plain, err = sim.Run(base); err != nil {
			b.Fatal(err)
		}
		if alarmed, err = sim.Run(proactive); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(plain.NodeHoursLost, "plain_node_hours_lost")
	b.ReportMetric(alarmed.NodeHoursLost, "proactive_node_hours_lost")
	b.ReportMetric(float64(alarmed.DiscountedRepairs), "discounted_repairs")
}

// BenchmarkAblationCostCurve sweeps spare-stock levels against downtime
// and holding prices (RQ5: "maintaining balance is the key").
func BenchmarkAblationCostCurve(b *testing.B) {
	t2, _ := benchLogs(b)
	procs, err := sim.ProcessesFromLog(t2, 10)
	if err != nil {
		b.Fatal(err)
	}
	cfg := cost.SweepConfig{
		Nodes:         1408,
		GPUsPerNode:   3,
		Processes:     procs,
		HorizonHours:  8760,
		Seed:          1,
		LeadTimeHours: 120,
		Stocks:        []int{0, 1, 2, 4, 8, 16, 32},
		Prices:        cost.Prices{DowntimePerNodeHour: 100, HoldingPerPartYear: 5000},
	}
	var points []cost.Point
	var optimal int
	for i := 0; i < b.N; i++ {
		if points, optimal, err = cost.Sweep(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(points[optimal].Stock), "optimal_stock")
	b.ReportMetric(points[optimal].Total, "optimal_total_cost")
	b.ReportMetric(points[0].Total, "zero_stock_total_cost")
}

// --- Observability layer (internal/obs) ---

// BenchmarkFullStudyObserved runs the full RQ1-RQ5 battery with metric
// collection enabled and reports every named phase span as a benchmark
// metric (mean seconds per iteration, metric name = span name with "/"
// flattened to "_"). This is the per-phase timing breakdown the run
// manifests record, surfaced through the benchmark pipeline.
func BenchmarkFullStudyObserved(b *testing.B) {
	t2, _ := benchLogs(b)
	was := obs.Enable(true)
	defer obs.Enable(was)
	obs.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(t2, core.Options{Parallelism: 0}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, s := range obs.Take().Spans {
		metric := strings.ReplaceAll(s.Name, "/", "_") + "_s"
		b.ReportMetric(s.WallSeconds/float64(b.N), metric)
	}
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "pool_width")
}

// BenchmarkObsSpanDisabled and BenchmarkObsSpanEnabled are the paired
// overhead benchmarks for one instrumented call site. Disabled is the
// production default: a span must cost a single atomic load (~1 ns), so
// instrumenting every analysis phase adds well under 2% to any phase
// that does real work.
func BenchmarkObsSpanDisabled(b *testing.B) {
	was := obs.Enable(false)
	defer obs.Enable(was)
	for i := 0; i < b.N; i++ {
		obs.StartSpan("bench/span").End()
	}
}

func BenchmarkObsSpanEnabled(b *testing.B) {
	was := obs.Enable(true)
	defer func() {
		obs.Enable(was)
		obs.Reset()
	}()
	for i := 0; i < b.N; i++ {
		obs.StartSpan("bench/span").End()
	}
}

// BenchmarkObsCounterDisabled/Enabled: same pairing for counters, the
// other hot-path primitive.
func BenchmarkObsCounterDisabled(b *testing.B) {
	was := obs.Enable(false)
	defer obs.Enable(was)
	for i := 0; i < b.N; i++ {
		obs.Add("bench/counter", 1)
	}
}

func BenchmarkObsCounterEnabled(b *testing.B) {
	was := obs.Enable(true)
	defer func() {
		obs.Enable(was)
		obs.Reset()
	}()
	for i := 0; i < b.N; i++ {
		obs.Add("bench/counter", 1)
	}
}

// BenchmarkFullStudyInstrumentedDisabled pairs with
// BenchmarkFullStudySequential at the whole-study level: identical work,
// collection explicitly off, so any gap between the two is the total
// disabled-mode cost of every span and counter in the analysis path. The
// acceptance bar is <2%.
func BenchmarkFullStudyInstrumentedDisabled(b *testing.B) {
	t2, _ := benchLogs(b)
	was := obs.Enable(false)
	defer obs.Enable(was)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(t2, core.Options{Parallelism: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(1, "pool_width")
}

// TestObsDisabledOverhead is the executable form of the <2% criterion on
// the hot primitive itself: with collection disabled, one million
// span+counter pairs must complete in far less time than even a 1%
// slice of the cheapest analysis phase. The generous wall bound (50 ms
// for 2M atomic loads, ~25 ns each) keeps the check meaningful without
// being flaky on loaded CI runners.
func TestObsDisabledOverhead(t *testing.T) {
	if raceEnabled {
		t.Skip("race-instrumented atomics invalidate the wall-clock bound")
	}
	was := obs.Enable(false)
	defer obs.Enable(was)
	start := time.Now()
	for i := 0; i < 1_000_000; i++ {
		obs.StartSpan("overhead/span").End()
		obs.Add("overhead/counter", 1)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("2M disabled-mode obs calls took %v, want < 50ms", elapsed)
	}
	if _, ok := obs.Take().SpanByName("overhead/span"); ok {
		t.Error("disabled-mode calls must not record spans")
	}
}
