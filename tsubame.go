// Package tsubame is the public API of the reproduction of "Examining
// Failures and Repairs on Supercomputers with Multi-GPU Compute Nodes"
// (DSN 2021). It re-exports the stable surface of the internal packages:
//
//   - failure-log domain model and serialization (CSV / NDJSON)
//   - calibrated synthetic log generation for Tsubame-2 and Tsubame-3
//     (the real logs are closed data; see DESIGN.md for the calibration)
//   - the RQ1-RQ5 analysis engine and cross-generation comparison
//   - text renderers that regenerate every table and figure of the paper
//   - the failure/repair discrete-event simulator with spare-provisioning,
//     checkpointing, and prediction policies for the paper's
//     operational-implications experiments
//
// Quickstart:
//
//	t2, t3, err := tsubame.GenerateBoth(42)
//	cmp, err := tsubame.Compare(t2, t3)
//	fmt.Print(tsubame.RenderFullReport(cmp))
package tsubame

import (
	"context"
	"fmt"
	"io"

	"repro/internal/conform"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/predict"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spares"
	"repro/internal/synth"
	"repro/internal/system"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Domain types.
type (
	// System identifies a supercomputer generation.
	System = failures.System
	// Failure is one failure-log record.
	Failure = failures.Failure
	// Category is a failure category from Table II.
	Category = failures.Category
	// SoftwareCause is a software root locus from Figure 3.
	SoftwareCause = failures.SoftwareCause
	// Log is a validated, time-sorted failure log.
	Log = failures.Log
	// Machine is a machine model from Table I.
	Machine = system.Machine
	// Study bundles every analysis of one log.
	Study = core.Study
	// Comparison contrasts two generations.
	Comparison = core.Comparison
	// Profile calibrates the synthetic generator.
	Profile = synth.Profile
	// SimConfig parameterizes a failure/repair simulation.
	SimConfig = sim.Config
	// SimResult summarizes a simulation run.
	SimResult = sim.Result
	// FailureProcess is one simulated failure stream.
	FailureProcess = sim.FailureProcess
	// PartsPolicy abstracts spare-part provisioning for the simulator.
	PartsPolicy = sim.PartsPolicy
	// SimTrialStats aggregates a multi-trial simulation run.
	SimTrialStats = sim.TrialStats
	// AnalysisOptions configures an analysis run; Parallelism bounds the
	// analysis worker pool (0 = all cores, 1 = sequential) without
	// affecting results.
	AnalysisOptions = core.Options
	// CheckpointModel parameterizes checkpoint/restart tuning.
	CheckpointModel = sched.CheckpointModel
	// Distribution is a univariate duration distribution (hours).
	Distribution = dist.Distribution
	// WindowMTBF is one point of a rolling reliability series.
	WindowMTBF = core.WindowMTBF
	// SpatialResult quantifies rack/node failure concentration.
	SpatialResult = core.SpatialResult
	// GPUSurvivalResult is the per-card Kaplan-Meier analysis.
	GPUSurvivalResult = core.GPUSurvivalResult
	// ProactiveRecovery parameterizes prediction-initiated repair
	// discounts in the simulator.
	ProactiveRecovery = sim.ProactiveRecovery
	// WorkloadTrace is a synthetic application usage mix.
	WorkloadTrace = workload.Trace
	// WorkloadAttribution tests whether failures follow usage
	// proportionally.
	WorkloadAttribution = workload.Attribution
	// CostPrices and CostPoint parameterize/report the spare-stock cost
	// sweep.
	CostPrices = cost.Prices
	CostPoint  = cost.Point
	// ConformanceReport is the result of a statistical conformance
	// evaluation of a generator profile against the paper's published
	// numbers (see docs/VALIDATION.md).
	ConformanceReport = conform.Report
	// ConformanceOptions tunes the conformance seed set and significance
	// levels; the zero value is the canonical CI configuration.
	ConformanceOptions = conform.Options
)

// The two studied systems.
const (
	Tsubame2 = failures.Tsubame2
	Tsubame3 = failures.Tsubame3
)

// GenerateLog produces the calibrated synthetic failure log of one system.
func GenerateLog(sys System, seed int64) (*Log, error) {
	p, err := synth.ProfileFor(sys)
	if err != nil {
		return nil, err
	}
	return synth.Generate(p, seed)
}

// GenerateBoth produces both generations' logs with one seed.
func GenerateBoth(seed int64) (t2, t3 *Log, err error) {
	return synth.GenerateBoth(seed)
}

// GenerateFromProfile produces a log from a custom calibration profile.
func GenerateFromProfile(p *Profile, seed int64) (*Log, error) {
	return synth.Generate(p, seed)
}

// Tsubame2Profile returns a fresh copy of the built-in Tsubame-2
// calibration for customization.
func Tsubame2Profile() *Profile { return synth.Tsubame2Profile() }

// Tsubame3Profile returns a fresh copy of the built-in Tsubame-3
// calibration for customization.
func Tsubame3Profile() *Profile { return synth.Tsubame3Profile() }

// Analyze runs the full RQ1-RQ5 battery on one log.
func Analyze(log *Log) (*Study, error) { return core.NewStudy(log) }

// AnalyzeParallel runs the full battery with the independent analyses
// fanned out across at most parallelism workers (0 = all cores). The
// resulting Study is identical to Analyze's for any parallelism; see
// docs/PARALLELISM.md for the determinism guarantee.
func AnalyzeParallel(log *Log, parallelism int) (*Study, error) {
	return core.Run(log, core.Options{Parallelism: parallelism})
}

// Compare analyzes two logs and contrasts the generations the way the
// paper contrasts Tsubame-2 and Tsubame-3.
func Compare(oldLog, newLog *Log) (*Comparison, error) { return core.Compare(oldLog, newLog) }

// CompareParallel is Compare with both studies and their analyses fanned
// out across at most parallelism workers; the Comparison is identical to
// Compare's for any parallelism.
func CompareParallel(oldLog, newLog *Log, parallelism int) (*Comparison, error) {
	return core.CompareParallel(oldLog, newLog, core.Options{Parallelism: parallelism})
}

// MachineFor returns the Table I machine model of a system.
func MachineFor(sys System) (Machine, error) { return system.ForSystem(sys) }

// RollingMTBF computes the MTBF over sliding windows of windowDays,
// stepping stepDays, exposing reliability drift within one generation.
func RollingMTBF(log *Log, windowDays, stepDays int) ([]WindowMTBF, error) {
	return core.RollingMTBF(log, windowDays, stepDays)
}

// MTBFTrend summarizes a rolling series as late-third over early-third
// mean MTBF (>1 means the system grew more reliable over its life).
func MTBFTrend(series []WindowMTBF) (float64, error) { return core.MTBFTrend(series) }

// GenerateMany produces one log per seed across at most parallelism
// workers; the i-th log is byte-identical to GenerateFromProfile(p,
// seeds[i]).
func GenerateMany(p *Profile, seeds []int64, parallelism int) ([]*Log, error) {
	return synth.GenerateMany(p, seeds, parallelism)
}

// GenerateEach streams GenerateMany: each log is handed to fn (with its
// index into seeds) as soon as it is generated, then released, so peak
// memory is one log per worker instead of one per seed. fn runs
// concurrently from pool workers. Cancelling ctx stops launching new
// seeds and returns the context error; tsubame-gen wires this to SIGINT.
func GenerateEach(ctx context.Context, p *Profile, seeds []int64, parallelism int, fn func(i int, log *Log) error) error {
	return synth.GenerateEach(ctx, p, seeds, parallelism, fn)
}

// Serialization.

// WriteCSV writes a log in the canonical CSV schema.
func WriteCSV(w io.Writer, log *Log) error { return trace.WriteCSV(w, log) }

// ReadCSV parses a log in the canonical CSV schema.
func ReadCSV(r io.Reader) (*Log, error) { return trace.ReadCSV(r) }

// WriteNDJSON writes a log as newline-delimited JSON.
func WriteNDJSON(w io.Writer, log *Log) error { return trace.WriteNDJSON(w, log) }

// ReadNDJSON parses a newline-delimited JSON log.
func ReadNDJSON(r io.Reader) (*Log, error) { return trace.ReadNDJSON(r) }

// Simulation.

// FitProcesses fits per-category failure processes from an analyzed log,
// ready to drive RunSimulation.
func FitProcesses(log *Log, minCount int) ([]FailureProcess, error) {
	return sim.ProcessesFromLog(log, minCount)
}

// RunSimulation executes a failure/repair simulation.
func RunSimulation(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// RunSimulationTrials executes one simulation per seed across at most
// parallelism workers, returning per-trial results in seed order. Each
// trial is byte-identical to a sequential RunSimulation with that seed.
// parts builds a fresh (stateful) policy per trial; nil means spares are
// always available.
func RunSimulationTrials(cfg SimConfig, seeds []int64, parallelism int, parts func() (PartsPolicy, error)) ([]*SimResult, error) {
	return sim.RunTrials(context.Background(), cfg, seeds, parallelism, parts)
}

// RunSimulationTrialsContext is RunSimulationTrials with cancellation:
// when ctx is cancelled no new trials start, in-flight trials finish,
// and the context error is returned. tsubame-sim wires this to SIGINT.
func RunSimulationTrialsContext(ctx context.Context, cfg SimConfig, seeds []int64, parallelism int, parts func() (PartsPolicy, error)) ([]*SimResult, error) {
	return sim.RunTrials(ctx, cfg, seeds, parallelism, parts)
}

// SummarizeSimulationTrials reduces per-trial simulation results to
// across-trial statistics.
func SummarizeSimulationTrials(results []*SimResult) (SimTrialStats, error) {
	return sim.SummarizeTrials(results)
}

// UnlimitedSpares returns the no-delay parts policy.
func UnlimitedSpares() sim.PartsPolicy { return spares.Unlimited{} }

// FixedSpares returns an S-1 base-stock parts policy.
func FixedSpares(initialStock int, leadTimeHours float64) (sim.PartsPolicy, error) {
	return spares.NewFixedStock(initialStock, leadTimeHours)
}

// PredictiveSpares returns a rate-prediction-driven parts policy using an
// EWMA failure-rate estimator.
func PredictiveSpares(alpha, leadTimeHours, safetyFactor float64) (sim.PartsPolicy, error) {
	rate, err := predict.NewEWMARate(alpha)
	if err != nil {
		return nil, err
	}
	return spares.NewPredictive(rate, leadTimeHours, safetyFactor)
}

// EvaluateLocalityPredictor back-tests the Figure 8 temporal-locality
// predictor against a log's multi-GPU failures.
func EvaluateLocalityPredictor(log *Log, windowHours float64) (predict.Evaluation, error) {
	return predict.EvaluateLocality(log, windowHours)
}

// EvaluatePredictionIntervals back-tests rolling distribution-fit
// prediction intervals for the next failure, reporting calibration
// (observed vs nominal coverage) and sharpness.
func EvaluatePredictionIntervals(log *Log, level float64) (predict.IntervalEvaluation, error) {
	return predict.EvaluateIntervals(log, level)
}

// SimulateCheckpointEfficiency measures checkpoint/restart goodput by
// Monte-Carlo simulation against an arbitrary failure distribution (the
// Efficiency method on CheckpointModel gives the analytic exponential-
// failure answer).
func SimulateCheckpointEfficiency(m CheckpointModel, tau float64, failDist Distribution, horizonHours float64, seed int64) (float64, error) {
	return sched.SimulatedEfficiency(m, tau, failDist, horizonHours, seed)
}

// ExponentialDist returns an exponential duration distribution with the
// given mean (hours).
func ExponentialDist(meanHours float64) (Distribution, error) {
	return dist.NewExponential(meanHours)
}

// WeibullDistFromMean returns a Weibull duration distribution with the
// given shape and mean (hours); shape < 1 gives the heavy-tailed regime
// observed on Tsubame-3.
func WeibullDistFromMean(shape, meanHours float64) (Distribution, error) {
	return dist.WeibullFromMean(shape, meanHours)
}

// GenerateWorkloadTrace synthesizes an application usage mix with a
// Zipf-like skew over the given capacity (node-hours).
func GenerateWorkloadTrace(apps int, totalNodeHours, skew float64, seed int64) (*WorkloadTrace, error) {
	return workload.GenerateTrace(apps, totalNodeHours, skew, seed)
}

// WorkloadCapacity derives a trace capacity from a log's window: fleet
// nodes times span times utilization.
func WorkloadCapacity(log *Log, nodes int, utilization float64) (float64, error) {
	return workload.WindowFor(log, nodes, utilization)
}

// AttributeFailures attributes a log's node-attributable failures to a
// usage trace and tests the paper's proportionality scope note.
// multipliers simulates failure-prone applications (nil for the null
// model).
func AttributeFailures(log *Log, trace *WorkloadTrace, multipliers map[string]float64, seed int64) (*WorkloadAttribution, error) {
	return workload.Attribute(log, trace, multipliers, seed)
}

// CostSweep evaluates spare-stock levels against downtime and holding
// prices, returning the evaluated points and the index of the cheapest.
func CostSweep(cfg cost.SweepConfig) ([]CostPoint, int, error) { return cost.Sweep(cfg) }

// BurstyDist returns a hyperexponential burst/calm inter-arrival mixture
// with the given overall mean: a burstFraction share of gaps averages
// burstMeanHours, the remainder stretches so the total mean holds. It
// models the temporal clustering of failures observed in Figure 8.
func BurstyDist(meanHours, burstFraction, burstMeanHours float64) (Distribution, error) {
	if burstFraction <= 0 || burstFraction >= 1 {
		return nil, fmt.Errorf("tsubame: burst fraction %v outside (0, 1)", burstFraction)
	}
	if !(burstMeanHours > 0) || !(meanHours > burstMeanHours*burstFraction) {
		return nil, fmt.Errorf("tsubame: burst mean %v incompatible with overall mean %v", burstMeanHours, meanHours)
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

// ProfileForSystem returns a fresh copy of a system's built-in
// calibration profile.
func ProfileForSystem(sys System) (*Profile, error) { return synth.ProfileFor(sys) }

// WriteProfile serializes a calibration profile as JSON for editing.
func WriteProfile(w io.Writer, p *Profile) error { return synth.WriteProfile(w, p) }

// ReadProfile parses and validates a JSON calibration profile.
func ReadProfile(r io.Reader) (*Profile, error) { return synth.ReadProfile(r) }

// AnonymizeOptions controls the log-scrubbing transform.
type AnonymizeOptions = failures.AnonymizeOptions

// AnonymizeLog scrubs a log for sharing: keyed node pseudonyms, optional
// cause removal and time coarsening (the transform behind the paper's
// business-sensitivity constraints).
func AnonymizeLog(log *Log, opts AnonymizeOptions) (*Log, error) {
	return failures.Anonymize(log, opts)
}

// PeriodDiff contrasts two periods of one system's history with
// statistical backing.
type PeriodDiff = core.PeriodDiff

// DiffPeriods compares a before and after period of the same system:
// failure-rate ratio, Mann-Whitney TBF/TTR shift tests, category drift.
func DiffPeriods(before, after *Log) (*PeriodDiff, error) {
	return core.DiffPeriods(before, after)
}

// TTRSignificanceByCategory runs a one-vs-rest Mann-Whitney test of each
// category's recovery times against the rest of the log — the statistical
// form of Figure 10's "varies significantly across failure types".
func TTRSignificanceByCategory(log *Log, minCount int) ([]core.TTRSignificance, error) {
	return core.TTRSignificanceByCategory(log, minCount)
}

// EvaluateConformance runs the statistical conformance battery of the
// profile's system against it: every check is anchored to a published
// number of the paper, aggregated over the option's seed set. A passing
// report certifies that traces generated from the profile reproduce the
// paper's statistics (docs/VALIDATION.md documents each check).
func EvaluateConformance(ctx context.Context, p *Profile, opts ConformanceOptions) (*ConformanceReport, error) {
	return conform.Evaluate(ctx, p, opts)
}

// ConformanceSeeds returns the canonical conformance seed set 1..n; the
// CI gate uses n = 32.
func ConformanceSeeds(n int) []int64 { return conform.DefaultSeeds(n) }
