package tsubame_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/spares"
	"repro/internal/synth"
)

// TestParallelReportByteIdentical is the end-to-end determinism golden:
// the full rendered report — every table and figure of the paper — built
// from a parallel analysis is byte-identical to the sequential one, on
// both the Tsubame-2 and Tsubame-3 synthetic traces.
func TestParallelReportByteIdentical(t *testing.T) {
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := core.Compare(t2, t3)
	if err != nil {
		t.Fatal(err)
	}
	for _, width := range []int{0, 2, 4, 8} {
		par, err := core.CompareParallel(t2, t3, core.Options{Parallelism: width})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("width %d: comparison structure diverged from sequential", width)
		}
		if a, b := report.FullReport(seq), report.FullReport(par); a != b {
			t.Errorf("width %d: full report not byte-identical (%d vs %d bytes)", width, len(a), len(b))
		}
		if a, b := report.MarkdownReport(seq), report.MarkdownReport(par); a != b {
			t.Errorf("width %d: markdown report not byte-identical", width)
		}
	}
}

// TestIndexedRunMatchesPreIndexGolden is the analysis battery's
// equivalence gate: the committed golden files pin the full rendered
// report for seed 42, so a byte-equal render proves the memoized-index
// battery (internal/index) reproduces the committed sequential output
// exactly — element order, float accumulation order and all. The goldens
// are regenerated (go test ./internal/report/ -run Golden -update)
// whenever the generator's sampling realization intentionally changes.
func TestIndexedRunMatchesPreIndexGolden(t *testing.T) {
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := core.Compare(t2, t3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("internal", "report", "testdata", "full_report_seed42.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if got := report.FullReport(cmp); got != string(want) {
		t.Errorf("indexed full report diverged from the pre-index golden (%d vs %d bytes)", len(got), len(want))
	}
	wantMD, err := os.ReadFile(filepath.Join("internal", "report", "testdata", "markdown_report_seed42.md"))
	if err != nil {
		t.Fatal(err)
	}
	if got := report.MarkdownReport(cmp); got != string(wantMD) {
		t.Errorf("indexed markdown report diverged from the pre-index golden")
	}
}

// TestStandaloneAnalysesMatchSharedIndex checks the public per-analysis
// wrappers (each building a private index over the log) land on exactly
// the Study fields produced by Run's shared index: sharing one view
// across phases must never change a result.
func TestStandaloneAnalysesMatchSharedIndex(t *testing.T) {
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, log := range []*failures.Log{t2, t3} {
		study, err := core.Run(log, core.Options{Parallelism: 0})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := core.CategoryBreakdown(log); err != nil || !reflect.DeepEqual(got, study.Breakdown) {
			t.Errorf("%v: standalone CategoryBreakdown diverges (%v)", log.System(), err)
		}
		if got, err := core.TBFAnalysis(log); err != nil || !reflect.DeepEqual(got, study.TBF) {
			t.Errorf("%v: standalone TBFAnalysis diverges (%v)", log.System(), err)
		}
		if got, err := core.TTRAnalysis(log); err != nil || !reflect.DeepEqual(got, study.TTR) {
			t.Errorf("%v: standalone TTRAnalysis diverges (%v)", log.System(), err)
		}
		if got, err := core.TBFByCategory(log, 5); err != nil || !reflect.DeepEqual(got, study.TBFPerType) {
			t.Errorf("%v: standalone TBFByCategory diverges (%v)", log.System(), err)
		}
		if got, err := core.TTRByCategory(log, 2); err != nil || !reflect.DeepEqual(got, study.TTRPerType) {
			t.Errorf("%v: standalone TTRByCategory diverges (%v)", log.System(), err)
		}
		if got, err := core.MonthlySeasonality(log); err != nil || !reflect.DeepEqual(got, study.Seasonal) {
			t.Errorf("%v: standalone MonthlySeasonality diverges (%v)", log.System(), err)
		}
		if got, err := core.NodeFailureCounts(log); err != nil || !reflect.DeepEqual(got, study.NodeCounts) {
			t.Errorf("%v: standalone NodeFailureCounts diverges (%v)", log.System(), err)
		}
	}
}

// TestAnalyzeParallelMatchesAnalyze pins the single-study entry point on
// both generations.
func TestAnalyzeParallelMatchesAnalyze(t *testing.T) {
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	for _, log := range []*failures.Log{t2, t3} {
		seq, err := core.NewStudy(log)
		if err != nil {
			t.Fatal(err)
		}
		par, err := core.Run(log, core.Options{Parallelism: 6})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) {
			t.Errorf("%v: parallel study diverged from sequential", log.System())
		}
	}
}

// TestGenerateManyMatchesSequential: multi-seed generation through
// synth.GenerateEach must be pure in (profile, seed) regardless of pool
// width, and hand each seed's log over under that seed's index.
func TestGenerateManyMatchesSequential(t *testing.T) {
	p := synth.Tsubame2Profile()
	seeds := []int64{1, 2, 3, 4, 5, 6}
	par := make([]*failures.Log, len(seeds))
	err := synth.GenerateEach(context.Background(), p, seeds, 4, func(i int, log *failures.Log) error {
		par[i] = log
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		seq, err := synth.Generate(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par[i]) {
			t.Errorf("seed %d: parallel generation diverged from sequential", seed)
		}
	}
}

// TestSimulationTrialsMatchSequential: each parallel trial must be
// byte-identical to a lone sequential run with the same seed, including
// under a stateful per-trial parts policy.
func TestSimulationTrialsMatchSequential(t *testing.T) {
	t2, _, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := sim.ProcessesFromLog(t2, 10)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{
		Nodes: 256, GPUsPerNode: 3, HorizonHours: 2000,
		Processes: procs, Crews: 4,
	}
	parts := func() (sim.PartsPolicy, error) { return spares.NewFixedStock(1, 72) }
	seeds := []int64{7, 8, 9, 10}
	par, err := sim.RunTrials(context.Background(), cfg, seeds, 4, parts)
	if err != nil {
		t.Fatal(err)
	}
	for i, seed := range seeds {
		trial := cfg
		trial.Seed = seed
		p, err := parts()
		if err != nil {
			t.Fatal(err)
		}
		trial.Parts = p
		seq, err := sim.Run(trial)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par[i]) {
			t.Errorf("seed %d: parallel trial diverged from sequential", seed)
		}
	}
	st, err := sim.SummarizeTrials(par)
	if err != nil {
		t.Fatal(err)
	}
	if st.Trials != len(seeds) || st.MeanAvailability <= 0 || st.MeanAvailability > 1 {
		t.Errorf("implausible trial stats: %+v", st)
	}
	if st.MinAvailability > st.MeanAvailability || st.MaxAvailability < st.MeanAvailability {
		t.Errorf("availability bounds do not bracket the mean: %+v", st)
	}
}
