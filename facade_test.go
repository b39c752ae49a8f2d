package tsubame_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/failures"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/spares"
	"repro/internal/synth"
)

// TestFacadeExtensionsEndToEnd drives the extension analyses, renderers
// and simulators on one dataset.
func TestFacadeExtensionsEndToEnd(t *testing.T) {
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := core.Compare(t2, t3)
	if err != nil {
		t.Fatal(err)
	}

	// Rendering surface.
	if !strings.Contains(report.Summary(cmp), "MTBF improvement") {
		t.Error("summary rendering broken")
	}
	if !strings.Contains(report.SpatialTable(cmp.Old), "rack Gini") {
		t.Error("spatial rendering broken")
	}
	if !strings.Contains(report.SurvivalTable(cmp.Old, cmp.New), "card survival") {
		t.Error("survival rendering broken")
	}
	if !strings.Contains(report.DriftTable(cmp), "drift") {
		t.Error("drift rendering broken")
	}
	if !strings.Contains(report.MarkdownReport(cmp), "# Failure and repair study") {
		t.Error("markdown rendering broken")
	}

	// Rolling reliability.
	series, err := core.RollingMTBF(t2, 90, 45)
	if err != nil {
		t.Fatal(err)
	}
	trend, err := core.MTBFTrend(series)
	if err != nil {
		t.Fatal(err)
	}
	if trend < 0.5 || trend > 2 {
		t.Errorf("stationary log trend = %v, want near 1", trend)
	}
	if !strings.Contains(report.RollingChart("R.", series), "R.") {
		t.Error("rolling rendering broken")
	}

	// Prediction intervals.
	ev, err := predict.EvaluateIntervals(t2, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if cov := ev.ObservedCoverage(); cov < 0.7 || cov > 0.9 {
		t.Errorf("interval coverage = %v at nominal 0.8", cov)
	}

	// Cost sweep.
	procs, err := sim.ProcessesFromLog(t2, 10)
	if err != nil {
		t.Fatal(err)
	}
	points, optimal, err := cost.Sweep(cost.SweepConfig{
		Nodes: 1408, GPUsPerNode: 3, Processes: procs, HorizonHours: 2000,
		Seed: 1, LeadTimeHours: 120, Stocks: []int{0, 2},
		Prices: cost.Prices{DowntimePerNodeHour: 100, HoldingPerPartYear: 5000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 || optimal < 0 || optimal > 1 {
		t.Errorf("cost sweep = %v, optimal %d", points, optimal)
	}

	// Unlimited spares policy.
	res, err := sim.Run(sim.Config{
		Nodes: 100, GPUsPerNode: 3, HorizonHours: 1000,
		Processes: procs, Parts: spares.Unlimited{}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanRepairWait != 0 {
		t.Errorf("unlimited spares waited %v", res.MeanRepairWait)
	}
}

// TestFacadeProfilesAndAnonymize drives the profile IO and anonymization
// entry points.
func TestFacadeProfilesAndAnonymize(t *testing.T) {
	p, err := synth.ProfileFor(failures.Tsubame3)
	if err != nil || p.Name != "tsubame3" {
		t.Fatalf("ProfileForSystem = %v, %v", p, err)
	}
	if synth.Tsubame3Profile().TotalFailures() != p.TotalFailures() {
		t.Error("profile getters disagree")
	}
	var buf bytes.Buffer
	if err := synth.WriteProfile(&buf, p); err != nil {
		t.Fatal(err)
	}
	back, err := synth.ReadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.TotalFailures() != p.TotalFailures() {
		t.Error("profile round trip changed totals")
	}

	log, err := synth.Generate(back, 5)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := failures.Anonymize(log, failures.AnonymizeOptions{Key: "k", DropSoftwareCauses: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range anon.Records() {
		if r.SoftwareCause != 0 {
			t.Fatal("software cause survived anonymization")
		}
		if r.Node != "" && r.Node[0] != 'x' {
			t.Fatalf("node %q not pseudonymized", r.Node)
		}
	}
}

// TestFacadePeriodDiff drives the period-diff entry point.
func TestFacadePeriodDiff(t *testing.T) {
	t2, _, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	before, after := t2.SplitFraction(0.5)
	d, err := core.DiffPeriods(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if d.BeforeFailures == 0 || d.AfterFailures == 0 {
		t.Errorf("diff = %+v", d)
	}
	if d.Improved(0.001) {
		t.Error("stationary split should not show improvement at alpha 0.001")
	}
}
