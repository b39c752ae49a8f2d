package tsubame_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/predict"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spares"
	"repro/internal/synth"
	"repro/internal/system"
	"repro/internal/trace"
)

// TestEndToEndReproduction is the integration test of the whole pipeline:
// generate -> serialize -> parse -> analyze -> compare -> render, checking
// the paper's headline claims hold through every layer.
func TestEndToEndReproduction(t *testing.T) {
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip both logs through the CSV schema.
	var buf bytes.Buffer
	if err := trace.WriteCSV(&buf, t2); err != nil {
		t.Fatal(err)
	}
	t2back, err := trace.ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := trace.WriteNDJSON(&buf, t3); err != nil {
		t.Fatal(err)
	}
	t3back, err := trace.ReadNDJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}

	cmp, err := core.Compare(t2back, t3back)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.MTBFImprovement < 4 || cmp.MTBFImprovement > 6 {
		t.Errorf("MTBF improvement = %.2fx, want ~4.7x", cmp.MTBFImprovement)
	}
	if cmp.MTTRRatio < 0.85 || cmp.MTTRRatio > 1.2 {
		t.Errorf("MTTR ratio = %.2f, want ~1", cmp.MTTRRatio)
	}

	rendered := report.FullReport(cmp)
	for _, want := range []string{
		"Table I.", "Table II.", "Table III.",
		"Figure 2.", "Figure 3.", "Figure 4.", "Figure 5.", "Figure 6.",
		"Figure 7.", "Figure 8.", "Figure 9.", "Figure 10.", "Figure 11.",
		"Figure 12.", "Performance-error-proportionality",
		"Cross-generation summary",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("full report missing %q", want)
		}
	}
}

func TestGenerateLogPerSystem(t *testing.T) {
	for _, sys := range []failures.System{failures.Tsubame2, failures.Tsubame3} {
		log, err := synth.GenerateSystem(sys, 1)
		if err != nil {
			t.Fatal(err)
		}
		if log.System() != sys {
			t.Errorf("GenerateSystem(%v) produced %v", sys, log.System())
		}
	}
}

func TestGenerateFromCustomProfile(t *testing.T) {
	p := synth.Tsubame2Profile()
	p.Categories = p.Categories[:5] // smaller custom mix
	log, err := synth.Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	if log.Len() != p.TotalFailures() {
		t.Errorf("custom profile log has %d records, want %d", log.Len(), p.TotalFailures())
	}
	// The built-in profile getters return fresh copies: mutating p must
	// not have touched the canonical calibration.
	if synth.Tsubame2Profile().TotalFailures() != 897 {
		t.Error("profile mutation leaked into the built-in calibration")
	}
}

func TestMachineFor(t *testing.T) {
	m, err := system.ForSystem(failures.Tsubame3)
	if err != nil || m.Nodes != 540 {
		t.Errorf("ForSystem = %+v, %v", m, err)
	}
}

func TestRenderFigureDispatch(t *testing.T) {
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := core.Compare(t2, t3)
	if err != nil {
		t.Fatal(err)
	}
	s := cmp.New
	for n, fig := range map[int]string{
		2: report.Fig2(s), 3: report.Fig3(s), 4: report.Fig4(s), 5: report.Fig5(s),
		6: report.Fig6(cmp.Old, cmp.New), 7: report.Fig7(s), 8: report.Fig8(s),
		9: report.Fig9(cmp.Old, cmp.New), 10: report.Fig10(s), 11: report.Fig11(s),
		12: report.Fig12(s),
	} {
		if fig == "" {
			t.Errorf("Fig%d empty", n)
		}
	}
	if report.TableI() == "" || report.TableII() == "" ||
		report.TableIII(cmp.Old, cmp.New) == "" || report.PEPTable(cmp) == "" {
		t.Error("table renderers returned empty output")
	}
}

func TestSimulationFacade(t *testing.T) {
	log, err := synth.GenerateSystem(failures.Tsubame2, 42)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := sim.ProcessesFromLog(log, 10)
	if err != nil {
		t.Fatal(err)
	}
	rate, err := predict.NewEWMARate(0.3)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := spares.NewPredictive(rate, 72, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(sim.Config{
		Nodes: 1408, GPUsPerNode: 3, HorizonHours: 4000, Processes: procs, Crews: 8,
		Parts: parts, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 || res.Availability <= 0.5 {
		t.Errorf("simulation result = %+v", res)
	}
}

func TestCheckpointFacade(t *testing.T) {
	m := sched.CheckpointModel{CheckpointCostHours: 0.1, RestartCostHours: 0.2, MTBFHours: 15.3}
	d, err := dist.NewExponential(m.MTBFHours)
	if err != nil {
		t.Fatal(err)
	}
	eff, err := sched.SimulatedEfficiency(m, m.OptimalInterval(), d, 50000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if eff < 0.8 || eff > 0.95 {
		t.Errorf("simulated efficiency = %v, want ~0.88", eff)
	}
	if _, err := dist.WeibullFromMean(0.74, 72.6); err != nil {
		t.Errorf("WeibullDistFromMean: %v", err)
	}
}

func TestLocalityPredictorFacade(t *testing.T) {
	log, err := synth.GenerateSystem(failures.Tsubame2, 42)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := predict.EvaluateLocality(log, 72)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Recall() <= 0 || ev.Recall() > 1 {
		t.Errorf("recall = %v", ev.Recall())
	}
}
