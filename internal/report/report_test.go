package report

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/stats"
	"repro/internal/synth"
)

func testComparison(t *testing.T) *core.Comparison {
	t.Helper()
	t2, t3, err := synth.GenerateBoth(42)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := core.Compare(t2, t3)
	if err != nil {
		t.Fatal(err)
	}
	return cmp
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Title", "A", "B")
	tbl.Row("x", 1)
	tbl.Row("yy", 2.5)
	tbl.RowStrings("z", "pre")
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "Title" {
		t.Errorf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "A") || !strings.Contains(lines[1], "B") {
		t.Errorf("header line = %q", lines[1])
	}
	if !strings.Contains(lines[2], "--") {
		t.Errorf("separator line = %q", lines[2])
	}
	if !strings.Contains(out, "2.50") {
		t.Errorf("float not formatted: %q", out)
	}
	for _, l := range lines {
		if strings.HasSuffix(l, " ") {
			t.Errorf("line has trailing space: %q", l)
		}
	}
}

func TestTableRaggedRows(t *testing.T) {
	tbl := NewTable("", "A")
	tbl.RowStrings("one", "two", "three")
	out := tbl.String()
	if !strings.Contains(out, "three") {
		t.Errorf("extra cells dropped: %q", out)
	}
}

func TestBarChart(t *testing.T) {
	out := BarChart("T", []string{"GPU", "CPU"}, []float64{44.37, 1.78}, "%")
	if !strings.Contains(out, "GPU") || !strings.Contains(out, "44.37%") {
		t.Errorf("bar chart missing content: %q", out)
	}
	// The largest value gets the full-width bar; small values still get
	// at least one mark.
	gpuLine, cpuLine := "", ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "GPU") {
			gpuLine = l
		}
		if strings.HasPrefix(l, "CPU") {
			cpuLine = l
		}
	}
	if strings.Count(gpuLine, "#") != defaultBarWidth {
		t.Errorf("max bar = %d marks, want %d", strings.Count(gpuLine, "#"), defaultBarWidth)
	}
	if strings.Count(cpuLine, "#") < 1 {
		t.Errorf("nonzero value has no bar: %q", cpuLine)
	}
	if !strings.Contains(BarChart("T", nil, nil, ""), "no data") {
		t.Error("empty chart should say so")
	}
	if !strings.Contains(BarChart("T", []string{"a"}, []float64{1, 2}, ""), "no data") {
		t.Error("mismatched labels/values should degrade gracefully")
	}
}

func TestCDFPlot(t *testing.T) {
	cdf, err := stats.NewECDFSorted([]float64{1, 2, 3, 4, 5, 10, 50})
	if err != nil {
		t.Fatal(err)
	}
	out := CDFPlot("CDF", cdf, 40, 8)
	if !strings.Contains(out, "CDF") || !strings.Contains(out, "*") {
		t.Errorf("plot missing content:\n%s", out)
	}
	if !strings.Contains(out, "hours") {
		t.Error("plot missing axis label")
	}
	if !strings.Contains(CDFPlot("x", nil, 40, 8), "no data") {
		t.Error("nil CDF should degrade gracefully")
	}
	if !strings.Contains(CDFPlot("x", cdf, 2, 2), "no data") {
		t.Error("tiny canvas should degrade gracefully")
	}
}

func TestBoxPlot(t *testing.T) {
	s1, err := stats.SummarizeSorted([]float64{1, 2, 3, 4, 100})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := stats.SummarizeSorted([]float64{50, 60, 70})
	if err != nil {
		t.Fatal(err)
	}
	out := BoxPlot("Boxes", []string{"a", "b"}, []stats.Summary{s1, s2}, 40)
	if !strings.Contains(out, "=") || !strings.Contains(out, "|") {
		t.Errorf("boxplot missing box glyphs:\n%s", out)
	}
	if !strings.Contains(out, "scale:") {
		t.Error("boxplot missing scale line")
	}
	if !strings.Contains(BoxPlot("x", nil, nil, 40), "no data") {
		t.Error("empty boxplot should degrade gracefully")
	}
}

func TestPaperArtifacts(t *testing.T) {
	cmp := testComparison(t)
	artifacts := map[string]string{
		"TableI":   TableI(),
		"TableII":  TableII(),
		"TableIII": TableIII(cmp.Old, cmp.New),
		"Fig2":     Fig2(cmp.Old),
		"Fig3":     Fig3(cmp.New),
		"Fig4":     Fig4(cmp.Old),
		"Fig5":     Fig5(cmp.New),
		"Fig6":     Fig6(cmp.Old, cmp.New),
		"Fig7":     Fig7(cmp.Old),
		"Fig8":     Fig8(cmp.Old),
		"Fig9":     Fig9(cmp.Old, cmp.New),
		"Fig10":    Fig10(cmp.New),
		"Fig11":    Fig11(cmp.Old),
		"Fig12":    Fig12(cmp.New),
		"PEP":      PEPTable(cmp),
		"Summary":  Summary(cmp),
	}
	for name, out := range artifacts {
		if len(out) < 20 {
			t.Errorf("%s suspiciously short: %q", name, out)
		}
	}
	// Spot-check paper-exact content.
	if !strings.Contains(artifacts["TableI"], "NVIDIA Tesla K20X") {
		t.Error("Table I missing the K20X row")
	}
	if !strings.Contains(artifacts["TableIII"], "N/A") {
		t.Error("Table III missing the Tsubame-2 N/A cell for 4 GPUs")
	}
	if !strings.Contains(artifacts["Fig3"], "GPUDriverProblem") {
		t.Error("Figure 3 missing the dominant root locus")
	}
}

func TestFig3WithoutCauses(t *testing.T) {
	cmp := testComparison(t)
	out := Fig3(cmp.Old) // Tsubame-2 records no root loci
	if !strings.Contains(out, "no software root loci") {
		t.Errorf("Fig3 on Tsubame-2 = %q", out)
	}
}

func TestFullReportContainsEverything(t *testing.T) {
	cmp := testComparison(t)
	out := FullReport(cmp)
	for _, want := range []string{
		"Table I.", "Table II.", "Table III.", "Figure 2.", "Figure 3.",
		"Figure 4.", "Figure 5.", "Figure 6.", "Figure 7.", "Figure 8.",
		"Figure 9.", "Figure 10.", "Figure 11.", "Figure 12.",
		"Performance-error-proportionality", "Cross-generation summary",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("full report missing %q", want)
		}
	}
	// Both systems appear in the per-system figures.
	if strings.Count(out, "Figure 2.") != 2 {
		t.Error("Figure 2 should render once per system")
	}
}

func TestTableMarkdown(t *testing.T) {
	tbl := NewTable("Title", "A", "B")
	tbl.RowStrings("x", "1")
	tbl.RowStrings("with|pipe", "2")
	md := tbl.Markdown()
	if !strings.Contains(md, "### Title") {
		t.Errorf("markdown missing title: %q", md)
	}
	if !strings.Contains(md, "| A | B |") {
		t.Errorf("markdown missing header row: %q", md)
	}
	if !strings.Contains(md, "| --- | --- |") {
		t.Errorf("markdown missing separator: %q", md)
	}
	if !strings.Contains(md, "with\\|pipe") {
		t.Errorf("pipe not escaped: %q", md)
	}
}

func TestMarkdownReport(t *testing.T) {
	cmp := testComparison(t)
	md := MarkdownReport(cmp)
	for _, want := range []string{
		"# Failure and repair study",
		"Cross-generation summary",
		"failure categories (Figure 2)",
		"software root loci (Figure 3)",
		"GPUs involved per failure (Table III)",
		"Figures 6 and 9",
		"44.37%", // the Tsubame-2 GPU share
	} {
		if !strings.Contains(md, want) {
			t.Errorf("markdown report missing %q", want)
		}
	}
	// Both systems' breakdowns appear.
	if strings.Count(md, "failure categories (Figure 2)") != 2 {
		t.Error("expected one breakdown per system")
	}
}

func TestExtensionRenderers(t *testing.T) {
	cmp := testComparison(t)
	spatial := SpatialTable(cmp.Old)
	if !strings.Contains(spatial, "rack Gini") || !strings.Contains(spatial, "top-10% racks carry") {
		t.Errorf("spatial table incomplete:\n%s", spatial)
	}
	survival := SurvivalTable(cmp.Old, cmp.New)
	if !strings.Contains(survival, "one-year card survival") {
		t.Errorf("survival table incomplete:\n%s", survival)
	}
	// Tsubame-3's curve never reaches 50%: the censored marker appears.
	if !strings.Contains(survival, "not reached (censored)") {
		t.Errorf("survival table missing the censored median marker:\n%s", survival)
	}
	series, err := core.RollingMTBF(mustLog(t), 90, 45)
	if err != nil {
		t.Fatal(err)
	}
	rolling := RollingChart("Rolling.", series)
	if !strings.Contains(rolling, "Rolling.") || !strings.Contains(rolling, "trend") {
		t.Errorf("rolling chart incomplete:\n%s", rolling)
	}
	if !strings.Contains(RollingChart("t", nil), "no data") {
		t.Error("empty rolling chart should degrade gracefully")
	}
	// A study without spatial data renders a placeholder.
	empty := &core.Study{System: cmp.Old.System}
	if !strings.Contains(SpatialTable(empty), "no node-attributable failures") {
		t.Error("nil spatial should render a placeholder")
	}
	if !strings.Contains(SurvivalTable(empty, empty), "n/a") {
		t.Error("nil survival should render n/a cells")
	}
}

func mustLog(t *testing.T) *failures.Log {
	t.Helper()
	log, err := synth.Generate(synth.Tsubame2Profile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestDriftTable(t *testing.T) {
	cmp := testComparison(t)
	out := DriftTable(cmp)
	if !strings.Contains(out, "Category drift") || !strings.Contains(out, "Software") {
		t.Errorf("drift table incomplete:\n%s", out)
	}
	// New-only categories show a dash on the old side.
	if !strings.Contains(out, "-") {
		t.Error("drift table missing taxonomy-difference dashes")
	}
}
