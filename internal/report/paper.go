package report

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/failures"
	"repro/internal/stats"
	"repro/internal/system"
)

// TableI renders the node-configuration table (Table I of the paper).
func TableI() string {
	t2, t3 := system.Tsubame2Machine(), system.Tsubame3Machine()
	t := NewTable("Table I. Tsubame-2 and Tsubame-3 node configurations.",
		"", t2.Name, t3.Name)
	t.RowStrings("CPU", t2.Node.CPUModel, t3.Node.CPUModel)
	t.RowStrings("Cores/Threads per CPU",
		fmt.Sprintf("%d cores / %d threads", t2.Node.CoresPerCPU, t2.Node.ThreadsPerCPU),
		fmt.Sprintf("%d cores / %d threads", t3.Node.CoresPerCPU, t3.Node.ThreadsPerCPU))
	t.Row("Num CPUs", t2.Node.NumCPUs, t3.Node.NumCPUs)
	t.RowStrings("Memory per Node", fmt.Sprintf("%dGB", t2.Node.MemoryGB), fmt.Sprintf("%dGB", t3.Node.MemoryGB))
	t.RowStrings("GPU", t2.Node.GPUModel, t3.Node.GPUModel)
	t.Row("Num GPUs", t2.Node.NumGPUs, t3.Node.NumGPUs)
	t.RowStrings("SSD", fmt.Sprintf("%d GB", t2.Node.SSDGB), fmt.Sprintf("%d GB", t3.Node.SSDGB))
	t.RowStrings("Interconnect", t2.Node.Interconnect, t3.Node.Interconnect)
	t.Row("Nodes", t2.Nodes, t3.Nodes)
	t.RowStrings("Rpeak", fmt.Sprintf("%.1f PFlop/s", t2.RpeakPFlops), fmt.Sprintf("%.1f PFlop/s", t3.RpeakPFlops))
	return t.String()
}

// TableII renders the failure-category taxonomies (Table II).
func TableII() string {
	t2 := failures.Categories(failures.Tsubame2)
	t3 := failures.Categories(failures.Tsubame3)
	t := NewTable("Table II. Tsubame-2 and Tsubame-3 failure categories.",
		"Tsubame-2", "Tsubame-3")
	n := len(t2)
	if len(t3) > n {
		n = len(t3)
	}
	for i := 0; i < n; i++ {
		var a, b string
		if i < len(t2) {
			a = t2[i].String()
		}
		if i < len(t3) {
			b = t3[i].String()
		}
		t.RowStrings(a, b)
	}
	return t.String()
}

// Fig2 renders one system's failure-category breakdown (Figure 2).
func Fig2(s *core.Study) string {
	labels := make([]string, len(s.Breakdown))
	values := make([]float64, len(s.Breakdown))
	for i, share := range s.Breakdown {
		labels[i] = share.Category.String()
		values[i] = share.Percent
	}
	title := fmt.Sprintf("Figure 2. %v failure categories (%d failures).", s.System, s.Records)
	return BarChart(title, labels, values, "%")
}

// Fig3 renders the software root-locus breakdown (Figure 3).
func Fig3(s *core.Study) string {
	if len(s.SoftwareTop) == 0 {
		return "Figure 3. (no software root loci recorded)\n"
	}
	labels := make([]string, len(s.SoftwareTop))
	values := make([]float64, len(s.SoftwareTop))
	for i, c := range s.SoftwareTop {
		labels[i] = c.Cause.String()
		values[i] = c.Percent
	}
	title := fmt.Sprintf("Figure 3. %v software-failure root loci (top %d).", s.System, len(labels))
	return BarChart(title, labels, values, "%")
}

// Fig4 renders the failures-per-node distribution (Figure 4).
func Fig4(s *core.Study) string {
	t := NewTable(fmt.Sprintf("Figure 4. %v failures per affected node.", s.System),
		"Failures", "Nodes", "Percent")
	for _, bin := range s.NodeCounts {
		t.RowStrings(fmt.Sprintf("%d", bin.Failures), fmt.Sprintf("%d", bin.Nodes),
			fmt.Sprintf("%.1f%%", bin.Percent))
	}
	t.RowStrings("hw/sw on multi-failure nodes",
		fmt.Sprintf("%d", s.MultiNodeSplit.Hardware), fmt.Sprintf("%d", s.MultiNodeSplit.Software))
	return t.String()
}

// Fig5 renders the per-GPU-slot failure distribution (Figure 5).
func Fig5(s *core.Study) string {
	labels := make([]string, len(s.SlotShares))
	values := make([]float64, len(s.SlotShares))
	for i, slot := range s.SlotShares {
		labels[i] = fmt.Sprintf("GPU %d", slot.Slot)
		values[i] = slot.Percent
	}
	title := fmt.Sprintf("Figure 5. %v GPU-slot share of card incidents.", s.System)
	return BarChart(title, labels, values, "%")
}

// TableIII renders the multi-GPU involvement table (Table III).
func TableIII(old, new_ *core.Study) string {
	t := NewTable("Table III. Number of GPUs involved in node failures.",
		"#GPUs", new_.System.String(), old.System.String())
	rows := len(new_.Involvement)
	var totalNew, totalOld int
	for k := 0; k < rows; k++ {
		var oldCell string
		if k < len(old.Involvement) {
			r := old.Involvement[k]
			oldCell = fmt.Sprintf("%d (%.2f%%)", r.Count, r.Percent)
			totalOld += r.Count
		} else {
			oldCell = "N/A"
		}
		r := new_.Involvement[k]
		totalNew += r.Count
		t.RowStrings(fmt.Sprintf("%d", r.GPUs), fmt.Sprintf("%d (%.2f%%)", r.Count, r.Percent), oldCell)
	}
	t.RowStrings("Total", fmt.Sprintf("%d (100%%)", totalNew), fmt.Sprintf("%d (100%%)", totalOld))
	return t.String()
}

// Fig6 renders the TBF CDFs of both systems (Figure 6).
func Fig6(old, new_ *core.Study) string {
	var b strings.Builder
	b.WriteString("Figure 6. Cumulative distribution of time between failures.\n")
	fmt.Fprintf(&b, "%v: MTBF %.1f h, p25 %.1f, median %.1f, p75 %.1f\n",
		old.System, old.TBF.MTBFHours, old.TBF.P25, old.TBF.Median, old.TBF.P75)
	b.WriteString(CDFPlot("", old.TBF.CDF, 60, 10))
	fmt.Fprintf(&b, "%v: MTBF %.1f h, p25 %.1f, median %.1f, p75 %.1f\n",
		new_.System, new_.TBF.MTBFHours, new_.TBF.P25, new_.TBF.Median, new_.TBF.P75)
	b.WriteString(CDFPlot("", new_.TBF.CDF, 60, 10))
	return b.String()
}

// Fig7 renders the per-category TBF boxplots (Figure 7).
func Fig7(s *core.Study) string {
	return perTypeBoxes(fmt.Sprintf("Figure 7. %v time between failures by type (sorted by mean).", s.System), s.TBFPerType)
}

// Fig8 renders the multi-GPU temporal-clustering summary (Figure 8).
func Fig8(s *core.Study) string {
	if s.MultiGPU == nil {
		return fmt.Sprintf("Figure 8. %v: fewer than two multi-GPU failures.\n", s.System)
	}
	m := s.MultiGPU
	t := NewTable(fmt.Sprintf("Figure 8. %v temporal clustering of multi-GPU failures.", s.System),
		"Metric", "Value")
	t.RowStrings("multi-GPU failures", fmt.Sprintf("%d", m.MultiEvents))
	t.RowStrings("median gap", fmt.Sprintf("%.1f h", m.MedianGapHours))
	t.RowStrings("uniform-spread gap", fmt.Sprintf("%.1f h", m.ExpectedGapHours))
	t.RowStrings("clustering score", fmt.Sprintf("%.2fx", m.ClusteringScore))
	t.RowStrings(fmt.Sprintf("neighbours within %.0f h", m.WindowHours), fmt.Sprintf("%.0f%%", m.WithinWindowPercent))
	return t.String()
}

// Fig9 renders the TTR CDFs of both systems (Figure 9).
func Fig9(old, new_ *core.Study) string {
	var b strings.Builder
	b.WriteString("Figure 9. Cumulative distribution of time to recovery.\n")
	fmt.Fprintf(&b, "%v: MTTR %.1f h, median %.1f, p75 %.1f, max %.0f\n",
		old.System, old.TTR.MTTRHours, old.TTR.Median, old.TTR.P75, old.TTR.MaxHours)
	b.WriteString(CDFPlot("", old.TTR.CDF, 60, 10))
	fmt.Fprintf(&b, "%v: MTTR %.1f h, median %.1f, p75 %.1f, max %.0f\n",
		new_.System, new_.TTR.MTTRHours, new_.TTR.Median, new_.TTR.P75, new_.TTR.MaxHours)
	b.WriteString(CDFPlot("", new_.TTR.CDF, 60, 10))
	return b.String()
}

// Fig10 renders the per-category TTR boxplots (Figure 10).
func Fig10(s *core.Study) string {
	return perTypeBoxes(fmt.Sprintf("Figure 10. %v time to recovery by type (sorted by mean).", s.System), s.TTRPerType)
}

// Fig11 renders the monthly TTR distribution (Figure 11).
func Fig11(s *core.Study) string {
	var labels []string
	var summaries []stats.Summary
	for _, b := range s.Seasonal {
		if b.Failures == 0 {
			continue
		}
		labels = append(labels, b.Month.String()[:3])
		summaries = append(summaries, b.TTR)
	}
	title := fmt.Sprintf("Figure 11. %v time to recovery by month (2nd-half/1st-half ratio %.2f).",
		s.System, s.SeasonalTests.SecondHalfTTRRatio)
	return BoxPlot(title, labels, summaries, 50)
}

// Fig12 renders the monthly failure counts (Figure 12).
func Fig12(s *core.Study) string {
	labels := make([]string, 0, 12)
	values := make([]float64, 0, 12)
	for _, b := range s.Seasonal {
		labels = append(labels, b.Month.String()[:3])
		values = append(values, float64(b.Failures))
	}
	title := fmt.Sprintf("Figure 12. %v failures by month of occurrence (uniformity p=%.3g).",
		s.System, s.SeasonalTests.ChiSquareP)
	return BarChart(title, labels, values, "")
}

// PEPTable renders the performance-error-proportionality comparison (the
// paper's proposed metric, discussed under RQ4).
func PEPTable(cmp *core.Comparison) string {
	t := NewTable("Performance-error-proportionality (useful work per failure-free period).",
		"Machine", "Rpeak (PF)", "MTBF (h)", "ZFLOP/MTBF")
	for _, s := range []*core.Study{cmp.Old, cmp.New} {
		t.RowStrings(s.PEP.Machine,
			fmt.Sprintf("%.1f", s.PEP.RpeakPFlops),
			fmt.Sprintf("%.1f", s.PEP.MTBFHours),
			fmt.Sprintf("%.3f", s.PEP.FLOPPerMTBF))
	}
	t.RowStrings("ratio", fmt.Sprintf("%.1fx", cmp.New.PEP.RpeakPFlops/cmp.Old.PEP.RpeakPFlops),
		fmt.Sprintf("%.1fx", cmp.MTBFImprovement), fmt.Sprintf("%.1fx", cmp.PEPRatio))
	return t.String()
}

// Summary renders the cross-generation headline numbers.
func Summary(cmp *core.Comparison) string {
	t := NewTable("Cross-generation summary (paper section III).", "Metric", "Value", "Paper")
	t.RowStrings("system MTBF improvement", fmt.Sprintf("%.2fx", cmp.MTBFImprovement), ">4x")
	t.RowStrings("GPU MTBF improvement (card incidents)", fmt.Sprintf("%.2fx", cmp.GPUMTBFImprovement), "~10x")
	t.RowStrings("CPU MTBF improvement", fmt.Sprintf("%.2fx", cmp.CPUMTBFImprovement), "~3x")
	t.RowStrings("MTTR ratio", fmt.Sprintf("%.2f", cmp.MTTRRatio), "~1 (no improvement)")
	t.RowStrings("TTR shape distance (KS)", fmt.Sprintf("%.3f", cmp.TTRShapeKS), "very similar shapes")
	t.RowStrings("PEP gain", fmt.Sprintf("%.1fx", cmp.PEPRatio), "compute grew faster than MTBF")
	return t.String()
}

// FullReport renders every table and figure in paper order.
func FullReport(cmp *core.Comparison) string {
	old, new_ := cmp.Old, cmp.New
	sections := []string{
		TableI(),
		TableII(),
		Fig2(old), Fig2(new_),
		Fig3(new_),
		Fig4(old), Fig4(new_),
		Fig5(old), Fig5(new_),
		TableIII(old, new_),
		Fig6(old, new_),
		Fig7(old), Fig7(new_),
		Fig8(old),
		Fig9(old, new_),
		Fig10(old), Fig10(new_),
		Fig11(old), Fig11(new_),
		Fig12(old), Fig12(new_),
		PEPTable(cmp),
		Summary(cmp),
	}
	return strings.Join(sections, "\n")
}

func perTypeBoxes(title string, rows []core.CategoryDurations) string {
	labels := make([]string, len(rows))
	summaries := make([]stats.Summary, len(rows))
	for i, r := range rows {
		labels[i] = r.Category.String()
		summaries[i] = r.Summary
	}
	return BoxPlot(title, labels, summaries, 50)
}
