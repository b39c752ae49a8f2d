package report

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/failures"
)

// Markdown renders the table in GitHub-flavoured markdown.
func (t *Table) Markdown() string {
	cols := len(t.headers)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.title)
	}
	writeRow := func(row []string) {
		b.WriteString("|")
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(row) {
				cell = strings.ReplaceAll(row[i], "|", "\\|")
			}
			b.WriteString(" " + cell + " |")
		}
		b.WriteByte('\n')
	}
	headers := t.headers
	if len(headers) == 0 {
		headers = make([]string, cols)
	}
	writeRow(headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// MarkdownReport renders the cross-generation study as a markdown
// document: the headline summary plus every table-shaped artifact. The
// plot-shaped figures (CDFs, boxplots) are summarized as statistics
// tables since markdown has no native plotting.
func MarkdownReport(cmp *core.Comparison) string {
	old, new_ := cmp.Old, cmp.New
	var b strings.Builder
	b.WriteString("# Failure and repair study: " + old.System.String() + " vs " + new_.System.String() + "\n\n")

	sections := []string{
		markdownSummary(cmp),
		markdownBreakdown(old),
		markdownBreakdown(new_),
		markdownCauses(new_),
		markdownInvolvement(old, new_),
		markdownDurations(cmp),
	}
	return b.String() + strings.Join(sections, "\n")
}

func markdownSummary(cmp *core.Comparison) string {
	t := NewTable("Cross-generation summary", "Metric", "Measured", "Paper")
	t.RowStrings("system MTBF improvement", fmt.Sprintf("%.2fx", cmp.MTBFImprovement), ">4x")
	t.RowStrings("GPU MTBF improvement", fmt.Sprintf("%.2fx", cmp.GPUMTBFImprovement), "~10x")
	t.RowStrings("CPU MTBF improvement", fmt.Sprintf("%.2fx", cmp.CPUMTBFImprovement), "~3x")
	t.RowStrings("MTTR ratio", fmt.Sprintf("%.2f", cmp.MTTRRatio), "~1")
	t.RowStrings("PEP gain", fmt.Sprintf("%.1fx", cmp.PEPRatio), "faster than MTBF")
	return t.Markdown()
}

func markdownBreakdown(s *core.Study) string {
	t := NewTable(fmt.Sprintf("%v failure categories (Figure 2)", s.System),
		"Category", "Count", "Share")
	for _, share := range s.Breakdown {
		t.RowStrings(share.Category.String(), fmt.Sprintf("%d", share.Count),
			fmt.Sprintf("%.2f%%", share.Percent))
	}
	return t.Markdown()
}

func markdownCauses(s *core.Study) string {
	if len(s.SoftwareTop) == 0 {
		return ""
	}
	t := NewTable(fmt.Sprintf("%v software root loci (Figure 3)", s.System),
		"Root locus", "Count", "Share")
	for _, c := range s.SoftwareTop {
		t.RowStrings(c.Cause.String(), fmt.Sprintf("%d", c.Count), fmt.Sprintf("%.2f%%", c.Percent))
	}
	return t.Markdown()
}

func markdownInvolvement(old, new_ *core.Study) string {
	t := NewTable("GPUs involved per failure (Table III)",
		"#GPUs", new_.System.String(), old.System.String())
	for k := 0; k < len(new_.Involvement); k++ {
		oldCell := "N/A"
		if k < len(old.Involvement) {
			r := old.Involvement[k]
			oldCell = fmt.Sprintf("%d (%.2f%%)", r.Count, r.Percent)
		}
		r := new_.Involvement[k]
		t.RowStrings(fmt.Sprintf("%d", r.GPUs), fmt.Sprintf("%d (%.2f%%)", r.Count, r.Percent), oldCell)
	}
	return t.Markdown()
}

func markdownDurations(cmp *core.Comparison) string {
	t := NewTable("Time between failures and time to recovery (Figures 6 and 9)",
		"Metric", cmp.Old.System.String(), cmp.New.System.String())
	t.RowStrings("MTBF",
		fmt.Sprintf("%.1f h", cmp.Old.TBF.MTBFHours), fmt.Sprintf("%.1f h", cmp.New.TBF.MTBFHours))
	t.RowStrings("TBF p75",
		fmt.Sprintf("%.1f h", cmp.Old.TBF.P75), fmt.Sprintf("%.1f h", cmp.New.TBF.P75))
	t.RowStrings("MTTR",
		fmt.Sprintf("%.1f h", cmp.Old.TTR.MTTRHours), fmt.Sprintf("%.1f h", cmp.New.TTR.MTTRHours))
	t.RowStrings("TTR max",
		fmt.Sprintf("%.0f h", cmp.Old.TTR.MaxHours), fmt.Sprintf("%.0f h", cmp.New.TTR.MaxHours))
	gpu := func(s *core.Study) string {
		share := 0.0
		for _, cs := range s.Breakdown {
			if cs.Category == failures.CatGPU {
				share = cs.Percent
			}
		}
		return fmt.Sprintf("%.2f%%", share)
	}
	t.RowStrings("GPU failure share", gpu(cmp.Old), gpu(cmp.New))
	return t.Markdown()
}
