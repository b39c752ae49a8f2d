package report

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// SpatialTable renders the rack/node concentration extension.
func SpatialTable(s *core.Study) string {
	if s.Spatial == nil {
		return fmt.Sprintf("Spatial concentration. %v: no node-attributable failures.\n", s.System)
	}
	sp := s.Spatial
	t := NewTable(fmt.Sprintf("Spatial concentration on %v (extension).", s.System), "Metric", "Value")
	t.RowStrings("rack Gini", fmt.Sprintf("%.3f", sp.RackGini))
	t.RowStrings("fleet node Gini", fmt.Sprintf("%.3f", sp.NodeGini))
	t.RowStrings("affected-node Gini", fmt.Sprintf("%.3f", sp.AffectedNodeGini))
	t.RowStrings("top-10% racks carry", fmt.Sprintf("%.1f%%", 100*sp.Top10PctRackShare))
	if half := lorenzAt(sp.Lorenz, 0.5); half >= 0 {
		t.RowStrings("quietest 50% of racks carry", fmt.Sprintf("%.1f%%", 100*half))
	}
	top := len(sp.Racks)
	if top > 5 {
		top = 5
	}
	for i := 0; i < top; i++ {
		r := sp.Racks[i]
		t.RowStrings(fmt.Sprintf("rack %d", r.Rack), fmt.Sprintf("%d failures (%.1f%%)", r.Failures, r.Percent))
	}
	return t.String()
}

// lorenzAt linearly interpolates a Lorenz curve at population share p, or
// -1 when the curve is empty.
func lorenzAt(curve []stats.LorenzPoint, p float64) float64 {
	if len(curve) == 0 {
		return -1
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].PopShare >= p {
			prev, cur := curve[i-1], curve[i]
			span := cur.PopShare - prev.PopShare
			if span <= 0 {
				return cur.MassShare
			}
			frac := (p - prev.PopShare) / span
			return prev.MassShare + frac*(cur.MassShare-prev.MassShare)
		}
	}
	return curve[len(curve)-1].MassShare
}

// SurvivalTable renders the per-card Kaplan-Meier extension for both
// systems.
func SurvivalTable(old, new_ *core.Study) string {
	t := NewTable("GPU card survival (Kaplan-Meier, extension).",
		"Metric", old.System.String(), new_.System.String())
	cell := func(s *core.Study, f func(*core.GPUSurvivalResult) string) string {
		if s.Survival == nil {
			return "n/a"
		}
		return f(s.Survival)
	}
	t.RowStrings("cards",
		cell(old, func(r *core.GPUSurvivalResult) string { return fmt.Sprintf("%d", r.Cards) }),
		cell(new_, func(r *core.GPUSurvivalResult) string { return fmt.Sprintf("%d", r.Cards) }))
	t.RowStrings("cards with a failure",
		cell(old, func(r *core.GPUSurvivalResult) string { return fmt.Sprintf("%d", r.Failed) }),
		cell(new_, func(r *core.GPUSurvivalResult) string { return fmt.Sprintf("%d", r.Failed) }))
	t.RowStrings("one-year card survival",
		cell(old, func(r *core.GPUSurvivalResult) string { return fmt.Sprintf("%.1f%%", 100*r.SurvivalAtOneYear) }),
		cell(new_, func(r *core.GPUSurvivalResult) string { return fmt.Sprintf("%.1f%%", 100*r.SurvivalAtOneYear) }))
	t.RowStrings("median card lifetime",
		cell(old, medianCell), cell(new_, medianCell))
	return t.String()
}

func medianCell(r *core.GPUSurvivalResult) string {
	if !r.MedianReached {
		return "not reached (censored)"
	}
	return fmt.Sprintf("%.0f h", r.MedianHours)
}

// RollingChart renders a rolling-MTBF series as a bar chart of MTBF per
// window start.
func RollingChart(title string, series []core.WindowMTBF) string {
	if len(series) == 0 {
		return title + "\n(no data)\n"
	}
	labels := make([]string, len(series))
	values := make([]float64, len(series))
	for i, pt := range series {
		labels[i] = pt.Start.Format("2006-01")
		values[i] = pt.MTBFHours
	}
	var b strings.Builder
	b.WriteString(BarChart(title, labels, values, "h"))
	if trend, err := core.MTBFTrend(series); err == nil {
		fmt.Fprintf(&b, "late/early MTBF trend: %.2fx\n", trend)
	}
	return b.String()
}

// DriftTable renders the cross-generation category-share drift (the RQ1
// observation that the dominant failure types changed).
func DriftTable(cmp *core.Comparison) string {
	rows := core.CategoryDrift(cmp.Old.Breakdown, cmp.New.Breakdown)
	t := NewTable("Category drift across generations (extension).",
		"Category", cmp.Old.System.String(), cmp.New.System.String(), "Delta")
	for i, r := range rows {
		if i == 10 {
			break
		}
		oldCell, newCell := fmt.Sprintf("%.2f%%", r.OldPercent), fmt.Sprintf("%.2f%%", r.NewPercent)
		if r.NewOnly {
			oldCell = "-"
		}
		if r.OldOnly {
			newCell = "-"
		}
		t.RowStrings(r.Category.String(), oldCell, newCell, fmt.Sprintf("%+.2f", r.Delta))
	}
	return t.String()
}

// SignificanceTable renders the one-vs-rest recovery-time tests.
func SignificanceTable(system string, rows []core.TTRSignificance) string {
	t := NewTable(fmt.Sprintf("Recovery-time significance on %s (one-vs-rest Mann-Whitney).", system),
		"Category", "N", "Mean (h)", "Rest (h)", "p")
	for _, r := range rows {
		t.RowStrings(r.Category.String(), fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%.1f", r.MeanHours), fmt.Sprintf("%.1f", r.RestMeanHours),
			fmt.Sprintf("%.4f", r.P))
	}
	return t.String()
}
