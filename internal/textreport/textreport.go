// Package textreport assembles the complete text reports emitted by the
// analysis CLIs (tsubame-analyze, tsubame-digest, tsubame-diff,
// tsubame-fit). Each function writes the exact bytes the corresponding
// command prints, so any front end that shares this package — the CLIs
// writing to stdout, the tsubame-serve query endpoints writing to HTTP
// response bodies — produces byte-identical reports by construction.
// The e2e goldens pin these bytes; treat any diff here as a contract
// change.
package textreport

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/report"
)

// analyzeFigures are the single-system figures the analyze report
// renders, in paper order (figures 6 and 9 compare systems and belong to
// tsubame-report).
var analyzeFigures = []func(*core.Study) string{
	report.Fig2, report.Fig3, report.Fig4, report.Fig5, report.Fig7,
	report.Fig8, report.Fig10, report.Fig11, report.Fig12,
}

// Analyze writes the tsubame-analyze report for a study of log: headline
// window, every single-system figure, MTBF/MTTR/PEP summary, and the
// best-effort extension analyses (spatial concentration, card survival,
// rolling reliability, per-category TTR significance) when the log
// carries what they need. It indexes log afresh; callers holding the
// view the study was run on use AnalyzeView.
func Analyze(w io.Writer, study *core.Study, log *failures.Log) {
	AnalyzeView(w, study, index.New(log))
}

// AnalyzeView is Analyze over an already-built index, normally the one
// core.RunView produced study from, so the significance table reads the
// sorted recovery arenas the RQ battery already built.
func AnalyzeView(w io.Writer, study *core.Study, ix *index.View) {
	fmt.Fprintf(w, "Analyzed %d failures on %v over %.0f days.\n\n", study.Records, study.System, study.SpanDays)
	for _, fig := range analyzeFigures {
		if s := fig(study); s != "" {
			fmt.Fprintln(w, s)
		}
	}
	fmt.Fprintf(w, "MTBF %.1f h (p75 %.1f h); MTTR %.1f h (max %.0f h).\n",
		study.TBF.MTBFHours, study.TBF.P75, study.TTR.MTTRHours, study.TTR.MaxHours)
	fmt.Fprintf(w, "Performance-error-proportionality: %.3f ZFLOP per MTBF window.\n\n", study.PEP.FLOPPerMTBF)

	// Extension analyses (spatial concentration, card survival, rolling
	// reliability) when the log carries the needed attribution.
	if study.Spatial != nil {
		fmt.Fprintln(w, report.SpatialTable(study))
	}
	if study.Survival != nil {
		fmt.Fprintf(w, "GPU cards: %d of %d saw a failure; one-year card survival %.1f%%.\n",
			study.Survival.Failed, study.Survival.Cards, 100*study.Survival.SurvivalAtOneYear)
	}
	if series, err := core.RollingMTBF(ix.Log(), 90, 45); err == nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, report.RollingChart("Rolling 90-day MTBF.", series))
	}
	if rows, err := core.TTRSignificanceView(ix, 10); err == nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, report.SignificanceTable(study.System.String(), rows))
	}
}

// DefaultDigestFrom returns the digest period start used when the caller
// does not name one: days before the log's last failure.
func DefaultDigestFrom(log *failures.Log, days int) time.Time {
	_, logEnd, _ := log.Window()
	return logEnd.AddDate(0, 0, -days)
}

// Digest writes the tsubame-digest operations report for the period
// [from, from+days) of log, returning the number of records in the
// period (the callers' manifests record it). An empty period is an
// error; nothing is written then.
func Digest(w io.Writer, log *failures.Log, from time.Time, days int) (periodRecords int, err error) {
	return DigestOpts(w, log, from, days, core.DigestOptions{})
}

// DigestOpts is Digest with optional sections (the -quantiles line).
// Batch and streaming digests share one accumulator and one renderer,
// so StreamDigest over a .tsbc trace of the same records produces these
// exact bytes.
func DigestOpts(w io.Writer, log *failures.Log, from time.Time, days int, opts core.DigestOptions) (periodRecords int, err error) {
	summary, err := core.DigestFromLog(log, from, days, opts)
	if err != nil {
		return 0, err
	}
	renderDigest(w, summary)
	return summary.PeriodCount, nil
}

// renderDigest writes the operations report for a finalized summary.
// The e2e goldens pin these bytes; every section reads only the
// DigestSummary, never the log, so the streaming path renders
// identically.
func renderDigest(w io.Writer, s *core.DigestSummary) {
	fmt.Fprintf(w, "Operations digest: %v, %s .. %s (%d days)\n\n",
		s.System, s.From.Format("2006-01-02"), s.To.Format("2006-01-02"), s.Days)

	// Headline counts and period-over-history comparison.
	fmt.Fprintf(w, "Failures this period: %d", s.PeriodCount)
	if s.HistoryCount > 1 {
		historyDays := s.HistorySpan.Hours() / 24
		if historyDays > 0 {
			expected := float64(s.HistoryCount) / historyDays * float64(s.Days)
			fmt.Fprintf(w, " (history-rate expectation: %.0f)", expected)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "MTTR this period: %.1f h (history: %.1f h)\n", s.PeriodMTTR, s.HistoryMTTR)
	if s.PeriodMTBFOK {
		fmt.Fprintf(w, "MTBF this period: %.1f h\n", s.PeriodMTBF)
	}
	if s.HasQuantiles {
		fmt.Fprintf(w, "Recovery quantiles: mean %.1f h, sd %.1f h, p50 %.1f h, p90 %.1f h, p99 %.1f h\n",
			s.RecoveryMean, s.RecoveryStdDev, s.RecoveryP50, s.RecoveryP90, s.RecoveryP99)
	}

	// Category mix of the period.
	fmt.Fprintln(w, "\nFailures by category:")
	cats := failures.SortedCategories(s.ByCategory)
	sort.SliceStable(cats, func(i, j int) bool { return s.ByCategory[cats[i]] > s.ByCategory[cats[j]] })
	for _, cat := range cats {
		fmt.Fprintf(w, "  %-14s %d\n", cat, s.ByCategory[cat])
	}

	// Worst nodes of the period.
	type nodeRow struct {
		node string
		n    int
	}
	var nodes []nodeRow
	for node, n := range s.ByNode {
		if n >= 2 {
			nodes = append(nodes, nodeRow{node, n})
		}
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].n != nodes[j].n {
			return nodes[i].n > nodes[j].n
		}
		return nodes[i].node < nodes[j].node
	})
	if len(nodes) > 0 {
		fmt.Fprintln(w, "\nRepeat-offender nodes (2+ failures this period):")
		for i, r := range nodes {
			if i == 10 {
				fmt.Fprintf(w, "  ... and %d more\n", len(nodes)-10)
				break
			}
			fmt.Fprintf(w, "  %-8s %d failures\n", r.node, r.n)
		}
	}

	// Longest repairs of the period.
	fmt.Fprintln(w, "\nLongest repairs:")
	for _, r := range s.TopRepairs {
		fmt.Fprintf(w, "  %-14s %6.1f h  (node %s, %s)\n",
			r.Category, r.Recovery.Hours(), orDash(r.Node), r.Time.Format("2006-01-02"))
	}

	// Multi-GPU alarm state at the period end.
	if s.MultiGPUCount > 0 {
		fmt.Fprintf(w, "\nMulti-GPU failures this period: %d (last on %s).\n",
			s.MultiGPUCount, s.LastMultiGPU.Format("2006-01-02"))
		if s.To.Sub(s.LastMultiGPU) <= 72*time.Hour {
			fmt.Fprintln(w, "ALERT: inside the 72 h multi-GPU clustering window — expect follow-ups (Figure 8).")
		}
	}
}

// Diff writes the tsubame-diff period-comparison report for a computed
// diff on system, with alpha the significance level of the improvement
// verdict.
func Diff(w io.Writer, system failures.System, d *core.PeriodDiff, alpha float64) {
	fmt.Fprintf(w, "Period diff on %v: %d failures before, %d after.\n\n",
		system, d.BeforeFailures, d.AfterFailures)
	fmt.Fprintf(w, "%-28s %10s %10s\n", "", "before", "after")
	fmt.Fprintf(w, "%-28s %10d %10d\n", "failures", d.BeforeFailures, d.AfterFailures)
	fmt.Fprintf(w, "%-28s %10.1f %10.1f\n", "MTTR (h)", d.MTTRBefore, d.MTTRAfter)
	fmt.Fprintf(w, "\nfailure-rate ratio (after/before): %.2f\n", d.FailureRateRatio)
	fmt.Fprintf(w, "TBF shift: Mann-Whitney p = %.4f\n", d.TBFShiftP)
	fmt.Fprintf(w, "TTR shift: Mann-Whitney p = %.4f\n", d.TTRShiftP)
	if d.Improved(alpha) {
		fmt.Fprintf(w, "Verdict: reliability improved (alpha %.2f).\n", alpha)
	} else {
		fmt.Fprintf(w, "Verdict: no statistically backed improvement (alpha %.2f).\n", alpha)
	}

	fmt.Fprintln(w, "\nLargest category-share movements:")
	for i, r := range d.Drift {
		if i == 8 {
			break
		}
		fmt.Fprintf(w, "  %-14s %+6.2f%%  (%.2f%% -> %.2f%%)\n", r.Category, r.Delta, r.OldPercent, r.NewPercent)
	}
}

// Fit writes the tsubame-fit distribution report for log: system-wide
// and per-category (at least minCount records) TBF and TTR samples are
// fitted concurrently on a pool of width parallelism; the report order
// is fixed regardless of parallelism.
func Fit(w io.Writer, log *failures.Log, minCount, parallelism int) {
	titles, samples := fitSamples(log, minCount)
	fitted := dist.FitAllMany(samples, parallelism)

	fmt.Fprintf(w, "Distribution fits for %v (%d records).\n", log.System(), log.Len())
	for i, sf := range fitted {
		fmt.Fprintf(w, "\n%s:\n", titles[i])
		printFits(w, sf)
	}
}

// catSamples collects the positive TBF and TTR samples of a run of
// records.
type catSamples struct {
	seen     bool // a record was added; last is its time
	last     time.Time
	tbf, ttr []float64
}

// newCatSamples sizes the samples for n records: TBF is nil below two
// records, as Log.InterarrivalHours is.
func newCatSamples(n int) *catSamples {
	cs := &catSamples{ttr: make([]float64, 0, n)}
	if n >= 2 {
		cs.tbf = make([]float64, 0, n-1)
	}
	return cs
}

// add appends r's gap from the previous record added, and its recovery
// time, to the samples where positive.
func (cs *catSamples) add(r *failures.Failure) {
	if cs.seen {
		if h := r.Time.Sub(cs.last).Hours(); h > 0 {
			cs.tbf = append(cs.tbf, h)
		}
	}
	cs.seen, cs.last = true, r.Time
	if h := r.Recovery.Hours(); h > 0 {
		cs.ttr = append(cs.ttr, h)
	}
}

// fitSamples assembles the fit report's titled samples: system-wide TBF
// and TTR, then TBF and TTR of each category with at least minCount
// records, by descending count and then name. A TBF sample holds the
// positive gaps between consecutive records (of the category), a TTR
// sample the positive recovery times. One pass over the records fills
// every sample.
func fitSamples(log *failures.Log, minCount int) (titles []string, samples [][]float64) {
	counts := log.ByCategory()
	cats := slices.DeleteFunc(failures.SortedCategories(counts), func(c failures.Category) bool { return counts[c] < minCount })
	var fitted failures.PerCategory[*catSamples]
	for _, cat := range cats {
		fitted[cat] = newCatSamples(counts[cat])
	}
	// Name order breaks count ties.
	sort.SliceStable(cats, func(i, j int) bool { return counts[cats[i]] > counts[cats[j]] })

	all := newCatSamples(log.Len())
	for i := 0; i < log.Len(); i++ {
		r := log.At(i)
		all.add(&r)
		if cs := fitted[r.Category]; cs != nil {
			cs.add(&r)
		}
	}

	titles = []string{"System-wide time between failures", "System-wide time to recovery"}
	samples = [][]float64{all.tbf, all.ttr}
	for _, cat := range cats {
		titles = append(titles,
			fmt.Sprintf("%s (%d records) time between failures", cat, counts[cat]),
			fmt.Sprintf("%s time to recovery", cat))
		samples = append(samples, fitted[cat].tbf, fitted[cat].ttr)
	}
	return titles, samples
}

func printFits(w io.Writer, sf dist.SampleFits) {
	if sf.Err != nil {
		fmt.Fprintf(w, "  (no fit: %v)\n", sf.Err)
		return
	}
	for i, fit := range sf.Fits {
		marker := " "
		if i == 0 {
			marker = "*" // best by KS
		}
		fmt.Fprintf(w, "  %s %-12s %-38s KS=%.4f AIC=%.1f\n", marker, fit.Name, fit.Dist, fit.KS, fit.AIC)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
