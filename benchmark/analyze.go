package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/report"
	"repro/internal/synth"
	"repro/internal/textreport"
	"repro/internal/trace"
)

// analyze100k is the analyst's batch path: a closed loop with one client
// running tsubame-analyze and then tsubame-fit on the 100k-record .tsbc.
type analyze100k struct {
	e                        *env
	in                       string
	profile                  *synth.Profile
	analyzeRuns, fitRuns     procSet
	ops                      ops
	analyzeOut, fitOut       []byte // first iteration's output; later ones must match
	replayAnalyze, replayFit []byte // the in-process replay's output
}

func newAnalyze100k(e *env) workload { return &analyze100k{e: e, in: e.path("log.tsbc")} }

func (w *analyze100k) setup(ctx context.Context) (err error) {
	e := w.e
	if w.profile, err = e.writeScaledProfile(ctx, e.scale.logFactor, e.path("profile.json")); err != nil {
		return err
	}
	_, err = e.run(ctx, io.Discard, "tsubame-gen", "-profile", e.path("profile.json"),
		"-seed", fmt.Sprint(e.seed), "-out", w.in)
	return err
}

func (w *analyze100k) measure(ctx context.Context, until time.Time) error {
	for first := true; first || time.Now().Before(until); first = false {
		pa, err := w.runCLI(ctx, "tsubame-analyze", &w.analyzeRuns, &w.analyzeOut)
		if err != nil {
			return err
		}
		pf, err := w.runCLI(ctx, "tsubame-fit", &w.fitRuns, &w.fitOut)
		if err != nil {
			return err
		}
		w.ops.add(pa, pf)
	}
	return nil
}

// runCLI runs one of the two tools on the log and checks its output
// against the first run's.
func (w *analyze100k) runCLI(ctx context.Context, tool string, runs *procSet, first *[]byte) (proc, error) {
	var buf bytes.Buffer
	p, err := w.e.run(ctx, &buf, tool, "-parallel", "2", "-in", w.in)
	if err != nil {
		return p, err
	}
	runs.add(p)
	if *first == nil {
		*first = buf.Bytes()
	} else {
		w.e.check(bytes.Equal(buf.Bytes(), *first), "%s output differs between iterations", tool)
	}
	return p, nil
}

// verify compares the CLIs' output with the in-process replay's.
func (w *analyze100k) verify(context.Context) error {
	if w.replayAnalyze == nil {
		if err := w.replay(nil, 0); err != nil {
			return w.e.tally.record(err)
		}
	}
	w.e.check(bytes.Equal(w.analyzeOut, w.replayAnalyze), "tsubame-analyze output differs from the in-process replay")
	w.e.check(bytes.Equal(w.fitOut, w.replayFit), "tsubame-fit output differs from the in-process replay")
	return nil
}

// replay runs the CLIs' layers in-process, in their order: the set-up's
// tsubame-gen, then tsubame-analyze and tsubame-fit.
func (w *analyze100k) replay(tr *tracer, req int) error {
	e := w.e
	root := tr.begin("cli.gen", -1, req)
	var log *failures.Log
	err := tr.do("synth.generate", root, req, func() (err error) {
		log, err = synth.Generate(w.profile, e.seed)
		return err
	})
	if err == nil {
		err = writeFile(tr, root, req, "trace.write_tsbc", e.path("replay.tsbc"), log, trace.WriteTSBC)
	}
	tr.end(root)
	if err != nil {
		return err
	}

	root = tr.begin("cli.analyze", -1, req)
	log, err = readFile(tr, root, req, "trace.read_tsbc", w.in, trace.ReadTSBC)
	if err != nil {
		return err
	}
	ix := index.New(log)
	tr.do("index.facets", root, req, func() error { forceFacets(ix); return nil })
	study, err := analyzeLayers(tr, root, req, ix, "core.run_view")
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	tr.do("textreport.analyze", root, req, func() error { textreport.Analyze(&buf, study, log); return nil })
	w.replayAnalyze = buf.Bytes()
	tr.end(root)

	root = tr.begin("cli.fit", -1, req)
	defer tr.end(root)
	if log, err = readFile(tr, root, req, "trace.read_tsbc", w.in, trace.ReadTSBC); err != nil {
		return err
	}
	fitLayers(tr, root, req, log)
	buf = bytes.Buffer{}
	tr.do("textreport.fit", root, req, func() error { textreport.Fit(&buf, log, fitMinCount, 2); return nil })
	w.replayFit = buf.Bytes()
	return nil
}

func (w *analyze100k) close() error { return nil }

func (w *analyze100k) endToEnd() ops { return w.ops }

func (w *analyze100k) perLayer() map[string]float64 {
	return map[string]float64{
		"cmd.analyze_s":    median(w.analyzeRuns.wallSeconds()),
		"cmd.fit_s":        median(w.fitRuns.wallSeconds()),
		"analyze.cpu_util": w.analyzeRuns.cpuUtil(2),
		"fit.cpu_util":     w.fitRuns.cpuUtil(2),
	}
}

// forceFacets builds every facet the analysis battery touches.
func forceFacets(ix *index.View) {
	ix.Records()
	ix.NodeCounts()
	ix.Nodes()
	ix.GPURecords()
	ix.SortedInterarrivalHours()
	ix.SortedRecoveryHours()
	ix.SortedHardwareRecoveryHours()
	ix.SortedSoftwareRecoveryHours()
	ix.SortedMonthlyRecoveryHours()
	ix.MonthlyCounts()
	for cat := range ix.CategoryCounts() {
		ix.SortedCategoryGaps(cat)
		ix.SortedCategoryRecovery(cat)
	}
}

// analyzeFigures are the figures the analyze report renders.
var analyzeFigures = []func(*core.Study) string{
	report.Fig2, report.Fig3, report.Fig4, report.Fig5, report.Fig7,
	report.Fig8, report.Fig10, report.Fig11, report.Fig12,
}

// analyzeLayers runs the analysis battery on ix under the span runSpan,
// then the render-time work of the analyze report: the figures and the
// two extension analyses textreport.Analyze computes itself.
func analyzeLayers(tr *tracer, parent, req int, ix *index.View, runSpan string) (study *core.Study, err error) {
	if err := tr.do(runSpan, parent, req, func() (err error) {
		study, err = core.RunView(ix, core.Options{Parallelism: 2})
		return err
	}); err != nil {
		return nil, err
	}
	tr.do("report.figures", parent, req, func() error {
		for _, fig := range analyzeFigures {
			_ = fig(study)
		}
		return nil
	})
	log := ix.Log()
	// Both extensions are best-effort in the report; their errors only
	// drop a section.
	tr.do("core.rolling_mtbf", parent, req, func() error { _, _ = core.RollingMTBF(log, 90, 45); return nil })
	tr.do("core.ttr_significance", parent, req, func() error {
		_, _ = core.TTRSignificanceByCategory(log, 10)
		return nil
	})
	return study, nil
}

// fitMinCount is tsubame-fit's and /v1/fit's default per-category floor.
const fitMinCount = 10

// fitLayers assembles the fit report's samples as textreport.Fit does and
// fits them.
func fitLayers(tr *tracer, parent, req int, log *failures.Log) {
	var samples [][]float64
	tr.do("failures.fit_samples", parent, req, func() error { samples = fitSamples(log, fitMinCount); return nil })
	tr.do("dist.fit_all_many", parent, req, func() error { dist.FitAllMany(samples, 2); return nil })
}

// fitSamples mirrors textreport.Fit's sample assembly: system-wide TBF and
// TTR, then per category with at least minCount records.
func fitSamples(log *failures.Log, minCount int) [][]float64 {
	samples := [][]float64{positiveOnly(log.InterarrivalHours()), positiveOnly(log.RecoveryHours())}
	for cat, n := range log.ByCategory() {
		if n < minCount {
			continue
		}
		sub := log.Filter(func(f failures.Failure) bool { return f.Category == cat })
		samples = append(samples, positiveOnly(sub.InterarrivalHours()), positiveOnly(sub.RecoveryHours()))
	}
	return samples
}

func positiveOnly(xs []float64) []float64 {
	out := xs[:0:0]
	for _, x := range xs {
		if x > 0 {
			out = append(out, x)
		}
	}
	return out
}
