package core

import (
	"context"
	"fmt"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/system"
)

// Options configures how an analysis battery executes. The knobs affect
// scheduling only, never results: a Study produced under any Parallelism
// is identical to the sequential one (docs/PARALLELISM.md).
type Options struct {
	// Parallelism bounds the worker pool that fans the independent
	// per-figure analyses out across cores. 0 uses every core
	// (GOMAXPROCS); 1 reproduces the sequential path exactly.
	Parallelism int
}

// analysis is one named phase of the battery: the name keys the phase's
// observability span ("core/<name>", see docs/OBSERVABILITY.md).
type analysis struct {
	name string
	fn   func(context.Context) error
}

// Run executes the full analysis battery on one log, fanning the
// independent per-figure analyses out across a bounded worker pool. Every
// analysis reads one shared index.View — built once, memoized per facet —
// and writes only its own Study field, so the fan-out is race-free by
// construction; the pool dispatches tasks in the sequential battery's
// order and returns the lowest-index error, so failure behavior matches
// NewStudy as well.
func Run(log *failures.Log, opts Options) (*Study, error) {
	return RunView(index.New(log), opts)
}

// RunView is Run over an already-built index, the shared substrate of
// every phase (docs/PERFORMANCE.md). Facets a phase needs are built on
// first demand and reused by every later phase, whichever worker gets
// there first. Callers holding a long-lived view (the serve epoch store)
// use this entry point so repeated analyses share one facet set instead
// of re-indexing the log per request.
func RunView(ix *index.View, opts Options) (*Study, error) {
	defer obs.StartSpan("core/run").End()
	if ix.Len() < 2 {
		return nil, ErrTooFewRecords
	}
	s := &Study{System: ix.System(), Records: ix.Len(), SpanDays: ix.Span().Hours() / 24}
	width := opts.Parallelism
	obs.SetGauge("core/pool_width", float64(parallel.Width(width, 0)))
	obs.Add("core/records", int64(ix.Len()))

	// Phases are listed in NewStudy's historical order; best-effort
	// analyses swallow their errors exactly as the sequential path does.
	phases := []analysis{
		{"breakdown", func(context.Context) error {
			var err error
			if s.Breakdown, err = categoryBreakdown(ix); err != nil {
				return fmt.Errorf("core: category breakdown: %w", err)
			}
			return nil
		}},
		{"software-causes", func(context.Context) error {
			// Root loci are only recorded on systems that report them.
			if top, err := softwareCauses(ix, 16); err == nil {
				s.SoftwareTop = top
			}
			return nil
		}},
		{"node-counts", func(context.Context) error {
			var err error
			if s.NodeCounts, err = nodeFailureCounts(ix); err != nil {
				return fmt.Errorf("core: node failure counts: %w", err)
			}
			return nil
		}},
		{"multi-node-split", func(context.Context) error {
			var err error
			if s.MultiNodeSplit, err = multiFailureNodeSplit(ix); err != nil {
				return fmt.Errorf("core: multi-failure node split: %w", err)
			}
			return nil
		}},
		{"slot-shares", func(context.Context) error {
			var err error
			if s.SlotShares, err = gpuSlotDistribution(ix); err != nil {
				return fmt.Errorf("core: GPU slot distribution: %w", err)
			}
			return nil
		}},
		{"involvement", func(context.Context) error {
			var err error
			if s.Involvement, err = multiGPUInvolvement(ix); err != nil {
				return fmt.Errorf("core: multi-GPU involvement: %w", err)
			}
			return nil
		}},
		{"tbf", func(context.Context) error {
			var err error
			if s.TBF, err = tbfAnalysis(ix); err != nil {
				return fmt.Errorf("core: TBF analysis: %w", err)
			}
			return nil
		}},
		{"tbf-per-type", func(context.Context) error {
			var err error
			if s.TBFPerType, err = tbfByCategory(ix, minPerTypeTBF, width); err != nil {
				return fmt.Errorf("core: per-type TBF: %w", err)
			}
			return nil
		}},
		{"multi-gpu-temporal", func(context.Context) error {
			// A log can legitimately lack multi-GPU pairs; leave the
			// field nil then.
			if mg, err := multiGPUTemporal(ix, multiGPUWindowHours); err == nil {
				s.MultiGPU = mg
			}
			return nil
		}},
		{"ttr", func(context.Context) error {
			var err error
			if s.TTR, err = ttrAnalysis(ix); err != nil {
				return fmt.Errorf("core: TTR analysis: %w", err)
			}
			return nil
		}},
		{"ttr-per-type", func(context.Context) error {
			var err error
			if s.TTRPerType, err = ttrByCategory(ix, minPerTypeTTR, width); err != nil {
				return fmt.Errorf("core: per-type TTR: %w", err)
			}
			return nil
		}},
		{"seasonal", func(context.Context) error {
			var err error
			if s.Seasonal, err = monthlySeasonality(ix); err != nil {
				return fmt.Errorf("core: monthly seasonality: %w", err)
			}
			return nil
		}},
		{"seasonal-tests", func(context.Context) error {
			var err error
			if s.SeasonalTests, err = seasonalAnalysis(ix); err != nil {
				return fmt.Errorf("core: seasonal analysis: %w", err)
			}
			return nil
		}},
		// Extensions are best-effort: externally supplied logs may use
		// node identifiers outside the canonical topology or lack GPU
		// attribution.
		{"spatial", func(context.Context) error {
			if spatial, err := spatialAnalysis(ix, width); err == nil {
				s.Spatial = spatial
			}
			return nil
		}},
		{"survival", func(context.Context) error {
			if survival, err := gpuSurvival(ix); err == nil {
				s.Survival = survival
			}
			return nil
		}},
	}
	tasks := make([]func(context.Context) error, len(phases))
	for i, a := range phases {
		a := a
		tasks[i] = func(ctx context.Context) error {
			defer obs.StartSpan("core/" + a.name).End()
			return a.fn(ctx)
		}
	}
	if err := parallel.Do(context.Background(), width, tasks...); err != nil {
		return nil, err
	}

	// The proportionality metric consumes the TBF result, so it runs
	// after the fan-out completes.
	pep := obs.StartSpan("core/pep")
	defer pep.End()
	machine, err := system.ForSystem(ix.System())
	if err != nil {
		return nil, err
	}
	if s.PEP, err = system.PerfErrorProp(machine, s.TBF.MTBFHours); err != nil {
		return nil, fmt.Errorf("core: performance-error-proportionality: %w", err)
	}
	return s, nil
}
