package sim

import (
	"context"
	"fmt"
	"math"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// RunTrials executes one simulation per seed, fanning the independent
// trials out across a bounded worker pool, and returns the per-trial
// results in seed order. Trial i is byte-identical to a sequential
// Run of cfg with Seed seeds[i]; parallelism 1 reproduces the loop.
//
// Cancelling ctx stops the pool: no new trials start, in-flight trials
// finish, and the context error is returned — this is how tsubame-sim
// aborts cleanly on SIGINT instead of burning through remaining seeds.
//
// cfg.Parts is ignored: parts policies are stateful, so sharing one
// instance across concurrent trials would race and couple their
// outcomes. Pass a factory that builds a fresh policy per trial, or nil
// for always-available spares.
func RunTrials(ctx context.Context, cfg Config, seeds []int64, parallelism int, parts func() (PartsPolicy, error)) ([]*Result, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("sim: RunTrials needs at least one seed")
	}
	return parallel.Map(ctx, parallelism, seeds, func(_ context.Context, i int, seed int64) (*Result, error) {
		defer obs.StartSpan("sim/trial").End()
		trial := cfg
		trial.Seed = seed
		trial.Parts = nil
		if parts != nil {
			p, err := parts()
			if err != nil {
				return nil, fmt.Errorf("sim: trial %d parts policy: %w", i, err)
			}
			trial.Parts = p
		}
		res, err := Run(trial)
		if err != nil {
			return nil, fmt.Errorf("sim: trial %d (seed %d): %w", i, seed, err)
		}
		return res, nil
	})
}

// TrialStats aggregates a multi-trial run into the headline operational
// numbers with their across-trial spread.
type TrialStats struct {
	Trials int
	// MeanAvailability is the across-trial mean availability;
	// AvailabilityStd its sample standard deviation (0 for one trial).
	MeanAvailability, AvailabilityStd float64
	MinAvailability, MaxAvailability  float64
	MeanNodeHoursLost                 float64
	MeanRepairWait                    float64
	TotalFailures                     int
}

// SummarizeTrials reduces per-trial results to across-trial statistics.
func SummarizeTrials(results []*Result) (TrialStats, error) {
	if len(results) == 0 {
		return TrialStats{}, fmt.Errorf("sim: no trial results to summarize")
	}
	st := TrialStats{
		Trials:          len(results),
		MinAvailability: math.Inf(1),
		MaxAvailability: math.Inf(-1),
	}
	for _, r := range results {
		if r == nil {
			return TrialStats{}, fmt.Errorf("sim: nil trial result")
		}
		st.MeanAvailability += r.Availability
		st.MeanNodeHoursLost += r.NodeHoursLost
		st.MeanRepairWait += r.MeanRepairWait
		st.TotalFailures += r.Failures
		st.MinAvailability = math.Min(st.MinAvailability, r.Availability)
		st.MaxAvailability = math.Max(st.MaxAvailability, r.Availability)
	}
	n := float64(len(results))
	st.MeanAvailability /= n
	st.MeanNodeHoursLost /= n
	st.MeanRepairWait /= n
	if len(results) > 1 {
		var ss float64
		for _, r := range results {
			d := r.Availability - st.MeanAvailability
			ss += d * d
		}
		st.AvailabilityStd = math.Sqrt(ss / (n - 1))
	}
	return st, nil
}
