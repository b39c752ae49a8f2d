package dist

import (
	"context"

	"repro/internal/parallel"
)

// SampleFits pairs one sample's family ranking with its fit error, so a
// batch fit can report per-sample failures without aborting the batch.
type SampleFits struct {
	// Fits is the FitAll ranking (best KS first); nil when Err is set.
	Fits []Fit
	// Err is the fit failure of this sample, when no family fits.
	Err error
}

// FitAllMany runs FitAll over every sample with at most parallelism
// workers, preserving sample order. Per-sample failures land in the
// corresponding SampleFits rather than aborting the batch — the batch
// analogue of tsubame-fit's per-category loop.
func FitAllMany(samples [][]float64, parallelism int) []SampleFits {
	out, _ := parallel.Map(context.Background(), parallelism, samples, func(_ context.Context, _ int, xs []float64) (SampleFits, error) {
		fits, err := FitAll(xs)
		return SampleFits{Fits: fits, Err: err}, nil
	})
	return out
}
