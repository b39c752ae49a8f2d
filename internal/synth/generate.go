package synth

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sample"
)

// Generate produces a synthetic failure log for the profile. The result is
// fully determined by (profile, seed): the same inputs always yield the
// identical log, which keeps every downstream figure reproducible.
func Generate(p *Profile, seed int64) (*failures.Log, error) {
	return generate(p, seed, new(sample.Fenwick))
}

// generate is Generate with the node sampler to refill, which callers
// generating many logs reuse.
func generate(p *Profile, seed int64, sampler *sample.Fenwick) (*failures.Log, error) {
	defer obs.StartSpan("synth/generate").End()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	obs.Add("synth/records", int64(p.TotalFailures()))
	// Independent substreams per generation stage: adding a sampling site
	// to one stage does not disturb the others.
	var (
		rngTimes  = dist.Fork(seed, p.Name+"/times")
		rngCats   = dist.Fork(seed, p.Name+"/categories")
		rngTTR    = dist.Fork(seed, p.Name+"/ttr")
		rngNodes  = dist.Fork(seed, p.Name+"/nodes")
		rngGPUs   = dist.Fork(seed, p.Name+"/gpus")
		rngCauses = dist.Fork(seed, p.Name+"/causes")
	)

	// Every stage writes into the one slice the log keeps: the exact
	// category mix, shuffled in place, then the occurrence times.
	n := p.TotalFailures()
	records := make([]failures.Failure, n)
	next := 0
	for _, c := range p.Categories {
		for end := next + c.Count; next < end; next++ {
			records[next] = failures.Failure{ID: next + 1, System: p.System, Category: c.Category}
		}
	}
	rngCats.Shuffle(n, func(i, j int) {
		records[i].Category, records[j].Category = records[j].Category, records[i].Category
	})
	if err := generateTimes(p, records, rngTimes); err != nil {
		return nil, err
	}

	if err := assignSoftwareCauses(p, records, rngCauses); err != nil {
		return nil, err
	}
	if err := assignRecoveries(p, records, rngTTR); err != nil {
		return nil, err
	}
	if err := assignNodes(p, records, rngNodes, sampler); err != nil {
		return nil, err
	}
	if err := assignGPUs(p, records, rngGPUs); err != nil {
		return nil, err
	}
	return failures.NewLogOwned(p.System, records)
}

// GenerateEach produces one log per seed, fanning the independent
// generations out across a bounded worker pool. Generation is pure in
// (profile, seed) and the profile is only read, so the i-th log is
// byte-identical to Generate(p, seeds[i]). Each log is handed to fn as
// soon as its generation finishes, then released, so peak memory is one
// log per pool worker rather than one per seed. Each worker owns one
// node sampler and refills it for every seed it generates, so the
// fleet-sized tree is built once per worker, not once per seed.
// fn runs concurrently from pool workers and receives the seed's index
// into seeds; it must do its own synchronization if consumers share
// state. Cancelling ctx stops launching new seeds, lets in-flight ones
// finish, and returns the context error.
func GenerateEach(ctx context.Context, p *Profile, seeds []int64, parallelism int, fn func(i int, log *failures.Log) error) error {
	// A sampler is made only while every earlier one is in flight, and
	// at most one generation per worker is, so the free list holds at
	// most one sampler per worker and returning one never blocks.
	samplers := make(chan *sample.Fenwick, parallel.Width(parallelism, len(seeds)))
	return parallel.ForEach(ctx, parallelism, seeds, func(_ context.Context, i int, seed int64) error {
		var sampler *sample.Fenwick
		select {
		case sampler = <-samplers:
		default:
			sampler = new(sample.Fenwick)
		}
		log, err := generate(p, seed, sampler)
		samplers <- sampler
		if err != nil {
			return err
		}
		return fn(i, log)
	})
}

// GenerateSystem produces the calibrated synthetic log of one system
// from its built-in profile.
func GenerateSystem(sys failures.System, seed int64) (*failures.Log, error) {
	p, err := ProfileFor(sys)
	if err != nil {
		return nil, err
	}
	return Generate(p, seed)
}

// GenerateBoth produces the Tsubame-2 and Tsubame-3 logs with one seed,
// the common entry point of the paper-reproduction pipeline.
func GenerateBoth(seed int64) (t2, t3 *failures.Log, err error) {
	t2, err = Generate(Tsubame2Profile(), seed)
	if err != nil {
		return nil, nil, fmt.Errorf("synth: generating Tsubame-2 log: %w", err)
	}
	t3, err = Generate(Tsubame3Profile(), seed)
	if err != nil {
		return nil, nil, fmt.Errorf("synth: generating Tsubame-3 log: %w", err)
	}
	return t2, t3, nil
}

// generateTimes draws an occurrence time for every record, spanning
// [Start, End] in record order. Gaps follow a Weibull renewal process
// with the profile's shape (normalizing the cumulative sums onto the
// window preserves the Weibull family, which is closed under scaling);
// the normalized positions are then warped through the monthly-intensity
// map to realize Figure 12's seasonality.
func generateTimes(p *Profile, records []failures.Failure, rng *rand.Rand) error {
	w, err := dist.NewWeibull(p.TBFShape, 1)
	if err != nil {
		return err
	}
	n := len(records)
	cum := make([]float64, n)
	for i := 1; i < n; i++ {
		cum[i] = cum[i-1] + w.Sample(rng)
	}
	total := cum[n-1]
	if !(total > 0) {
		return fmt.Errorf("synth: degenerate gap sequence")
	}
	warp := newSeasonalWarp(p.Start, p.End, p.MonthlyCountWeights)
	for i := range records {
		records[i].Time = warp.At(cum[i] / total)
	}
	return nil
}

// assignSoftwareCauses distributes the exact root-locus mix over the
// Software-category records (Figure 3).
func assignSoftwareCauses(p *Profile, records []failures.Failure, rng *rand.Rand) error {
	if len(p.SoftwareCauses) == 0 {
		return nil
	}
	total := 0
	for _, c := range p.SoftwareCauses {
		total += c.Count
	}
	causes := make([]failures.SoftwareCause, 0, total)
	for _, c := range p.SoftwareCauses {
		for i := 0; i < c.Count; i++ {
			causes = append(causes, c.Cause)
		}
	}
	rng.Shuffle(len(causes), func(i, j int) { causes[i], causes[j] = causes[j], causes[i] })
	next := 0
	for i := range records {
		cat := records[i].Category
		if cat != failures.CatSoftware && cat != failures.CatOtherSW {
			continue
		}
		if next >= len(causes) {
			return fmt.Errorf("synth: more software records than causes (%d)", len(causes))
		}
		records[i].SoftwareCause = causes[next]
		next++
	}
	if next != len(causes) {
		return fmt.Errorf("synth: %d software causes left unassigned", len(causes)-next)
	}
	return nil
}

// assignRecoveries samples each record's time to recovery from its
// category's truncated log-normal, scaled by the calendar-month multiplier
// (Figure 11) and clamped to the category cap.
func assignRecoveries(p *Profile, records []failures.Failure, rng *rand.Rand) error {
	type sampler struct {
		d   dist.Distribution
		cap float64
	}
	var samplers failures.PerCategory[sampler]
	for _, c := range p.Categories {
		if c.Count == 0 {
			continue
		}
		ln, err := dist.LogNormalFromMoments(c.TTR.MeanHours, c.TTR.MedianHours)
		if err != nil {
			return fmt.Errorf("synth: TTR model for %q: %w", c.Category, err)
		}
		tr, err := dist.NewTruncated(ln, c.TTR.CapHours)
		if err != nil {
			return fmt.Errorf("synth: TTR model for %q: %w", c.Category, err)
		}
		samplers[c.Category] = sampler{d: tr, cap: c.TTR.CapHours}
	}
	for i := range records {
		s := samplers.At(records[i].Category)
		if s.d == nil {
			return fmt.Errorf("synth: record %d has category %q outside the profile mix", records[i].ID, records[i].Category)
		}
		hours := s.d.Sample(rng) * p.MonthlyTTRMultipliers[records[i].Time.Month()-1]
		if hours > s.cap {
			hours = s.cap
		}
		records[i].Recovery = time.Duration(hours * float64(time.Hour))
	}
	return nil
}
