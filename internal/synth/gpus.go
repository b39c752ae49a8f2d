package synth

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/failures"
	"repro/internal/sample"
)

// slotSampler draws GPU slot identities against the profile's per-slot
// weights (Figure 5). It is built once per generation and reused across
// every record: single-slot draws (the overwhelming majority under the
// Table III involvement mix) go through a constant-time alias table, and
// multi-slot draws reuse one scratch weight vector with a running total
// instead of re-copying the profile weights and re-summing them per
// iteration.
type slotSampler struct {
	alias   *sample.Alias
	weights []float64 // profile slot weights, read-only
	total   float64   // sum of weights, computed once
	scratch []float64 // per-draw working copy for k >= 2, reused
}

func newSlotSampler(weights []float64) (*slotSampler, error) {
	a, err := sample.NewAlias(weights)
	if err != nil {
		return nil, fmt.Errorf("synth: slot sampler: %w", err)
	}
	var total float64
	for _, w := range weights {
		total += w
	}
	return &slotSampler{
		alias:   a,
		weights: weights,
		total:   total,
		scratch: make([]float64, len(weights)),
	}, nil
}

// sample draws k distinct GPU slots weighted by the profile's slot
// weights, appending them to dst (reused by callers to avoid per-record
// slices when possible).
func (s *slotSampler) sample(k int, rng *rand.Rand) ([]int, error) {
	nSlots := len(s.weights)
	if k > nSlots {
		return nil, fmt.Errorf("synth: cannot involve %d GPUs with %d slots", k, nSlots)
	}
	slots := make([]int, 0, k)
	if k == 1 {
		// With-replacement and without-replacement coincide for a single
		// draw: O(1) through the alias table.
		return append(slots, s.alias.Draw(rng)), nil
	}
	copy(s.scratch, s.weights)
	total := s.total
	for len(slots) < k {
		u := rng.Float64() * total
		var cum float64
		pick := -1
		for i, w := range s.scratch {
			if w == 0 {
				continue
			}
			cum += w
			if u <= cum {
				pick = i
				break
			}
		}
		if pick < 0 { // numeric edge: take the last positive weight
			for i := nSlots - 1; i >= 0; i-- {
				if s.scratch[i] > 0 {
					pick = i
					break
				}
			}
		}
		slots = append(slots, pick)
		total -= s.scratch[pick]
		s.scratch[pick] = 0
	}
	return slots, nil
}

// assignGPUs attaches GPU slot sets to every GPU-related record. GPU-
// category records draw their simultaneous-involvement size from the
// profile's Table III distribution, with multi-GPU events placed
// temporally adjacent to earlier multi-GPU events with probability
// ClusterFraction (Figure 8); other GPU-related categories (driver,
// SXM2 cabling) involve a single card. Slot identities follow the
// profile's per-slot weights (Figure 5).
func assignGPUs(p *Profile, records []failures.Failure, rng *rand.Rand) error {
	// records are in chronological order (times were generated sorted), so
	// positions in gpuIdx are time-ordered too.
	n := 0
	for _, c := range p.Categories {
		if c.Category == failures.CatGPU {
			n += c.Count
		}
	}
	gpuIdx := make([]int, 0, n)
	for i := range records {
		if records[i].Category == failures.CatGPU {
			gpuIdx = append(gpuIdx, i)
		}
	}
	sizes, err := involvementSizes(p, len(gpuIdx))
	if err != nil {
		return err
	}
	sampler, err := newSlotSampler(p.GPUSlotWeights)
	if err != nil {
		return err
	}
	assigned, err := placeInvolvements(p, records, gpuIdx, sizes, rng)
	if err != nil {
		return err
	}
	for pos, idx := range gpuIdx {
		slots, err := sampler.sample(assigned[pos], rng)
		if err != nil {
			return err
		}
		records[idx].GPUs = slots
	}
	// Non-GPU-category records that still involve a card get one slot.
	for i := range records {
		if records[i].Category != failures.CatGPU && records[i].Category.GPURelated() {
			slots, err := sampler.sample(1, rng)
			if err != nil {
				return err
			}
			records[i].GPUs = slots
		}
	}
	return nil
}

// involvementSizes expands the involvement PMF into the exact multiset of
// per-event involvement sizes for n GPU-category events.
func involvementSizes(p *Profile, n int) ([]int, error) {
	counts, err := LargestRemainder(p.GPUInvolvementPMF, n)
	if err != nil {
		return nil, fmt.Errorf("synth: involvement apportionment: %w", err)
	}
	sizes := make([]int, 0, n)
	for i, c := range counts {
		for k := 0; k < c; k++ {
			sizes = append(sizes, i+1)
		}
	}
	return sizes, nil
}

// placeInvolvements maps each involvement size onto a position in the
// time-ordered GPU-event list. Multi-GPU sizes are placed first: with
// probability ClusterFraction next to an already-placed multi-GPU event
// (within ClusterWindowHours), otherwise uniformly — this realizes the
// paper's observation that simultaneous multi-GPU failures arrive in
// temporal clusters. Returns the size for each position (1 where nothing
// special was placed).
//
// Uniform placement over the not-yet-taken positions runs through a
// unit-weight Fenwick sampler: O(log n) per draw with removal, replacing
// the per-placement rebuild of the full free-position list.
func placeInvolvements(p *Profile, records []failures.Failure, gpuIdx []int, sizes []int, rng *rand.Rand) ([]int, error) {
	out := make([]int, len(gpuIdx))
	for i := range out {
		out[i] = 1
	}
	var multiSizes []int
	for _, s := range sizes {
		if s >= 2 {
			multiSizes = append(multiSizes, s)
		}
	}
	rng.Shuffle(len(multiSizes), func(i, j int) { multiSizes[i], multiSizes[j] = multiSizes[j], multiSizes[i] })
	if len(multiSizes) == 0 {
		return out, nil
	}

	taken := make([]bool, len(gpuIdx))
	free, err := sample.NewFenwick(ones(len(gpuIdx)))
	if err != nil {
		return nil, fmt.Errorf("synth: involvement placement: %w", err)
	}
	var placed []int // positions already holding multi-GPU events
	for _, size := range multiSizes {
		pos := -1
		if len(placed) > 0 && rng.Float64() < p.ClusterFraction {
			anchor := placed[rng.Intn(len(placed))]
			pos = nearestFreeWithin(records, gpuIdx, taken, anchor, p.ClusterWindowHours)
		}
		if pos < 0 {
			if free.Total() < 0.5 { // every position taken
				break
			}
			pos = free.Take(rng)
		} else {
			free.Remove(pos)
		}
		taken[pos] = true
		out[pos] = size
		placed = append(placed, pos)
	}
	return out, nil
}

// ones returns a unit-weight vector of length n.
func ones(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 1
	}
	return w
}

// nearestFreeWithin finds the free GPU-event position closest in time to
// anchor and within the cluster window, or -1 if none exists.
func nearestFreeWithin(records []failures.Failure, gpuIdx []int, taken []bool, anchor int, windowHours float64) int {
	anchorTime := records[gpuIdx[anchor]].Time
	best, bestGap := -1, math.Inf(1)
	// Scan outward from the anchor; positions are time-ordered so the
	// first free hit on each side is the nearest on that side.
	for offset := 1; offset < len(gpuIdx); offset++ {
		improved := false
		for _, pos := range []int{anchor - offset, anchor + offset} {
			if pos < 0 || pos >= len(gpuIdx) || taken[pos] {
				continue
			}
			gap := math.Abs(records[gpuIdx[pos]].Time.Sub(anchorTime).Hours())
			if gap <= windowHours && gap < bestGap {
				best, bestGap = pos, gap
				improved = true
			}
		}
		if best >= 0 && !improved {
			break
		}
	}
	return best
}
