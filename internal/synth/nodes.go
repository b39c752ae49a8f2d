package synth

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"

	"repro/internal/failures"
	"repro/internal/sample"
)

// assignNodes places every node-attributable record on a compute node so
// that the per-node failure-count distribution matches the profile's PMF
// (Figure 4) and the number of software failures landing on multi-failure
// nodes matches the profile target (the paper's RQ2 hardware/software
// split). sampler is the node sampler to refill (see pickAffectedNodes).
func assignNodes(p *Profile, records []failures.Failure, rng *rand.Rand, sampler *sample.Fenwick) error {
	var attributable failures.PerCategory[bool]
	for _, c := range p.Categories {
		attributable[c.Category] = c.NodeAttributable
	}
	// The category mix is exact, so the profile sizes both index lists.
	var nSW, nHW int
	for _, c := range p.Categories {
		switch {
		case !attributable[c.Category]:
		case c.Category.Software():
			nSW += c.Count
		default:
			nHW += c.Count
		}
	}
	swIdx, hwIdx := make([]int, 0, nSW), make([]int, 0, nHW)
	for i := range records {
		if !attributable[records[i].Category] {
			continue
		}
		if records[i].Software() {
			swIdx = append(swIdx, i)
		} else {
			hwIdx = append(hwIdx, i)
		}
	}
	total := len(swIdx) + len(hwIdx)
	if total == 0 {
		return nil
	}

	counts, err := drawNodeCounts(p, total, rng)
	if err != nil {
		return err
	}
	if len(counts) > p.NodeCount {
		return fmt.Errorf("synth: node-count draw needs %d nodes, fleet has %d", len(counts), p.NodeCount)
	}

	// Pick distinct node IDs for the affected nodes, with hot racks
	// over-represented (the rack-level spatial non-uniformity of the
	// paper's related-work discussion).
	chosen, err := pickAffectedNodes(p, len(counts), rng, sampler)
	if err != nil {
		return err
	}
	// multis keeps room for the singles appended to it below.
	nSingles, nMultis := 0, 0
	for _, c := range counts {
		if c == 1 {
			nSingles++
		} else {
			nMultis += c
		}
	}
	singles, multis := make([]string, 0, nSingles), make([]string, 0, nMultis+nSingles)
	for i, c := range counts {
		id := nodeID(chosen[i])
		if c == 1 {
			singles = append(singles, id)
		} else {
			for k := 0; k < c; k++ {
				multis = append(multis, id)
			}
		}
	}
	rng.Shuffle(len(singles), func(i, j int) { singles[i], singles[j] = singles[j], singles[i] })
	rng.Shuffle(len(multis), func(i, j int) { multis[i], multis[j] = multis[j], multis[i] })
	rng.Shuffle(len(swIdx), func(i, j int) { swIdx[i], swIdx[j] = swIdx[j], swIdx[i] })
	rng.Shuffle(len(hwIdx), func(i, j int) { hwIdx[i], hwIdx[j] = hwIdx[j], hwIdx[i] })

	// Software records: the profile's target number go onto multi-failure
	// nodes, the rest onto single-failure nodes (falling back when a pool
	// runs dry).
	swOnMulti := p.SoftwareOnMultiNodes
	if swOnMulti > len(swIdx) {
		swOnMulti = len(swIdx)
	}
	if swOnMulti > len(multis) {
		swOnMulti = len(multis)
	}
	for _, i := range swIdx {
		var slot string
		switch {
		case swOnMulti > 0:
			slot, multis = multis[len(multis)-1], multis[:len(multis)-1]
			swOnMulti--
		case len(singles) > 0:
			slot, singles = singles[len(singles)-1], singles[:len(singles)-1]
		case len(multis) > 0:
			slot, multis = multis[len(multis)-1], multis[:len(multis)-1]
		default:
			return fmt.Errorf("synth: ran out of node slots placing software failures")
		}
		records[i].Node = slot
	}
	// Hardware records take whatever remains.
	remaining := append(multis, singles...)
	rng.Shuffle(len(remaining), func(i, j int) { remaining[i], remaining[j] = remaining[j], remaining[i] })
	if len(remaining) != len(hwIdx) {
		return fmt.Errorf("synth: %d hardware records but %d remaining slots", len(hwIdx), len(remaining))
	}
	for k, i := range hwIdx {
		records[i].Node = remaining[k]
	}
	return nil
}

// drawNodeCounts apportions per-affected-node failure counts so the
// node-count histogram matches the profile PMF as closely as integer
// counts allow (Figure 4 is a headline result, so this is deterministic
// rather than sampled). The number of affected nodes follows from the
// PMF's expected count; the residual after largest-remainder rounding is
// absorbed by promoting or demoting individual nodes one failure at a
// time.
func drawNodeCounts(p *Profile, total int, _ *rand.Rand) ([]int, error) {
	keys := make([]int, 0, len(p.NodeCountPMF))
	var expected float64
	for k, pr := range p.NodeCountPMF {
		keys = append(keys, k)
		expected += float64(k) * pr
	}
	sort.Ints(keys)
	if expected <= 0 {
		return nil, fmt.Errorf("synth: node-count PMF has zero mean")
	}
	nodes := int(math.Round(float64(total) / expected))
	if nodes < 1 {
		nodes = 1
	}
	weights := make([]float64, len(keys))
	for i, k := range keys {
		weights[i] = p.NodeCountPMF[k]
	}
	perKey, err := LargestRemainder(weights, nodes)
	if err != nil {
		return nil, fmt.Errorf("synth: node-count apportionment: %w", err)
	}
	// bucket[c] = number of nodes with exactly c failures.
	bucket := make(map[int]int, len(keys))
	covered := 0
	for i, k := range keys {
		bucket[k] = perKey[i]
		covered += k * perKey[i]
	}
	// Absorb the rounding residual with single-failure moves, touching the
	// largest buckets so the headline small-count shares stay intact.
	for covered < total {
		k := maxKeyWithNodes(bucket)
		bucket[k]--
		bucket[k+1]++
		covered++
	}
	for covered > total {
		k := maxKeyWithNodes(bucket)
		if k == 1 {
			bucket[1]--
			covered--
			continue
		}
		bucket[k]--
		bucket[k-1]++
		covered--
	}
	countKeys := make([]int, 0, len(bucket))
	affected := 0
	for k, c := range bucket {
		countKeys = append(countKeys, k)
		affected += c
	}
	counts := make([]int, 0, affected)
	sort.Ints(countKeys)
	for _, k := range countKeys {
		for i := 0; i < bucket[k]; i++ {
			counts = append(counts, k)
		}
	}
	return counts, nil
}

// pickAffectedNodes samples n distinct node indices, weighting nodes in
// hot racks by the profile's boost. Racks are declared hot by a
// deterministic permutation of the rack list. Draws run through the
// caller's Fenwick sampler, refilled here: O(log NodeCount) per pick
// with weight removal, replacing the per-pick linear CDF scan over the
// whole fleet. The sampler is sized by the fleet, the largest transient
// of node assignment, so a caller generating many logs passes the same
// one each time.
func pickAffectedNodes(p *Profile, n int, rng *rand.Rand, f *sample.Fenwick) ([]int, error) {
	racks := (p.NodeCount + p.NodesPerRack - 1) / p.NodesPerRack
	hotCount := int(p.HotRackFraction * float64(racks))
	hot := make([]bool, racks)
	for _, r := range rng.Perm(racks)[:hotCount] {
		hot[r] = true
	}
	err := f.ResetFunc(p.NodeCount, func(i int) float64 {
		if hot[i/p.NodesPerRack] {
			return p.HotRackBoost
		}
		return 1.0
	})
	if err != nil {
		return nil, fmt.Errorf("synth: node sampler: %w", err)
	}
	chosen := make([]int, n)
	for k := range chosen {
		chosen[k] = f.Take(rng)
	}
	return chosen, nil
}

// nodeID renders the canonical node name ("n" + the index zero-padded
// to at least four digits) with one allocation — fmt.Sprintf("n%04d")
// costs a verb parse and interface boxing per affected node.
func nodeID(i int) string {
	var buf [16]byte
	b := append(buf[:0], 'n')
	digits := 1
	for v := i; v >= 10; v /= 10 {
		digits++
	}
	for pad := 4 - digits; pad > 0; pad-- {
		b = append(b, '0')
	}
	b = strconv.AppendInt(b, int64(i), 10)
	return string(b)
}

// maxKeyWithNodes returns the largest failure count that still has nodes.
func maxKeyWithNodes(bucket map[int]int) int {
	best := 1
	for k, n := range bucket {
		if n > 0 && k > best {
			best = k
		}
	}
	return best
}
