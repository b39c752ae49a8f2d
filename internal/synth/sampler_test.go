package synth

import (
	"math/rand"
	"testing"

	"repro/internal/sample"
)

// TestSlotSamplerAllocs is the allocation regression gate for the GPU
// slot draw: both the alias path (k = 1) and the scratch path (k >= 2)
// may allocate only the result slice. The per-record weight copy and
// weight-total rescan this sampler replaced would show up here as extra
// allocations before they show up in the benchmark trajectory.
func TestSlotSamplerAllocs(t *testing.T) {
	for _, p := range []*Profile{Tsubame2Profile(), Tsubame3Profile()} {
		s, err := newSlotSampler(p.GPUSlotWeights)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := s.sample(1, rng); err != nil {
				t.Fatal(err)
			}
		}); allocs > 1 {
			t.Errorf("%s: single-slot draw allocated %v times per run, want <= 1 (the result slice)", p.Name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := s.sample(2, rng); err != nil {
				t.Fatal(err)
			}
		}); allocs > 1 {
			t.Errorf("%s: two-slot draw allocated %v times per run, want <= 1 (the result slice)", p.Name, allocs)
		}
	}
}

// TestSlotSamplerPreservesMarginals is the statistical-identity gate for
// the alias rewire: draws through the O(1) alias table (k = 1) and the
// first pick of the without-replacement scratch path (k = 2) must both
// remain distributed as the profile's calibrated slot weights.
func TestSlotSamplerPreservesMarginals(t *testing.T) {
	for _, p := range []*Profile{Tsubame2Profile(), Tsubame3Profile()} {
		s, err := newSlotSampler(p.GPUSlotWeights)
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		for _, w := range p.GPUSlotWeights {
			total += w
		}
		rng := rand.New(rand.NewSource(2))
		const draws = 200000
		single := make([]int, len(p.GPUSlotWeights))
		first := make([]int, len(p.GPUSlotWeights))
		for i := 0; i < draws; i++ {
			one, err := s.sample(1, rng)
			if err != nil {
				t.Fatal(err)
			}
			single[one[0]]++
			two, err := s.sample(2, rng)
			if err != nil {
				t.Fatal(err)
			}
			if two[0] == two[1] {
				t.Fatalf("%s: two-slot draw repeated slot %d", p.Name, two[0])
			}
			first[two[0]]++
		}
		for name, counts := range map[string][]int{"alias": single, "scratch-first-pick": first} {
			for i, w := range p.GPUSlotWeights {
				got := float64(counts[i]) / draws
				want := w / total
				if got < want*0.97 || got > want*1.03 {
					t.Errorf("%s %s: slot %d share = %.4f, want %.4f within 3%%", p.Name, name, i, got, want)
				}
			}
		}
	}
}

// TestPickAffectedNodesHotRackMarginal pins the Fenwick node sampler to
// the profile's calibrated hot-rack boost: nodes in hot racks must be
// drawn HotRackBoost times as often per node as cold ones. The hot set
// is reconstructed from an identically-seeded RNG, which consumes the
// same Perm variates pickAffectedNodes does.
func TestPickAffectedNodesHotRackMarginal(t *testing.T) {
	p := Tsubame2Profile()
	racks := (p.NodeCount + p.NodesPerRack - 1) / p.NodesPerRack
	hotCount := int(p.HotRackFraction * float64(racks))
	var hotPicks, coldPicks, hotNodes, coldNodes float64
	const picksPerTrial = 40 // small vs NodeCount, so removal barely bends the marginal
	for seed := int64(1); seed <= 200; seed++ {
		hot := make([]bool, racks)
		for _, r := range rand.New(rand.NewSource(seed)).Perm(racks)[:hotCount] {
			hot[r] = true
		}
		nHot := 0
		for i := 0; i < p.NodeCount; i++ {
			if hot[i/p.NodesPerRack] {
				nHot++
			}
		}
		chosen, err := pickAffectedNodes(p, picksPerTrial, rand.New(rand.NewSource(seed)), new(sample.Fenwick))
		if err != nil {
			t.Fatal(err)
		}
		for _, idx := range chosen {
			if hot[idx/p.NodesPerRack] {
				hotPicks++
			} else {
				coldPicks++
			}
		}
		hotNodes += float64(nHot)
		coldNodes += float64(p.NodeCount - nHot)
	}
	ratio := (hotPicks / hotNodes) / (coldPicks / coldNodes)
	if ratio < p.HotRackBoost*0.85 || ratio > p.HotRackBoost*1.15 {
		t.Errorf("hot/cold per-node pick-rate ratio = %.2f, want ~%.1f (the calibrated boost)", ratio, p.HotRackBoost)
	}
}

// TestPickAffectedNodesDistinct guards the without-replacement contract:
// a draw of n nodes yields n distinct indices inside the fleet.
func TestPickAffectedNodesDistinct(t *testing.T) {
	p := Tsubame3Profile()
	rng := rand.New(rand.NewSource(3))
	chosen, err := pickAffectedNodes(p, p.NodeCount/2, rng, new(sample.Fenwick))
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool, len(chosen))
	for _, idx := range chosen {
		if idx < 0 || idx >= p.NodeCount {
			t.Fatalf("node index %d outside fleet of %d", idx, p.NodeCount)
		}
		if seen[idx] {
			t.Fatalf("node index %d drawn twice", idx)
		}
		seen[idx] = true
	}
}
