package synth

import (
	"bytes"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/failures"
)

const testSeed = 42

func generateT2(t *testing.T) *failures.Log {
	t.Helper()
	log, err := Generate(Tsubame2Profile(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func generateT3(t *testing.T) *failures.Log {
	t.Helper()
	log, err := Generate(Tsubame3Profile(), testSeed)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestProfilesValidate(t *testing.T) {
	if err := Tsubame2Profile().Validate(); err != nil {
		t.Errorf("Tsubame-2 profile: %v", err)
	}
	if err := Tsubame3Profile().Validate(); err != nil {
		t.Errorf("Tsubame-3 profile: %v", err)
	}
}

func TestProfileTotalsMatchPaper(t *testing.T) {
	if got := Tsubame2Profile().TotalFailures(); got != 897 {
		t.Errorf("Tsubame-2 total = %d, want 897", got)
	}
	if got := Tsubame3Profile().TotalFailures(); got != 338 {
		t.Errorf("Tsubame-3 total = %d, want 338", got)
	}
}

func TestProfileValidationCatchesErrors(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Profile)
	}{
		{"invalid system", func(p *Profile) { p.System = 0 }},
		{"empty window", func(p *Profile) { p.End = p.Start }},
		{"zero shape", func(p *Profile) { p.TBFShape = 0 }},
		{"negative category count", func(p *Profile) { p.Categories[0].Count = -1 }},
		{"foreign category", func(p *Profile) { p.Categories[0].Category = failures.CatOmniPath }},
		{"median above mean", func(p *Profile) { p.Categories[0].TTR.MedianHours = p.Categories[0].TTR.MeanHours + 1 }},
		{"cap below mean", func(p *Profile) { p.Categories[0].TTR.CapHours = p.Categories[0].TTR.MeanHours - 1 }},
		{"wrong slot weight count", func(p *Profile) { p.GPUSlotWeights = []float64{1, 1} }},
		{"non-positive slot weight", func(p *Profile) { p.GPUSlotWeights[0] = 0 }},
		{"involvement PMF too long", func(p *Profile) { p.GPUInvolvementPMF = []float64{0.25, 0.25, 0.25, 0.25} }},
		{"involvement PMF not normalized", func(p *Profile) { p.GPUInvolvementPMF = []float64{0.5, 0.1, 0.1} }},
		{"node PMF not normalized", func(p *Profile) { p.NodeCountPMF = map[int]float64{1: 0.5} }},
		{"node PMF zero count", func(p *Profile) { p.NodeCountPMF = map[int]float64{0: 1} }},
		{"cluster fraction out of range", func(p *Profile) { p.ClusterFraction = 1.5 }},
		{"cause sum mismatch", func(p *Profile) { p.SoftwareCauses = []CauseCount{{failures.CauseGPUDriver, 3}} }},
		{"invalid cause", func(p *Profile) { p.SoftwareCauses[0].Cause = 99 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := Tsubame2Profile()
			if tt.name == "cause sum mismatch" || tt.name == "invalid cause" {
				p = Tsubame3Profile()
			}
			tt.mutate(p)
			if err := p.Validate(); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(Tsubame2Profile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Tsubame2Profile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	ra, rb := a.Records(), b.Records()
	for i := range ra {
		if !ra[i].Time.Equal(rb[i].Time) || ra[i].Category != rb[i].Category ||
			ra[i].Node != rb[i].Node || ra[i].Recovery != rb[i].Recovery {
			t.Fatalf("records %d differ between identical runs", i)
		}
	}
	c, err := Generate(Tsubame2Profile(), 8)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	rc := c.Records()
	for i := range ra {
		if ra[i].Category != rc[i].Category {
			diff++
		}
	}
	if diff == 0 {
		t.Error("different seeds produced identical category sequences")
	}
}

func TestGenerateSystemUnknown(t *testing.T) {
	if _, err := GenerateSystem(failures.System(0), 1); err == nil {
		t.Error("GenerateSystem of an unknown system should fail")
	}
}

func TestGenerateWindowAndCount(t *testing.T) {
	for _, p := range []*Profile{Tsubame2Profile(), Tsubame3Profile()} {
		log, err := Generate(p, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		if log.Len() != p.TotalFailures() {
			t.Errorf("%s: %d records, want %d", p.Name, log.Len(), p.TotalFailures())
		}
		start, end, _ := log.Window()
		if start.Before(p.Start) || end.After(p.End) {
			t.Errorf("%s: window %v..%v escapes profile %v..%v", p.Name, start, end, p.Start, p.End)
		}
	}
}

func TestGenerateCategoryMixExact(t *testing.T) {
	log := generateT2(t)
	got := log.ByCategory()
	for _, c := range Tsubame2Profile().Categories {
		if got[c.Category] != c.Count {
			t.Errorf("category %q count = %d, want %d", c.Category, got[c.Category], c.Count)
		}
	}
	// Headline shares from the paper.
	gpuShare := 100 * float64(got[failures.CatGPU]) / float64(log.Len())
	if math.Abs(gpuShare-44.37) > 0.01 {
		t.Errorf("GPU share = %.2f%%, want 44.37%%", gpuShare)
	}
	cpuShare := 100 * float64(got[failures.CatCPU]) / float64(log.Len())
	if math.Abs(cpuShare-1.78) > 0.01 {
		t.Errorf("CPU share = %.2f%%, want 1.78%%", cpuShare)
	}
}

func TestGenerateSoftwareCausesExact(t *testing.T) {
	log := generateT3(t)
	counts := make(map[failures.SoftwareCause]int)
	for _, r := range log.Records() {
		if r.SoftwareCause != 0 {
			counts[r.SoftwareCause]++
		}
	}
	var total int
	for _, c := range Tsubame3Profile().SoftwareCauses {
		if counts[c.Cause] != c.Count {
			t.Errorf("cause %q count = %d, want %d", c.Cause, counts[c.Cause], c.Count)
		}
		total += c.Count
	}
	if total != 171 {
		t.Errorf("total causes = %d, want the paper's 171", total)
	}
	// GPU-driver share ~43%, unknown ~20%.
	if share := 100 * float64(counts[failures.CauseGPUDriver]) / 171; math.Abs(share-43.3) > 1 {
		t.Errorf("GPU-driver share = %.1f%%, want ~43%%", share)
	}
	if share := 100 * float64(counts[failures.CauseUnknown]) / 171; math.Abs(share-20) > 1 {
		t.Errorf("unknown share = %.1f%%, want ~20%%", share)
	}
}

func TestGenerateMTBFCalibration(t *testing.T) {
	t2 := generateT2(t)
	mtbf2, _ := t2.MTBFHours()
	if mtbf2 < 13 || mtbf2 > 18 {
		t.Errorf("Tsubame-2 MTBF = %.1f h, paper reports ~15 h", mtbf2)
	}
	t3 := generateT3(t)
	mtbf3, _ := t3.MTBFHours()
	if mtbf3 < 65 || mtbf3 > 80 {
		t.Errorf("Tsubame-3 MTBF = %.1f h, paper reports >70 h", mtbf3)
	}
}

func TestGenerateMTTRCalibration(t *testing.T) {
	// The paper: MTTR ~55 h on both systems. Averaged over seeds to damp
	// the heavy lognormal tails.
	for _, p := range []*Profile{Tsubame2Profile(), Tsubame3Profile()} {
		var sum float64
		const seeds = 5
		for seed := int64(1); seed <= seeds; seed++ {
			log, err := Generate(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			mttr, _ := log.MTTRHours()
			sum += mttr
		}
		avg := sum / seeds
		if avg < 48 || avg > 62 {
			t.Errorf("%s mean MTTR over %d seeds = %.1f h, paper reports ~55 h", p.Name, seeds, avg)
		}
	}
}

func TestGenerateNodeDistribution(t *testing.T) {
	t2 := generateT2(t)
	perNode := t2.ByNode()
	byCount := make(map[int]int)
	for _, c := range perNode {
		byCount[c]++
	}
	total := float64(len(perNode))
	p1 := 100 * float64(byCount[1]) / total
	p2 := 100 * float64(byCount[2]) / total
	if math.Abs(p1-60) > 3 {
		t.Errorf("Tsubame-2 single-failure node share = %.1f%%, want ~60%%", p1)
	}
	if math.Abs(p2-10) > 3 {
		t.Errorf("Tsubame-2 two-failure node share = %.1f%%, want ~10%%", p2)
	}

	t3 := generateT3(t)
	perNode3 := t3.ByNode()
	byCount3 := make(map[int]int)
	for _, c := range perNode3 {
		byCount3[c]++
	}
	total3 := float64(len(perNode3))
	q1 := 100 * float64(byCount3[1]) / total3
	if math.Abs(q1-40) > 4 {
		t.Errorf("Tsubame-3 single-failure node share = %.1f%%, want ~40%% (60%% multi)", q1)
	}
	// Three-failure share ~50% higher than Tsubame-2's.
	p3 := 100 * float64(byCount[3]) / total
	q3 := 100 * float64(byCount3[3]) / total3
	if q3 < p3*1.2 {
		t.Errorf("Tsubame-3 three-failure share %.1f%% should be ~1.5x Tsubame-2's %.1f%%", q3, p3)
	}
}

func TestGenerateSoftwareOnMultiNodes(t *testing.T) {
	// Tsubame-2: exactly one software failure lands on a multi-failure
	// node (the paper's 352-vs-1 observation).
	t2 := generateT2(t)
	perNode := t2.ByNode()
	sw := 0
	for _, r := range t2.Records() {
		if r.Node != "" && perNode[r.Node] >= 2 && r.Software() {
			sw++
		}
	}
	if sw != 1 {
		t.Errorf("Tsubame-2 software failures on multi-failure nodes = %d, want exactly 1", sw)
	}
	// Tsubame-3: both kinds recur on nodes (paper: 104 hardware, 95
	// software). The profile guarantees at least the 95 target.
	t3 := generateT3(t)
	perNode3 := t3.ByNode()
	var hw3, sw3 int
	for _, r := range t3.Records() {
		if r.Node == "" || perNode3[r.Node] < 2 {
			continue
		}
		if r.Software() {
			sw3++
		} else {
			hw3++
		}
	}
	if sw3 < 95 {
		t.Errorf("Tsubame-3 software failures on multi-failure nodes = %d, want >= 95", sw3)
	}
	if hw3 < 50 {
		t.Errorf("Tsubame-3 hardware failures on multi-failure nodes = %d, want a substantial count", hw3)
	}
}

func TestGenerateGPUInvolvement(t *testing.T) {
	t2 := generateT2(t)
	counts := make(map[int]int)
	var total int
	for _, r := range t2.Records() {
		if r.Category == failures.CatGPU {
			counts[len(r.GPUs)]++
			total++
		}
	}
	if total != 398 {
		t.Fatalf("Tsubame-2 GPU failures = %d, want 398", total)
	}
	// Table III fractions: 30.44 / 34.78 / 34.78.
	if share := 100 * float64(counts[1]) / float64(total); math.Abs(share-30.44) > 1 {
		t.Errorf("1-GPU share = %.2f%%, want ~30.44%%", share)
	}
	if share := 100 * float64(counts[2]) / float64(total); math.Abs(share-34.78) > 1 {
		t.Errorf("2-GPU share = %.2f%%, want ~34.78%%", share)
	}

	t3 := generateT3(t)
	counts3 := make(map[int]int)
	var total3 int
	for _, r := range t3.Records() {
		if r.Category == failures.CatGPU {
			counts3[len(r.GPUs)]++
			total3++
		}
	}
	if share := 100 * float64(counts3[1]) / float64(total3); math.Abs(share-92.6) > 2 {
		t.Errorf("Tsubame-3 1-GPU share = %.2f%%, want ~92.6%%", share)
	}
	if counts3[4] != 0 {
		t.Errorf("Tsubame-3 4-GPU failures = %d, the paper saw none", counts3[4])
	}
}

func TestGenerateSlotSkew(t *testing.T) {
	// Aggregate across seeds: slot 1 should see ~20% more card incidents
	// than slots 0/2 on Tsubame-2 (Figure 5a).
	incidents := make([]float64, 3)
	for seed := int64(1); seed <= 5; seed++ {
		log, err := Generate(Tsubame2Profile(), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range log.Records() {
			for _, g := range r.GPUs {
				incidents[g]++
			}
		}
	}
	outer := (incidents[0] + incidents[2]) / 2
	ratio := incidents[1] / outer
	if ratio < 1.1 || ratio > 1.35 {
		t.Errorf("Tsubame-2 slot-1/outer incident ratio = %.2f, want ~1.2", ratio)
	}

	// Tsubame-3: outer slots well above inner (Figure 5b).
	incidents4 := make([]float64, 4)
	for seed := int64(1); seed <= 5; seed++ {
		log, err := Generate(Tsubame3Profile(), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range log.Records() {
			for _, g := range r.GPUs {
				incidents4[g]++
			}
		}
	}
	outerShare := incidents4[0] + incidents4[3]
	innerShare := incidents4[1] + incidents4[2]
	if outerShare < innerShare*1.3 {
		t.Errorf("Tsubame-3 outer/inner incidents = %.0f/%.0f, want outer considerably higher", outerShare, innerShare)
	}
}

func TestGenerateMultiGPUSameNodeSlotsDistinct(t *testing.T) {
	for _, log := range []*failures.Log{generateT2(t), generateT3(t)} {
		for _, r := range log.Records() {
			seen := make(map[int]bool)
			for _, g := range r.GPUs {
				if seen[g] {
					t.Fatalf("record %d has duplicate slot %d", r.ID, g)
				}
				seen[g] = true
			}
			if len(r.GPUs) > 0 && r.Node == "" {
				t.Fatalf("record %d involves GPUs but has no node", r.ID)
			}
		}
	}
}

func TestGenerateTTRWithinCaps(t *testing.T) {
	caps := make(map[failures.Category]float64)
	for _, c := range Tsubame2Profile().Categories {
		caps[c.Category] = c.TTR.CapHours
	}
	log := generateT2(t)
	for _, r := range log.Records() {
		if cap, ok := caps[r.Category]; ok && r.Recovery.Hours() > cap+1e-9 {
			t.Errorf("record %d (%s) recovery %.1f h exceeds cap %.1f h", r.ID, r.Category, r.Recovery.Hours(), cap)
		}
		if r.Recovery < 0 {
			t.Errorf("record %d has negative recovery", r.ID)
		}
	}
}

func TestGenerateTemporalClustering(t *testing.T) {
	// Multi-GPU failures on Tsubame-2 should bunch in time (Figure 8):
	// the median gap between consecutive multi-GPU failures is clearly
	// below the evenly-spread expectation.
	log := generateT2(t)
	var gaps []float64
	var prev *failures.Failure
	first, last := 0.0, 0.0
	n := 0
	for _, r := range log.Records() {
		r := r
		if !r.MultiGPU() {
			continue
		}
		if prev != nil {
			gaps = append(gaps, r.Time.Sub(prev.Time).Hours())
		} else {
			first = 0
		}
		last = r.Time.Sub(log.At(0).Time).Hours()
		prev = &r
		n++
	}
	if n < 50 {
		t.Fatalf("only %d multi-GPU failures", n)
	}
	expected := (last - first) / float64(len(gaps))
	// Median of gaps:
	med := medianOf(gaps)
	if med > 0.8*expected {
		t.Errorf("median multi-GPU gap %.1f h vs uniform expectation %.1f h: clustering too weak", med, expected)
	}
}

func medianOf(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func TestGenerateSeasonalTTRT2(t *testing.T) {
	// Tsubame-2's recovery times are elevated in the second half of the
	// year (Figure 11). Aggregate across seeds to beat the tail noise.
	var firstSum, firstN, secondSum, secondN float64
	for seed := int64(1); seed <= 6; seed++ {
		log, err := Generate(Tsubame2Profile(), seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range log.Records() {
			if r.Time.Month() <= 6 {
				firstSum += r.Recovery.Hours()
				firstN++
			} else {
				secondSum += r.Recovery.Hours()
				secondN++
			}
		}
	}
	ratio := (secondSum / secondN) / (firstSum / firstN)
	if ratio < 1.08 {
		t.Errorf("Tsubame-2 second-half/first-half TTR ratio = %.2f, want clearly > 1", ratio)
	}
}

func TestGenerateBoth(t *testing.T) {
	t2, t3, err := GenerateBoth(1)
	if err != nil {
		t.Fatal(err)
	}
	if t2.System() != failures.Tsubame2 || t3.System() != failures.Tsubame3 {
		t.Error("GenerateBoth returned wrong systems")
	}
	if t2.Len() != 897 || t3.Len() != 338 {
		t.Errorf("sizes = %d, %d", t2.Len(), t3.Len())
	}
}

func TestProfileFor(t *testing.T) {
	p, err := ProfileFor(failures.Tsubame2)
	if err != nil || p.Name != "tsubame2" {
		t.Errorf("ProfileFor(T2) = %v, %v", p, err)
	}
	if _, err := ProfileFor(failures.System(9)); err == nil {
		t.Error("unknown system should fail")
	}
}

func TestLargestRemainder(t *testing.T) {
	tests := []struct {
		name    string
		weights []float64
		total   int
		want    []int
	}{
		{"exact thirds", []float64{1, 1, 1}, 9, []int{3, 3, 3}},
		{"remainders", []float64{0.5, 0.3, 0.2}, 10, []int{5, 3, 2}},
		{"rounding", []float64{1, 1, 1}, 10, []int{4, 3, 3}},
		{"zero total", []float64{1, 2}, 0, []int{0, 0}},
		{"single weight", []float64{7}, 5, []int{5}},
		{"zero weight gets nothing", []float64{1, 0}, 4, []int{4, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := LargestRemainder(tt.weights, tt.total)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("counts = %v, want %v", got, tt.want)
				}
				sum += got[i]
			}
			if sum != tt.total {
				t.Errorf("counts sum to %d, want %d", sum, tt.total)
			}
		})
	}
	if _, err := LargestRemainder([]float64{-1}, 5); err == nil {
		t.Error("negative weight should fail")
	}
	if _, err := LargestRemainder([]float64{0, 0}, 5); err == nil {
		t.Error("all-zero weights with positive total should fail")
	}
	if _, err := LargestRemainder([]float64{1}, -1); err == nil {
		t.Error("negative total should fail")
	}
}

func TestGenerateRackSkew(t *testing.T) {
	// 20% of racks carry a 3x boost: the busiest 20% of racks must hold
	// clearly more than their proportional share of node-attributable
	// failures.
	p := Tsubame2Profile()
	log, err := Generate(p, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	racks := (p.NodeCount + p.NodesPerRack - 1) / p.NodesPerRack
	counts := make([]int, racks)
	total := 0
	for node, c := range log.ByNode() {
		idx := 0
		for _, ch := range node[1:] {
			idx = idx*10 + int(ch-'0')
		}
		counts[idx/p.NodesPerRack] += c
		total += c
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top := racks / 5
	var topSum int
	for i := 0; i < top; i++ {
		topSum += counts[i]
	}
	share := float64(topSum) / float64(total)
	// With a 3x boost on 20% of racks the expected hot share is
	// 0.2*3/(0.2*3+0.8) = 43%; allow sampling slack but demand real skew.
	if share < 0.30 {
		t.Errorf("top-20%% racks carry %.1f%%, want clearly above 20%%", 100*share)
	}
}

func TestGenerateRackSkewOff(t *testing.T) {
	// Boost 1 disables the skew: top-20% share falls near proportional.
	p := Tsubame2Profile()
	p.HotRackBoost = 1
	log, err := Generate(p, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	racks := (p.NodeCount + p.NodesPerRack - 1) / p.NodesPerRack
	counts := make([]int, racks)
	total := 0
	for node, c := range log.ByNode() {
		idx := 0
		for _, ch := range node[1:] {
			idx = idx*10 + int(ch-'0')
		}
		counts[idx/p.NodesPerRack] += c
		total += c
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	top := racks / 5
	var topSum int
	for i := 0; i < top; i++ {
		topSum += counts[i]
	}
	share := float64(topSum) / float64(total)
	if share > 0.40 {
		t.Errorf("unskewed top-20%% racks carry %.1f%%, expected near-proportional", 100*share)
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	for _, p := range []*Profile{Tsubame2Profile(), Tsubame3Profile()} {
		var buf bytes.Buffer
		if err := WriteProfile(&buf, p); err != nil {
			t.Fatalf("%s write: %v", p.Name, err)
		}
		back, err := ReadProfile(&buf)
		if err != nil {
			t.Fatalf("%s read: %v", p.Name, err)
		}
		if back.Name != p.Name || back.TotalFailures() != p.TotalFailures() ||
			back.TBFShape != p.TBFShape || back.NodeCount != p.NodeCount {
			t.Errorf("%s round trip changed headline fields", p.Name)
		}
		if len(back.Categories) != len(p.Categories) {
			t.Fatalf("%s round trip changed category count", p.Name)
		}
		for i := range p.Categories {
			if back.Categories[i] != p.Categories[i] {
				t.Errorf("%s category %d changed: %+v vs %+v", p.Name, i, back.Categories[i], p.Categories[i])
			}
		}
		// The round-tripped profile generates an identical log.
		a, err := Generate(p, 11)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(back, 11)
		if err != nil {
			t.Fatal(err)
		}
		ra, rb := a.Records(), b.Records()
		for i := range ra {
			if !ra[i].Time.Equal(rb[i].Time) || ra[i].Category != rb[i].Category || ra[i].Node != rb[i].Node {
				t.Fatalf("%s: record %d differs after profile round trip", p.Name, i)
			}
		}
	}
}

func TestReadProfileRejectsBadInput(t *testing.T) {
	if _, err := ReadProfile(strings.NewReader("{not json")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := ReadProfile(strings.NewReader(`{"Unknown": 1}`)); err == nil {
		t.Error("unknown fields should fail")
	}
	// Valid JSON, invalid profile (no categories).
	if _, err := ReadProfile(strings.NewReader(`{"System":1,"Name":"x"}`)); err == nil {
		t.Error("invalid profile should fail validation")
	}
}

func TestWriteProfileRejectsInvalid(t *testing.T) {
	p := Tsubame2Profile()
	p.TBFShape = -1
	var buf bytes.Buffer
	if err := WriteProfile(&buf, p); err == nil {
		t.Error("invalid profile should not serialize")
	}
}

// TestCalibrationRobustAcrossSeeds guards against seed-42 luck: the
// headline marginals must hold on every seed, not just the canonical one.
// Skipped in -short mode (ten full generations).
func TestCalibrationRobustAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed calibration sweep")
	}
	for seed := int64(100); seed < 110; seed++ {
		t2, err := Generate(Tsubame2Profile(), seed)
		if err != nil {
			t.Fatal(err)
		}
		t3, err := Generate(Tsubame3Profile(), seed)
		if err != nil {
			t.Fatal(err)
		}
		mtbf2, _ := t2.MTBFHours()
		mtbf3, _ := t3.MTBFHours()
		if mtbf2 < 13 || mtbf2 > 18 {
			t.Errorf("seed %d: Tsubame-2 MTBF = %.1f", seed, mtbf2)
		}
		if mtbf3 < 65 || mtbf3 > 80 {
			t.Errorf("seed %d: Tsubame-3 MTBF = %.1f", seed, mtbf3)
		}
		if t2.Len() != 897 || t3.Len() != 338 {
			t.Errorf("seed %d: sizes %d/%d", seed, t2.Len(), t3.Len())
		}
		// Node histogram headline shares (deterministic apportionment
		// keeps these tight on every seed).
		perNode := t2.ByNode()
		singles, total := 0, 0
		for _, c := range perNode {
			if c == 1 {
				singles++
			}
			total++
		}
		share := 100 * float64(singles) / float64(total)
		if math.Abs(share-60) > 3 {
			t.Errorf("seed %d: single-failure share = %.1f%%", seed, share)
		}
		// Involvement fractions are exact multisets on every seed.
		multi, gpu := 0, 0
		for _, r := range t2.Records() {
			if r.Category == failures.CatGPU {
				gpu++
				if len(r.GPUs) >= 2 {
					multi++
				}
			}
		}
		if p := 100 * float64(multi) / float64(gpu); math.Abs(p-69.56) > 0.5 {
			t.Errorf("seed %d: multi-GPU share = %.2f%%", seed, p)
		}
	}
}
