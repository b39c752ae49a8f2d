package synth

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/sample"
)

// oracleGenerate is Generate as it stood before the stages wrote into
// the log's own slice: times and the category multiset in their own
// arrays, copied into fresh records, and the result copied and sorted by
// NewLog. The in-place generator must reproduce it exactly.
func oracleGenerate(p *Profile, seed int64) (*failures.Log, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var (
		rngTimes  = dist.Fork(seed, p.Name+"/times")
		rngCats   = dist.Fork(seed, p.Name+"/categories")
		rngTTR    = dist.Fork(seed, p.Name+"/ttr")
		rngNodes  = dist.Fork(seed, p.Name+"/nodes")
		rngGPUs   = dist.Fork(seed, p.Name+"/gpus")
		rngCauses = dist.Fork(seed, p.Name+"/causes")
	)

	n := p.TotalFailures()
	times, err := oracleGenerateTimes(p, n, rngTimes)
	if err != nil {
		return nil, err
	}
	categories := categoryMultiset(p, rngCats)

	records := make([]failures.Failure, n)
	for i := range records {
		records[i] = failures.Failure{
			ID:       i + 1,
			System:   p.System,
			Time:     times[i],
			Category: categories[i],
		}
	}

	if err := assignSoftwareCauses(p, records, rngCauses); err != nil {
		return nil, err
	}
	if err := assignRecoveries(p, records, rngTTR); err != nil {
		return nil, err
	}
	if err := assignNodes(p, records, rngNodes, new(sample.Fenwick)); err != nil {
		return nil, err
	}
	if err := assignGPUs(p, records, rngGPUs); err != nil {
		return nil, err
	}
	return failures.NewLog(p.System, records)
}

func oracleGenerateTimes(p *Profile, n int, rng *rand.Rand) ([]time.Time, error) {
	w, err := dist.NewWeibull(p.TBFShape, 1)
	if err != nil {
		return nil, err
	}
	cum := make([]float64, n)
	for i := 1; i < n; i++ {
		cum[i] = cum[i-1] + w.Sample(rng)
	}
	total := cum[n-1]
	if !(total > 0) {
		return nil, fmt.Errorf("synth: degenerate gap sequence")
	}
	warp := newSeasonalWarp(p.Start, p.End, p.MonthlyCountWeights)
	times := make([]time.Time, n)
	for i := range times {
		times[i] = warp.At(cum[i] / total)
	}
	return times, nil
}

// categoryMultiset returns the exact category mix in random order.
func categoryMultiset(p *Profile, rng *rand.Rand) []failures.Category {
	out := make([]failures.Category, 0, p.TotalFailures())
	for _, c := range p.Categories {
		for i := 0; i < c.Count; i++ {
			out = append(out, c.Category)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// scaledT3 is the Tsubame-3 profile with every count, the fleet and the
// software-on-multi-node target multiplied by factor.
func scaledT3(factor int) *Profile {
	p := Tsubame3Profile()
	for i := range p.Categories {
		p.Categories[i].Count *= factor
	}
	for i := range p.SoftwareCauses {
		p.SoftwareCauses[i].Count *= factor
	}
	p.NodeCount *= factor
	p.SoftwareOnMultiNodes *= factor
	return p
}

// TestGenerateMatchesOracle is the in-place generator's identity claim:
// for both systems at several seeds, a fleet-scale profile, a window
// given in +09:00 (whose first month and last record come out of the
// warp in that zone, so the log must sort and normalize them) and a
// single-category profile, Generate returns the oracle's log.
func TestGenerateMatchesOracle(t *testing.T) {
	jst := time.FixedZone("JST", 9*3600)
	zoned := Tsubame2Profile()
	zoned.Start = time.Date(2012, time.January, 1, 0, 0, 0, 0, jst)
	zoned.End = time.Date(2013, time.June, 15, 12, 0, 0, 0, jst)
	single := Tsubame3Profile()
	single.Categories = single.Categories[1:2] // GPU alone
	single.SoftwareCauses = nil
	if err := single.Validate(); err != nil {
		t.Fatal(err)
	}
	type tc struct {
		name string
		p    *Profile
		seed int64
	}
	cases := []tc{{"t3 x296", scaledT3(296), 42}, {"t2 +09:00", zoned, 7}, {"t3 GPU only", single, 3}}
	for _, seed := range []int64{1, 7, 42, 1234} {
		cases = append(cases, tc{"t2", Tsubame2Profile(), seed}, tc{"t3", Tsubame3Profile(), seed})
	}
	for _, c := range cases {
		want, err := oracleGenerate(c.p, c.seed)
		if err != nil {
			t.Fatalf("%s seed %d: oracle: %v", c.name, c.seed, err)
		}
		got, err := Generate(c.p, c.seed)
		if err != nil {
			t.Fatalf("%s seed %d: %v", c.name, c.seed, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s seed %d: Generate differs from the oracle", c.name, c.seed)
		}
	}
}

// TestGenerateAllocBound pins Generate's memory: the records are built
// in the slice the log keeps, with every stage's scratch sized exactly,
// so one generation of the ×296 Tsubame-3 profile (100,048 records)
// allocates 1.79 record slices in all, against 4.41 when the times and
// categories had their own arrays and NewLog copied the result. The
// bound of 2 fails when the node, software-cause or node-slot lists go
// back to growing by append.
func TestGenerateAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	p := scaledT3(296)
	if _, err := Generate(p, 42); err != nil {
		t.Fatal(err)
	}
	// Generate builds its own node sampler, so the count always includes
	// its Fenwick tree.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	log, err := Generate(p, 42)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	n := log.Len()
	perSlice := float64(n) * float64(unsafe.Sizeof(failures.Failure{}))
	ratio := float64(after.TotalAlloc-before.TotalAlloc) / perSlice
	t.Logf("%d records: %.2f record slices allocated", n, ratio)
	if ratio > 2 {
		t.Errorf("Generate allocated %.2f record slices for %d records, want <= 2", ratio, n)
	}
}

// TestGenerateEachReusesNodeSampler pins the worker-owned node sampler:
// a width-1 GenerateEach over six seeds builds the fleet-sized Fenwick
// tree for the first seed only, even with collections forced between
// seeds, which a sync.Pool-held sampler would not survive. The fleet is
// scaled ×200 against an unscaled failure mix, so the tree dominates
// what one generation allocates.
func TestGenerateEachReusesNodeSampler(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what the runtime allocates")
	}
	p := Tsubame2Profile()
	p.NodeCount *= 200
	treeBytes := uint64(2 * 8 * p.NodeCount) // the tree and the weights, one float64 per node each
	seeds := []int64{1, 2, 3, 4, 5, 6}
	allocs := make([]uint64, 0, len(seeds))
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	last := ms.TotalAlloc
	err := GenerateEach(context.Background(), p, seeds, 1, func(_ int, _ *failures.Log) error {
		runtime.ReadMemStats(&ms)
		allocs = append(allocs, ms.TotalAlloc-last)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		last = ms.TotalAlloc
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("tree %d bytes; allocated per seed: %v", treeBytes, allocs)
	if allocs[0] < treeBytes {
		t.Fatalf("first seed allocated %d bytes, less than the %d-byte tree", allocs[0], treeBytes)
	}
	for i, a := range allocs[1:] {
		if a >= treeBytes/2 {
			t.Errorf("seed %d allocated %d bytes, as if it rebuilt the %d-byte tree", seeds[i+1], a, treeBytes)
		}
	}
}
