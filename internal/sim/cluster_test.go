package sim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/synth"
)

func mustExp(t *testing.T, mean float64) dist.Distribution {
	t.Helper()
	d, err := dist.NewExponential(mean)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func baseConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Nodes:        100,
		HorizonHours: 10000,
		Processes: []FailureProcess{
			{Category: failures.CatGPU, Interarrival: mustExp(t, 20), Repair: mustExp(t, 5)},
			{Category: failures.CatMemory, Interarrival: mustExp(t, 200), Repair: mustExp(t, 10)},
		},
		Seed: 42,
	}
}

func TestRunValidation(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"no nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero horizon", func(c *Config) { c.HorizonHours = 0 }},
		{"no processes", func(c *Config) { c.Processes = nil }},
		{"nil distribution", func(c *Config) { c.Processes[0].Repair = nil }},
		{"duplicate category", func(c *Config) { c.Processes[1].Category = c.Processes[0].Category }},
		{"negative crews", func(c *Config) { c.Crews = -1 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := baseConfig(t)
			tt.mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("expected validation error")
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if a.Failures != b.Failures || a.NodeHoursLost != b.NodeHoursLost || a.MeanRepairWait != b.MeanRepairWait {
		t.Errorf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestRunFailureCountsMatchRates(t *testing.T) {
	res, err := Run(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// GPU: horizon/mean = 10000/20 = 500 expected; Memory: 50 expected.
	gpu := res.PerCategory[failures.CatGPU].Failures
	if gpu < 400 || gpu > 600 {
		t.Errorf("GPU failures = %d, want ~500", gpu)
	}
	mem := res.PerCategory[failures.CatMemory].Failures
	if mem < 30 || mem > 70 {
		t.Errorf("Memory failures = %d, want ~50", mem)
	}
	if res.Failures != gpu+mem {
		t.Errorf("total %d != %d + %d", res.Failures, gpu, mem)
	}
}

func TestRunAvailabilityReasonable(t *testing.T) {
	res, err := Run(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	// ~550 failures x ~5.5h mean repair over 100 nodes x 10000 h:
	// ~3000 lost node-hours -> availability ~0.997.
	if res.Availability < 0.99 || res.Availability >= 1 {
		t.Errorf("availability = %v, want ~0.997", res.Availability)
	}
	if res.NodeHoursLost <= 0 {
		t.Error("downtime should be positive")
	}
}

func TestRunUnlimitedCrewsNoWait(t *testing.T) {
	res, err := Run(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanRepairWait != 0 {
		t.Errorf("unlimited crews should never queue, wait = %v", res.MeanRepairWait)
	}
	if res.PeakQueue > 1 {
		t.Errorf("peak queue = %d with immediate dispatch, want <= 1", res.PeakQueue)
	}
}

func TestRunScarceCrewsCreateWait(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Crews = 1
	// Make repairs slow relative to arrivals so the single crew saturates.
	cfg.Processes = []FailureProcess{
		{Category: failures.CatGPU, Interarrival: mustExp(t, 20), Repair: mustExp(t, 30)},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanRepairWait <= 0 {
		t.Error("a saturated single crew must create queueing delay")
	}
	if res.PeakQueue < 2 {
		t.Errorf("peak queue = %d, want >= 2", res.PeakQueue)
	}
	// More crews must not increase waiting.
	cfg2 := cfg
	cfg2.Crews = 10
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.MeanRepairWait >= res.MeanRepairWait {
		t.Errorf("10 crews wait %v >= 1 crew wait %v", res2.MeanRepairWait, res.MeanRepairWait)
	}
}

func TestRunMeanTimeToRestoreExceedsRepair(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Crews = 1
	cfg.Processes = []FailureProcess{
		{Category: failures.CatGPU, Interarrival: mustExp(t, 10), Repair: mustExp(t, 20)},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanTimeToRestore <= res.MeanRepairWait {
		t.Errorf("restore %v should exceed wait %v", res.MeanTimeToRestore, res.MeanRepairWait)
	}
}

type stubParts struct {
	observed int
	wait     float64
}

func (s *stubParts) Observe(failures.Category, float64) { s.observed++ }
func (s *stubParts) Acquire(failures.Category, float64) float64 {
	return s.wait
}

func TestRunPartsPolicyHooks(t *testing.T) {
	cfg := baseConfig(t)
	parts := &stubParts{wait: 2}
	cfg.Parts = parts
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if parts.observed != res.Failures {
		t.Errorf("Observe called %d times for %d failures", parts.observed, res.Failures)
	}
	if res.MeanRepairWait < 1.9 {
		t.Errorf("mean wait = %v, want ~2 (parts wait)", res.MeanRepairWait)
	}
}

func TestProcessesFromLog(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame2Profile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := ProcessesFromLog(log, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(procs) < 5 {
		t.Fatalf("only %d processes fitted", len(procs))
	}
	seen := make(map[failures.Category]bool)
	for _, p := range procs {
		if seen[p.Category] {
			t.Errorf("duplicate process %s", p.Category)
		}
		seen[p.Category] = true
		if p.Interarrival == nil || p.Repair == nil {
			t.Errorf("process %s missing distributions", p.Category)
		}
	}
	if !seen[failures.CatGPU] {
		t.Error("GPU process missing")
	}
	// GPU inter-arrival mean should reflect the sub-log MTBF (~34 h for
	// 398 failures over ~13700 h).
	for _, p := range procs {
		if p.Category == failures.CatGPU {
			if m := p.Interarrival.Mean(); m < 25 || m > 45 {
				t.Errorf("fitted GPU inter-arrival mean = %v, want ~34", m)
			}
		}
	}
	// End-to-end: the fitted processes drive a simulation.
	res, err := Run(Config{Nodes: 1408, GPUsPerNode: 3, HorizonHours: 5000, Processes: procs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Error("fitted simulation produced no failures")
	}
	if res.Availability <= 0 || res.Availability > 1 {
		t.Errorf("availability = %v", res.Availability)
	}
}

func TestProcessesFromLogErrors(t *testing.T) {
	empty, err := failures.NewLog(failures.Tsubame2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ProcessesFromLog(empty, 3); err == nil {
		t.Error("empty log should fail")
	}
}

func TestRunSimulatedMTTRTracksRepairDist(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Processes = []FailureProcess{
		{Category: failures.CatGPU, Interarrival: mustExp(t, 50), Repair: mustExp(t, 55)},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	perCat := res.PerCategory[failures.CatGPU]
	meanRepair := perCat.RepairHours / float64(perCat.Failures)
	if math.Abs(meanRepair-55) > 12 {
		t.Errorf("mean simulated repair = %v, want ~55 (the paper's MTTR)", meanRepair)
	}
}

func mustPoint(t *testing.T, v float64) dist.Distribution {
	t.Helper()
	d, err := dist.NewPoint(v)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRunDeterministicInjection drives the simulator with point-mass
// schedules so every quantity is exactly checkable: one node, a failure
// every 100 h repaired in 10 h, over 1000 h.
func TestRunDeterministicInjection(t *testing.T) {
	cfg := Config{
		Nodes:        1,
		HorizonHours: 1000,
		Processes: []FailureProcess{
			{Category: failures.CatGPU, Interarrival: mustPoint(t, 100), Repair: mustPoint(t, 10)},
		},
		Seed: 1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Failures at t=100, 200, ..., 1000: exactly 10.
	if res.Failures != 10 {
		t.Errorf("failures = %d, want 10", res.Failures)
	}
	// Repairs at 110..910 complete inside the horizon; the one started at
	// t=1000 does not.
	if res.CompletedRepairs != 9 {
		t.Errorf("completed repairs = %d, want 9", res.CompletedRepairs)
	}
	// Downtime: nine full 10 h repairs + 0 h of the final one (it starts
	// exactly at the horizon).
	if math.Abs(res.NodeHoursLost-90) > 1e-9 {
		t.Errorf("node-hours lost = %v, want 90", res.NodeHoursLost)
	}
	if math.Abs(res.Availability-0.91) > 1e-9 {
		t.Errorf("availability = %v, want 0.91", res.Availability)
	}
	if res.MeanRepairWait != 0 {
		t.Errorf("mean wait = %v, want 0 (unlimited crews)", res.MeanRepairWait)
	}
	if math.Abs(res.MeanTimeToRestore-10) > 1e-9 {
		t.Errorf("mean restore = %v, want 10", res.MeanTimeToRestore)
	}
}

// TestRunInjectionWithSingleCrew verifies exact queueing arithmetic: two
// interleaved failure streams, one crew.
func TestRunInjectionWithSingleCrew(t *testing.T) {
	cfg := Config{
		Nodes:        2,
		HorizonHours: 200,
		Processes: []FailureProcess{
			// Stream A: failure at t=50 (then 150 outside useful range),
			// repairs take 30.
			{Category: failures.CatGPU, Interarrival: mustPoint(t, 50), Repair: mustPoint(t, 30)},
			// Stream B: failure at t=60, repair 30; must wait for the crew
			// until t=80.
			{Category: failures.CatMemory, Interarrival: mustPoint(t, 60), Repair: mustPoint(t, 30)},
		},
		Crews: 1,
		Seed:  1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// GPU failures at 50, 100, 150, 200; Memory at 60, 120, 180.
	if res.Failures != 7 {
		t.Errorf("failures = %d, want 7", res.Failures)
	}
	// The crew serializes everything: busy [50,80] GPU, [80,110] Mem(60),
	// [110,140] GPU(100), [140,170] Mem(120), [170,200] GPU(150): five
	// repairs complete by t=200; Mem(180) and GPU(200) stay queued.
	if res.CompletedRepairs != 5 {
		t.Errorf("completed repairs = %d, want 5", res.CompletedRepairs)
	}
	gpu := res.PerCategory[failures.CatGPU]
	mem := res.PerCategory[failures.CatMemory]
	// Wait hours accrue when a repair begins: GPU(50): 0, GPU(100): 10,
	// GPU(150): 20 (GPU(200) never begins); Mem(60): 20, Mem(120): 20,
	// and Mem(180) begins exactly at the horizon with wait 20.
	if math.Abs(gpu.WaitHours-30) > 1e-9 {
		t.Errorf("GPU wait hours = %v, want 30", gpu.WaitHours)
	}
	if math.Abs(mem.WaitHours-60) > 1e-9 {
		t.Errorf("Memory wait hours = %v, want 60", mem.WaitHours)
	}
	if res.PeakQueue < 2 {
		t.Errorf("peak queue = %d, want >= 2", res.PeakQueue)
	}
}

func TestProactiveRecoveryValidation(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Proactive = &ProactiveRecovery{WindowHours: 0, Factor: 0.5}
	if _, err := Run(cfg); err == nil {
		t.Error("zero window should fail")
	}
	cfg.Proactive = &ProactiveRecovery{WindowHours: 10, Factor: 0}
	if _, err := Run(cfg); err == nil {
		t.Error("zero factor should fail")
	}
	cfg.Proactive = &ProactiveRecovery{WindowHours: 10, Factor: 1.5}
	if _, err := Run(cfg); err == nil {
		t.Error("factor above 1 should fail")
	}
}

func TestProactiveRecoveryDeterministic(t *testing.T) {
	// Failures every 100 h with a 150 h alarm window: every failure after
	// the first arrives under an alarm and repairs at half duration.
	cfg := Config{
		Nodes:        1,
		HorizonHours: 1000,
		Processes: []FailureProcess{
			{Category: failures.CatGPU, Interarrival: mustPoint(t, 100), Repair: mustPoint(t, 10)},
		},
		Proactive: &ProactiveRecovery{WindowHours: 150, Factor: 0.5},
		Seed:      1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiscountedRepairs != 9 {
		t.Errorf("discounted repairs = %d, want 9 (all but the first)", res.DiscountedRepairs)
	}
	// Downtime: first repair 10 h, then eight discounted 5 h repairs
	// complete in-horizon, plus the one begun at t=1000 contributing 0.
	if math.Abs(res.NodeHoursLost-50) > 1e-9 {
		t.Errorf("node-hours lost = %v, want 50", res.NodeHoursLost)
	}
}

func TestProactiveRecoveryImprovesAvailability(t *testing.T) {
	// Bursty arrivals (hyperexponential via mixture) make the alarm
	// useful: many failures arrive within the window of the previous one.
	burst, err := dist.NewExponential(5)
	if err != nil {
		t.Fatal(err)
	}
	calm, err := dist.NewExponential(100)
	if err != nil {
		t.Fatal(err)
	}
	inter, err := dist.NewMixture([]dist.Distribution{burst, calm}, []float64{0.4, 0.6})
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Nodes:        100,
		HorizonHours: 50000,
		Processes: []FailureProcess{
			{Category: failures.CatGPU, Interarrival: inter, Repair: mustExp(t, 30)},
		},
		Seed: 42,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withAlarm := base
	withAlarm.Proactive = &ProactiveRecovery{WindowHours: 24, Factor: 0.4}
	proactive, err := Run(withAlarm)
	if err != nil {
		t.Fatal(err)
	}
	if proactive.DiscountedRepairs == 0 {
		t.Fatal("no repairs discounted on a bursty stream")
	}
	if proactive.NodeHoursLost >= plain.NodeHoursLost {
		t.Errorf("proactive downtime %v should beat plain %v",
			proactive.NodeHoursLost, plain.NodeHoursLost)
	}
}

func TestRackScopedFailures(t *testing.T) {
	// One rack failure at t=100 repaired in 10 h on a 20-node fleet with
	// 5 nodes per rack: exactly 5 nodes x 10 h = 50 node-hours lost.
	cfg := Config{
		Nodes:        20,
		NodesPerRack: 5,
		HorizonHours: 150,
		Processes: []FailureProcess{
			{Category: failures.CatRack, Interarrival: mustPoint(t, 100), Repair: mustPoint(t, 10), Scope: ScopeRack},
		},
		Seed: 1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 1 {
		t.Fatalf("failures = %d, want 1", res.Failures)
	}
	if math.Abs(res.NodeHoursLost-50) > 1e-9 {
		t.Errorf("node-hours lost = %v, want 50 (5 nodes x 10 h)", res.NodeHoursLost)
	}
	if math.Abs(res.Availability-(1-50.0/(20*150))) > 1e-9 {
		t.Errorf("availability = %v", res.Availability)
	}
}

func TestRackScopeValidation(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Processes[0].Scope = ScopeRack // NodesPerRack unset
	if _, err := Run(cfg); err == nil {
		t.Error("rack scope without NodesPerRack should fail")
	}
	cfg = baseConfig(t)
	cfg.Processes[0].Scope = Scope(9)
	if _, err := Run(cfg); err == nil {
		t.Error("unknown scope should fail")
	}
}

func TestRackScopePartialLastRack(t *testing.T) {
	// 7 nodes at 5 per rack: rack 1 holds only nodes 5 and 6. Drive many
	// rack failures and confirm no panic and sane accounting.
	cfg := Config{
		Nodes:        7,
		NodesPerRack: 5,
		HorizonHours: 5000,
		Processes: []FailureProcess{
			{Category: failures.CatRack, Interarrival: mustExp(t, 100), Repair: mustExp(t, 5), Scope: ScopeRack},
		},
		Seed: 3,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures == 0 {
		t.Fatal("no failures generated")
	}
	if res.NodeHoursLost <= 0 || res.Availability <= 0 || res.Availability >= 1 {
		t.Errorf("result = %+v", res)
	}
}

func TestAvailabilitySeries(t *testing.T) {
	// One node, failure at t=100 repaired in 10 h: samples at 0..95 show
	// 0 down, 100 and 105 show 1 down, 110 onward 0 (repair completes
	// exactly at 110 and ends-before-starts ordering counts it up).
	cfg := Config{
		Nodes:        1,
		HorizonHours: 130,
		Processes: []FailureProcess{
			{Category: failures.CatGPU, Interarrival: mustPoint(t, 100), Repair: mustPoint(t, 10)},
		},
		SampleEveryHours: 5,
		Seed:             1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 27 { // t = 0, 5, ..., 130
		t.Fatalf("series length = %d, want 27", len(res.Series))
	}
	for _, s := range res.Series {
		wantDown := 0
		if s.Hour >= 100 && s.Hour < 110 {
			wantDown = 1
		}
		if s.NodesDown != wantDown {
			t.Errorf("t=%v: nodes down = %d, want %d", s.Hour, s.NodesDown, wantDown)
		}
	}
}

func TestAvailabilitySeriesOffByDefault(t *testing.T) {
	res, err := Run(baseConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 0 {
		t.Errorf("series should be empty without sampling cadence, got %d", len(res.Series))
	}
	cfg := baseConfig(t)
	cfg.SampleEveryHours = -1
	if _, err := Run(cfg); err == nil {
		t.Error("negative cadence should fail")
	}
}

// interval is a node-down span [start, end).
type interval struct{ start, end float64 }

// trackDown feeds spans to a one-node downTracker in start order, the
// order FIFO repair dispatch guarantees.
func trackDown(spans []interval, horizon float64) *downTracker {
	sorted := append([]interval(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	d := newDownTracker(1, horizon, true)
	for _, sp := range sorted {
		d.add(0, sp.start, sp.end)
	}
	return d
}

// TestMergeSpans: the tracker emits the sorted union of the spans as
// disjoint intervals, one +1/-1 edge pair per merged interval.
func TestMergeSpans(t *testing.T) {
	d := trackDown([]interval{{5, 10}, {0, 3}, {9, 12}, {20, 25}}, 100)
	d.total()
	want := []downEdge{{0, +1}, {3, -1}, {5, +1}, {12, -1}, {20, +1}, {25, -1}}
	if len(d.edges) != len(want) {
		t.Fatalf("edges = %v, want %v", d.edges, want)
	}
	for i := range want {
		if d.edges[i] != want[i] {
			t.Fatalf("edges = %v, want %v", d.edges, want)
		}
	}
	d = trackDown(nil, 100)
	if d.total() != 0 || d.edges != nil {
		t.Error("empty union should emit nothing")
	}
}

func TestInvolvementAccounting(t *testing.T) {
	// Every failure takes down exactly 2 cards, repairs take exactly 10 h:
	// card incidents = 2 x failures, card-hours = 20 x failures.
	cfg := Config{
		Nodes:        10,
		GPUsPerNode:  3,
		HorizonHours: 1000,
		Processes: []FailureProcess{
			{
				Category:     failures.CatGPU,
				Interarrival: mustPoint(t, 100),
				Repair:       mustPoint(t, 10),
				Involvement:  []float64{0, 1, 0},
			},
		},
		Seed: 1,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.GPUCardIncidents != 2*res.BegunRepairs {
		t.Errorf("card incidents = %d, want %d", res.GPUCardIncidents, 2*res.BegunRepairs)
	}
	if math.Abs(res.GPUCardHoursLost-float64(20*res.BegunRepairs)) > 1e-9 {
		t.Errorf("card-hours = %v, want %v", res.GPUCardHoursLost, 20*res.BegunRepairs)
	}
}

func TestInvolvementValidation(t *testing.T) {
	cfg := baseConfig(t)
	cfg.Processes[0].Involvement = []float64{0.5, 0.5}
	if _, err := Run(cfg); err == nil {
		t.Error("involvement without GPUsPerNode should fail")
	}
	cfg.GPUsPerNode = 3
	cfg.Processes[0].Involvement = []float64{0.5, 0.4}
	if _, err := Run(cfg); err == nil {
		t.Error("non-normalized involvement should fail")
	}
	cfg.Processes[0].Involvement = []float64{1.5, -0.5}
	if _, err := Run(cfg); err == nil {
		t.Error("negative involvement entry should fail")
	}
}

func TestProcessesFromLogCarriesInvolvement(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame2Profile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	procs, err := ProcessesFromLog(log, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		if p.Category != failures.CatGPU {
			continue
		}
		if len(p.Involvement) != 3 {
			t.Fatalf("GPU involvement PMF = %v", p.Involvement)
		}
		// Table III fractions survive the fit.
		if math.Abs(p.Involvement[0]-0.3044) > 0.02 {
			t.Errorf("1-card share = %v, want ~0.304", p.Involvement[0])
		}
		if math.Abs(p.Involvement[2]-0.3478) > 0.02 {
			t.Errorf("3-card share = %v, want ~0.348", p.Involvement[2])
		}
	}
}

// TestRunInvariantsProperty fuzzes configurations and checks the
// simulator's global invariants: availability in [0, 1], downtime bounded
// by fleet capacity, completions never exceed begun repairs, and per-
// category failures summing to the total.
func TestRunInvariantsProperty(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := dist.NewRNG(seed)
		nodes := 1 + rng.Intn(200)
		horizon := 100 + rng.Float64()*5000
		nProcs := 1 + rng.Intn(4)
		cats := []failures.Category{failures.CatGPU, failures.CatMemory, failures.CatDisk, failures.CatFan}
		var procs []FailureProcess
		for i := 0; i < nProcs; i++ {
			inter, err := dist.NewExponential(5 + rng.Float64()*200)
			if err != nil {
				t.Fatal(err)
			}
			repair, err := dist.NewExponential(1 + rng.Float64()*80)
			if err != nil {
				t.Fatal(err)
			}
			procs = append(procs, FailureProcess{Category: cats[i], Interarrival: inter, Repair: repair})
		}
		cfg := Config{
			Nodes:        nodes,
			HorizonHours: horizon,
			Processes:    procs,
			Crews:        rng.Intn(4), // 0..3, including unlimited
			Seed:         seed,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Availability < 0 || res.Availability > 1 {
			t.Errorf("seed %d: availability = %v", seed, res.Availability)
		}
		if res.NodeHoursLost < 0 || res.NodeHoursLost > float64(nodes)*horizon+1e-6 {
			t.Errorf("seed %d: node-hours lost = %v beyond capacity %v", seed, res.NodeHoursLost, float64(nodes)*horizon)
		}
		if res.CompletedRepairs > res.BegunRepairs || res.BegunRepairs > res.Failures {
			t.Errorf("seed %d: completions %d > begun %d > failures %d inconsistent",
				seed, res.CompletedRepairs, res.BegunRepairs, res.Failures)
		}
		var perCat int
		for _, s := range res.PerCategory {
			perCat += s.Failures
			if s.RepairHours < 0 || s.WaitHours < 0 {
				t.Errorf("seed %d: negative per-category hours %+v", seed, s)
			}
		}
		if perCat != res.Failures {
			t.Errorf("seed %d: per-category sum %d != total %d", seed, perCat, res.Failures)
		}
		if res.MeanRepairWait < 0 || res.MeanTimeToRestore < res.MeanRepairWait {
			t.Errorf("seed %d: wait %v / restore %v inconsistent", seed, res.MeanRepairWait, res.MeanTimeToRestore)
		}
	}
}
