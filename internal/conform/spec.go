package conform

import (
	"fmt"
	"math"
	"time"

	"repro/internal/failures"
	"repro/internal/synth"
)

// The anchored profiles below are conform's independent re-statement of
// the published Tsubame-2/3 numbers (Taherin et al., DSN 2021). They are
// deliberately hand-maintained copies of the calibration in
// internal/synth/profile.go — do NOT refactor them to call
// synth.ProfileFor: the gate's power to catch calibration drift depends
// on the generator and the conformance spec having separate copies, so a
// silent edit to one diverges from the other and fails the battery.
// Changing a calibration constant therefore requires touching both files
// and re-justifying the value against the paper (docs/VALIDATION.md).

func date(y int, m time.Month, d int) time.Time {
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// anchoredT2 re-states the Tsubame-2 calibration: 897 failures between
// 2012-01-07 and 2013-08-01 (§II), category mix of Figure 2(a), repair
// models of Figure 10(a)/§III, spatial statistics of Figures 4(a)/5(a),
// Table III involvement, and the seasonal calendars of Figures 11/12(a).
func anchoredT2() *synth.Profile {
	return &synth.Profile{
		System:   failures.Tsubame2,
		Name:     "tsubame2",
		Start:    date(2012, time.January, 7),
		End:      date(2013, time.August, 1),
		TBFShape: 1.0,
		Categories: []synth.CategoryCount{
			{Category: failures.CatGPU, Count: 398, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 34.5, MeanHours: 63.2, CapHours: 400}},
			{Category: failures.CatFan, Count: 90, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 23, MeanHours: 40.2, CapHours: 300}},
			{Category: failures.CatNetwork, Count: 72, NodeAttributable: false, TTR: synth.TTRSpec{MedianHours: 34.5, MeanHours: 57.5, CapHours: 350}},
			{Category: failures.CatOtherSW, Count: 58, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 13.8, MeanHours: 28.7, CapHours: 250}},
			{Category: failures.CatPBS, Count: 40, NodeAttributable: false, TTR: synth.TTRSpec{MedianHours: 9.2, MeanHours: 17.2, CapHours: 150}},
			{Category: failures.CatSSD, Count: 36, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 69, MeanHours: 126.5, CapHours: 290}},
			{Category: failures.CatDisk, Count: 30, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 51.7, MeanHours: 92, CapHours: 350}},
			{Category: failures.CatMemory, Count: 26, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 46, MeanHours: 80.5, CapHours: 350}},
			{Category: failures.CatIB, Count: 25, NodeAttributable: false, TTR: synth.TTRSpec{MedianHours: 40.2, MeanHours: 69, CapHours: 350}},
			{Category: failures.CatBoot, Count: 22, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 11.5, MeanHours: 20.7, CapHours: 150}},
			{Category: failures.CatDown, Count: 22, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 17.2, MeanHours: 32.2, CapHours: 250}},
			{Category: failures.CatOtherHW, Count: 20, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 57.5, MeanHours: 103.5, CapHours: 400}},
			{Category: failures.CatCPU, Count: 16, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 69, MeanHours: 115, CapHours: 400}},
			{Category: failures.CatSystemBoard, Count: 16, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 80.5, MeanHours: 138, CapHours: 400}},
			{Category: failures.CatPSU, Count: 14, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 63.2, MeanHours: 109.2, CapHours: 400}},
			{Category: failures.CatRack, Count: 6, NodeAttributable: false, TTR: synth.TTRSpec{MedianHours: 92, MeanHours: 149.5, CapHours: 400}},
			{Category: failures.CatVM, Count: 6, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 11.5, MeanHours: 18.4, CapHours: 120}},
		},
		NodeCount:       1408,
		NodesPerRack:    32,
		HotRackFraction: 0.2,
		HotRackBoost:    3,
		NodeCountPMF: map[int]float64{
			1: 0.60, 2: 0.10, 3: 0.12, 4: 0.08, 5: 0.06, 6: 0.04,
		},
		SoftwareOnMultiNodes:  1,
		GPUSlotWeights:        []float64{1.0, 1.8, 1.0},
		GPUInvolvementPMF:     []float64{0.3044, 0.3478, 0.3478},
		ClusterFraction:       0.55,
		ClusterWindowHours:    48,
		MonthlyCountWeights:   [12]float64{1.05, 0.90, 1.00, 0.95, 1.05, 1.20, 1.30, 1.25, 1.00, 0.90, 0.85, 0.95},
		MonthlyTTRMultipliers: [12]float64{0.85, 0.85, 0.90, 0.95, 1.00, 1.00, 1.10, 1.15, 1.20, 1.15, 1.10, 1.05},
	}
}

// anchoredT3 re-states the Tsubame-3 calibration: 338 failures between
// 2017-05-09 and 2020-02-22 (§II), category mix of Figure 2(b), software
// root loci of Figure 3, repair models of Figure 10(b)/§III, spatial
// statistics of Figures 4(b)/5(b), Table III involvement, and the flat
// seasonal calendar of Figure 11.
func anchoredT3() *synth.Profile {
	return &synth.Profile{
		System:   failures.Tsubame3,
		Name:     "tsubame3",
		Start:    date(2017, time.May, 9),
		End:      date(2020, time.February, 22),
		TBFShape: 0.74,
		Categories: []synth.CategoryCount{
			{Category: failures.CatSoftware, Count: 171, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 20.7, MeanHours: 43.7, CapHours: 300}},
			{Category: failures.CatGPU, Count: 94, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 51.7, MeanHours: 86.2, CapHours: 400}},
			{Category: failures.CatCPU, Count: 11, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 69, MeanHours: 115, CapHours: 400}},
			{Category: failures.CatUnknown, Count: 10, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 28.7, MeanHours: 51.7, CapHours: 300}},
			{Category: failures.CatGPUDriver, Count: 8, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 13.8, MeanHours: 25.3, CapHours: 150}},
			{Category: failures.CatOmniPath, Count: 7, NodeAttributable: false, TTR: synth.TTRSpec{MedianHours: 46, MeanHours: 74.8, CapHours: 350}},
			{Category: failures.CatLustre, Count: 6, NodeAttributable: false, TTR: synth.TTRSpec{MedianHours: 23, MeanHours: 46, CapHours: 300}},
			{Category: failures.CatDisk, Count: 6, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 57.5, MeanHours: 97.7, CapHours: 350}},
			{Category: failures.CatMemory, Count: 5, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 51.7, MeanHours: 86.2, CapHours: 350}},
			{Category: failures.CatCRC, Count: 4, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 40.2, MeanHours: 69, CapHours: 300}},
			{Category: failures.CatIPMotherboard, Count: 3, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 74.8, MeanHours: 126.5, CapHours: 400}},
			{Category: failures.CatPowerBoard, Count: 3, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 103.5, MeanHours: 161, CapHours: 230}},
			{Category: failures.CatSXM2Cable, Count: 3, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 63.2, MeanHours: 103.5, CapHours: 400}},
			{Category: failures.CatSXM2Board, Count: 3, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 80.5, MeanHours: 132.2, CapHours: 400}},
			{Category: failures.CatLedFrontPanel, Count: 2, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 34.5, MeanHours: 57.5, CapHours: 250}},
			{Category: failures.CatRibbonCable, Count: 2, NodeAttributable: true, TTR: synth.TTRSpec{MedianHours: 57.5, MeanHours: 92, CapHours: 350}},
		},
		SoftwareCauses: []synth.CauseCount{
			{Cause: failures.CauseGPUDriver, Count: 74},
			{Cause: failures.CauseUnknown, Count: 34},
			{Cause: failures.CauseOmniPathDriver, Count: 10},
			{Cause: failures.CauseGPUDirect, Count: 8},
			{Cause: failures.CauseCUDAMismatch, Count: 7},
			{Cause: failures.CauseLustreClient, Count: 6},
			{Cause: failures.CauseMPIRuntime, Count: 5},
			{Cause: failures.CauseScheduler, Count: 5},
			{Cause: failures.CauseFilesystemMount, Count: 4},
			{Cause: failures.CauseNFS, Count: 4},
			{Cause: failures.CauseOSUpdate, Count: 3},
			{Cause: failures.CauseKernelPanic, Count: 3},
			{Cause: failures.CauseFirmware, Count: 3},
			{Cause: failures.CauseContainer, Count: 2},
			{Cause: failures.CauseSecurityPatch, Count: 2},
			{Cause: failures.CauseAuthentication, Count: 1},
		},
		NodeCount:       540,
		NodesPerRack:    36,
		HotRackFraction: 0.2,
		HotRackBoost:    3,
		NodeCountPMF: map[int]float64{
			1: 0.40, 2: 0.10, 3: 0.18, 4: 0.14, 5: 0.10, 6: 0.08,
		},
		SoftwareOnMultiNodes:  95,
		GPUSlotWeights:        []float64{1.50, 0.75, 0.75, 1.50},
		GPUInvolvementPMF:     []float64{0.926, 0.0495, 0.0245, 0},
		ClusterFraction:       0.50,
		ClusterWindowHours:    72,
		MonthlyCountWeights:   [12]float64{0.95, 1.00, 1.10, 1.05, 1.20, 1.00, 0.90, 0.95, 1.00, 1.10, 0.85, 0.90},
		MonthlyTTRMultipliers: [12]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1},
	}
}

// SpecFor returns the conformance battery of a system.
func SpecFor(s failures.System) (*Spec, error) {
	switch s {
	case failures.Tsubame2:
		return tsubame2Spec(), nil
	case failures.Tsubame3:
		return tsubame3Spec(), nil
	default:
		return nil, fmt.Errorf("conform: no conformance spec for system %d", int(s))
	}
}

// tsubame2Spec builds the Tsubame-2 battery.
func tsubame2Spec() *Spec {
	a := anchoredT2()
	s := &Spec{
		System:   failures.Tsubame2,
		anchored: a,
		warp:     synth.NewWarp(a.Start, a.End, a.MonthlyCountWeights),
		ttrCats:  []failures.Category{failures.CatGPU, failures.CatSSD},
	}

	s.checks = pinChecks(a, map[string]string{
		"window":          "§II-B: failure data from Jan 2012 to Aug 2013",
		"tbf-shape":       "Fig. 6(a): TBF consistent with an exponential fit (Weibull shape 1.0)",
		"category-mix":    "Fig. 2(a) and Fig. 10(a): category shares and repair-time boxplots",
		"fleet":           "Table I: 1408 compute nodes with 3 GPUs each",
		"node-pmf":        "Fig. 4(a): failures-per-node histogram",
		"sw-on-multi":     "§III-D: only one software failure occurred on a multi-failure node",
		"slot-weights":    "Fig. 5(a): GPU slot 1 fails ~20% more than slots 0 and 2",
		"involvement-pmf": "Table III: 30.44%/34.78%/34.78% one/two/three-GPU involvement",
		"cluster":         "Fig. 8: multi-GPU failures cluster in time",
		"monthly-weights": "Fig. 12(a): monthly failure-count variation (estimated calibration, pinned)",
		"ttr-multipliers": "Fig. 11: repair times elevated in the second half of the year",
	})

	s.checks = append(s.checks,
		countCheck(897, "§II-B: 897 failure events on Tsubame-2"),
		windowCheck("§II-B: failure data from Jan 2012 to Aug 2013"),
		headlineCatsCheck(map[failures.Category]int{
			failures.CatGPU: 398,
			failures.CatCPU: 16,
			failures.CatSSD: 36,
		}, "Fig. 2(a): GPU 44.37% (398), CPU 1.78% (16), SSD ~4% (36)"),
		ttrCapsCheck(anchoredCaps(a), "Fig. 10(a): repair-time ranges per category (SSD reaching ~290 h)"),
		swOnMultiCheck(1, 1, "§III-D: only one software failure on a multi-failure node", "exactly 1"),
		noOverInvolvementCheck(3, "Table III: at most three GPUs involved per failure"),

		catChisqSeedCheck(a, "Fig. 2(a): category mix"),
		tbfKSSeedCheck(a.TBFShape, "Fig. 6(a): TBF distribution, exponential fit"),

		catChisqPooledCheck(a, "Fig. 2(a): category mix"),
		mtbfBandCheck(13, 18, "§III-B: MTBF ~15 h"),
		mttrBandCheck(48, 62, "§III-C: MTTR ~55 h"),
		tbfKSPooledCheck(a.TBFShape, "Fig. 6(a): TBF distribution, exponential fit"),
		tbfShapePooledCheck(a.TBFShape, 0.10, "Fig. 6(a): Weibull shape of the TBF fit"),
		ttrKSPooledCheck(failures.CatGPU, 34.5, 63.2, 400, "Fig. 10(a): GPU repair-time distribution"),
		ttrMeanBandCheck(failures.CatSSD, 70, 95, "§III-C: SSD repairs are the longest, reaching ~290 h"),
		slotChisqPooledCheck(a, 0, "Fig. 5(a): per-slot GPU failure skew"),
		slotRatioBandCheck("pooled-slot-ratio", func(in []float64) float64 {
			if len(in) != 3 {
				return math.NaN()
			}
			return in[1] / ((in[0] + in[2]) / 2)
		}, 1.08, 1.35, "Fig. 5(a): slot 1 fails ~20% more than slots 0 and 2",
			"pooled middle-slot/outer-slot incident ratio matches the published skew"),
		involvementRatesCheck(a.GPUInvolvementPMF, 1.0, "Table III: simultaneous-GPU involvement shares"),
		nodeShareBandCheck("pooled-node-single", func(ev *seedEval) (float64, float64) {
			return float64(ev.singleNodes), float64(ev.totalNodes)
		}, 0.57, 0.63, "Fig. 4(a): ~60% of affected nodes see exactly one failure",
			"pooled share of affected nodes with exactly one failure"),
		nodeShareBandCheck("pooled-node-two", func(ev *seedEval) (float64, float64) {
			return float64(ev.twoNodes), float64(ev.totalNodes)
		}, 0.07, 0.13, "Fig. 4(a): ~10% of affected nodes see exactly two failures",
			"pooled share of affected nodes with exactly two failures"),
		monthlyDevCheck(a, 0.10, "Fig. 12(a): monthly failure-count variation"),
		seasonalTTRBandCheck(1.05, 1.35, "Fig. 11: repair times elevated in Jul-Dec on Tsubame-2",
			"pooled second-half repair times are clearly elevated over the first half"),
		clusterBandCheck(0.65, "Fig. 8: multi-GPU failures arrive in temporal clusters"),
	)
	return s
}

// tsubame3Spec builds the Tsubame-3 battery.
func tsubame3Spec() *Spec {
	a := anchoredT3()
	s := &Spec{
		System:   failures.Tsubame3,
		anchored: a,
		warp:     synth.NewWarp(a.Start, a.End, a.MonthlyCountWeights),
		ttrCats:  []failures.Category{failures.CatSoftware, failures.CatGPU},
	}

	s.checks = pinChecks(a, map[string]string{
		"window":          "§II-B: failure data from May 2017 to Feb 2020",
		"tbf-shape":       "Fig. 6(b): TBF with a longer-than-exponential tail (Weibull shape 0.74)",
		"category-mix":    "Fig. 2(b) and Fig. 10(b): category shares and repair-time boxplots",
		"fleet":           "Table I: 540 compute nodes with 4 GPUs each",
		"node-pmf":        "Fig. 4(b): failures-per-node histogram",
		"sw-on-multi":     "§III-D: 95 software failures occurred on multi-failure nodes",
		"slot-weights":    "Fig. 5(b): outer GPU slots (0 and 3) fail considerably more than inner",
		"involvement-pmf": "Table III: 92.6%/4.95%/2.45%/0% one/two/three/four-GPU involvement",
		"cluster":         "Fig. 8: multi-GPU failures cluster in time",
		"monthly-weights": "Fig. 12(b): monthly failure-count variation (estimated calibration, pinned)",
		"ttr-multipliers": "Fig. 11: no seasonal repair-time trend on Tsubame-3",
		"software-causes": "Fig. 3: software root loci (GPU driver ~43%, unknown ~20%)",
	})

	s.checks = append(s.checks,
		countCheck(338, "§II-B: 338 failure events on Tsubame-3"),
		windowCheck("§II-B: failure data from May 2017 to Feb 2020"),
		headlineCatsCheck(map[failures.Category]int{
			failures.CatSoftware: 171,
			failures.CatGPU:      94,
			failures.CatCPU:      11,
		}, "Fig. 2(b): Software 50.59% (171), GPU 27.81% (94), CPU 3.25% (11)"),
		ttrCapsCheck(anchoredCaps(a), "Fig. 10(b): repair-time ranges per category (power board reaching ~230 h)"),
		causesCheck(map[failures.SoftwareCause]int{
			failures.CauseGPUDriver: 74,
			failures.CauseUnknown:   34,
		}, "Fig. 3: GPU driver 74 and unknown 34 of 171 software failures"),
		// The generator places at least the published 95 software failures
		// on multi-failure nodes; the dense Tsubame-3 node reuse forces an
		// overflow above the target (see synth/nodes.go), so the band is
		// anchored below and slack above.
		swOnMultiCheck(95, 160, "§III-D: 95 software failures on multi-failure nodes", "[95, 160] per seed"),
		noOverInvolvementCheck(4, "Table III: at most four GPU slots exist"),
		quadGPUZeroCheck("Table III: no Tsubame-3 failure involved all four GPUs"),

		catChisqSeedCheck(a, "Fig. 2(b): category mix"),
		tbfKSSeedCheck(a.TBFShape, "Fig. 6(b): TBF distribution, Weibull fit"),

		catChisqPooledCheck(a, "Fig. 2(b): category mix"),
		mtbfBandCheck(65, 80, "§III-B: MTBF above 70 h"),
		mttrBandCheck(44, 60, "§III-C: MTTR ~55 h"),
		tbfKSPooledCheck(a.TBFShape, "Fig. 6(b): TBF distribution, Weibull fit"),
		tbfShapePooledCheck(a.TBFShape, 0.10, "Fig. 6(b): Weibull shape of the TBF fit"),
		ttrKSPooledCheck(failures.CatSoftware, 20.7, 43.7, 300, "Fig. 10(b): software repair-time distribution"),
		ttrMeanBandCheck(failures.CatGPU, 66, 83, "Fig. 10(b): GPU repair-time scale"),
		slotChisqPooledCheck(a, anchoredExtraSingles(a), "Fig. 5(b): per-slot GPU failure skew"),
		slotRatioBandCheck("pooled-slot-ratio", func(in []float64) float64 {
			if len(in) != 4 {
				return math.NaN()
			}
			return ((in[0] + in[3]) / 2) / ((in[1] + in[2]) / 2)
		}, 1.55, 2.45, "Fig. 5(b): outer slots fail considerably more than inner",
			"pooled outer-slot/inner-slot incident ratio matches the published skew"),
		involvementRatesCheck(a.GPUInvolvementPMF, 1.0, "Table III: simultaneous-GPU involvement shares"),
		nodeShareBandCheck("pooled-node-single", func(ev *seedEval) (float64, float64) {
			return float64(ev.singleNodes), float64(ev.totalNodes)
		}, 0.37, 0.43, "Fig. 4(b): ~40% of affected nodes see exactly one failure",
			"pooled share of affected nodes with exactly one failure"),
		nodeShareBandCheck("pooled-node-two", func(ev *seedEval) (float64, float64) {
			return float64(ev.twoNodes), float64(ev.totalNodes)
		}, 0.07, 0.13, "Fig. 4(b): ~10% of affected nodes see exactly two failures",
			"pooled share of affected nodes with exactly two failures"),
		// Wider tolerance than Tsubame-2: the shape-0.74 renewal process is
		// bursty (overdispersed), and 338 records per seed leave real
		// monthly-share noise even pooled over 32 seeds.
		monthlyDevCheck(a, 0.25, "Fig. 12(b): monthly failure-count variation"),
		seasonalTTRBandCheck(0.93, 1.07, "Fig. 11: no seasonal repair-time trend on Tsubame-3",
			"pooled second-half/first-half repair ratio stays flat"),
		// Tsubame-3 sees only ~7 multi-GPU events per seed, so the per-seed
		// clustering ratio is noisy; the cap is generous and the static
		// profile-cluster pin carries the drift detection.
		clusterBandCheck(0.90, "Fig. 8: multi-GPU failures arrive in temporal clusters"),
	)
	return s
}

// anchoredCaps extracts the per-category repair ceilings of the anchored
// table.
func anchoredCaps(a *synth.Profile) map[failures.Category]float64 {
	caps := make(map[failures.Category]float64, len(a.Categories))
	for _, c := range a.Categories {
		if c.Count > 0 {
			caps[c.Category] = c.TTR.CapHours
		}
	}
	return caps
}

// anchoredExtraSingles counts the single-card draws contributed by
// GPU-related categories other than CatGPU (driver, SXM2 cabling).
func anchoredExtraSingles(a *synth.Profile) int {
	var n int
	for _, c := range a.Categories {
		if c.Category != failures.CatGPU && c.Category.GPURelated() {
			n += c.Count
		}
	}
	return n
}

// quadGPUZeroCheck pins Table III's 0% four-GPU involvement share.
func quadGPUZeroCheck(anchor string) *Check {
	return exactCheck("log-no-quad-gpu", anchor,
		"no failure involves all four GPUs of a node", "exact",
		func(ev *seedEval) Outcome {
			if len(ev.invCounts) >= 4 && ev.invCounts[3] > 0 {
				return fail(float64(ev.invCounts[3]), "%d four-GPU events, published 0", ev.invCounts[3])
			}
			return pass(0)
		})
}
