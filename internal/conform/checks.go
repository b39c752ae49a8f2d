package conform

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/stats"
	"repro/internal/synth"
)

// ---------------------------------------------------------------------------
// Static calibration pinning
// ---------------------------------------------------------------------------

// pinEps is the relative tolerance of static float pins: tight enough
// that any deliberate calibration edit (the acceptance bar is a 20% flip)
// fails, loose enough to absorb decimal-literal formatting noise.
const pinEps = 1e-9

// floatsEq reports a pinned float match.
func floatsEq(got, want float64) bool {
	return math.Abs(got-want) <= pinEps*math.Max(1, math.Abs(want))
}

// pinChecks builds the static checks that pin every calibration constant
// of the profile under test against the anchored re-statement. anchors
// maps the check-name suffix to its paper citation.
func pinChecks(a *synth.Profile, anchors map[string]string) []*Check {
	mk := func(name, desc, tol string, fn func(p *synth.Profile) Outcome) *Check {
		return &Check{
			Name:        "profile-" + name,
			Kind:        KindStatic,
			Anchor:      anchors[name],
			Description: desc,
			Tolerance:   tol,
			static:      fn,
		}
	}
	checks := []*Check{
		mk("window", "log window matches the published study period", "exact dates",
			func(p *synth.Profile) Outcome {
				if !p.Start.Equal(a.Start) || !p.End.Equal(a.End) {
					return fail(math.NaN(), "window [%s, %s], published [%s, %s]",
						p.Start.Format("2006-01-02"), p.End.Format("2006-01-02"),
						a.Start.Format("2006-01-02"), a.End.Format("2006-01-02"))
				}
				return pass(p.End.Sub(p.Start).Hours())
			}),
		mk("tbf-shape", "Weibull TBF shape matches the published fit", "exact",
			func(p *synth.Profile) Outcome {
				if !floatsEq(p.TBFShape, a.TBFShape) {
					return fail(p.TBFShape, "TBF shape %v, anchored %v", p.TBFShape, a.TBFShape)
				}
				return pass(p.TBFShape)
			}),
		mk("category-mix", "category counts and repair models match the anchored table", "exact",
			func(p *synth.Profile) Outcome { return pinCategories(p, a) }),
		mk("fleet", "fleet size and rack geometry match Table I", "exact",
			func(p *synth.Profile) Outcome {
				switch {
				case p.NodeCount != a.NodeCount:
					return fail(float64(p.NodeCount), "fleet %d nodes, anchored %d", p.NodeCount, a.NodeCount)
				case p.NodesPerRack != a.NodesPerRack:
					return fail(float64(p.NodesPerRack), "%d nodes/rack, anchored %d", p.NodesPerRack, a.NodesPerRack)
				case !floatsEq(p.HotRackFraction, a.HotRackFraction) || !floatsEq(p.HotRackBoost, a.HotRackBoost):
					return fail(p.HotRackBoost, "hot-rack skew (%v, %v), anchored (%v, %v)",
						p.HotRackFraction, p.HotRackBoost, a.HotRackFraction, a.HotRackBoost)
				}
				return pass(float64(p.NodeCount))
			}),
		mk("node-pmf", "failures-per-node distribution matches the anchored histogram", "exact",
			func(p *synth.Profile) Outcome {
				if len(p.NodeCountPMF) != len(a.NodeCountPMF) {
					return fail(float64(len(p.NodeCountPMF)), "node PMF has %d entries, anchored %d",
						len(p.NodeCountPMF), len(a.NodeCountPMF))
				}
				for k, want := range a.NodeCountPMF {
					if got, ok := p.NodeCountPMF[k]; !ok || !floatsEq(got, want) {
						return fail(p.NodeCountPMF[k], "P(node sees %d failures) = %v, anchored %v", k, p.NodeCountPMF[k], want)
					}
				}
				return pass(p.NodeCountPMF[1])
			}),
		mk("sw-on-multi", "software-failures-on-multi-failure-nodes target matches", "exact",
			func(p *synth.Profile) Outcome {
				if p.SoftwareOnMultiNodes != a.SoftwareOnMultiNodes {
					return fail(float64(p.SoftwareOnMultiNodes), "target %d, anchored %d",
						p.SoftwareOnMultiNodes, a.SoftwareOnMultiNodes)
				}
				return pass(float64(p.SoftwareOnMultiNodes))
			}),
		mk("slot-weights", "per-slot GPU failure propensities match", "exact",
			func(p *synth.Profile) Outcome { return pinVector(p.GPUSlotWeights, a.GPUSlotWeights, "slot weight") }),
		mk("involvement-pmf", "simultaneous-GPU involvement distribution matches", "exact",
			func(p *synth.Profile) Outcome {
				return pinVector(p.GPUInvolvementPMF, a.GPUInvolvementPMF, "involvement probability")
			}),
		mk("cluster", "multi-GPU temporal clustering parameters match", "exact",
			func(p *synth.Profile) Outcome {
				if !floatsEq(p.ClusterFraction, a.ClusterFraction) || !floatsEq(p.ClusterWindowHours, a.ClusterWindowHours) {
					return fail(p.ClusterFraction, "clustering (%v, %v h), anchored (%v, %v h)",
						p.ClusterFraction, p.ClusterWindowHours, a.ClusterFraction, a.ClusterWindowHours)
				}
				return pass(p.ClusterFraction)
			}),
		mk("monthly-weights", "monthly failure-count weights match", "exact",
			func(p *synth.Profile) Outcome {
				return pinVector(p.MonthlyCountWeights[:], a.MonthlyCountWeights[:], "monthly count weight")
			}),
		mk("ttr-multipliers", "monthly repair-time multipliers match", "exact",
			func(p *synth.Profile) Outcome {
				return pinVector(p.MonthlyTTRMultipliers[:], a.MonthlyTTRMultipliers[:], "monthly TTR multiplier")
			}),
	}
	if len(a.SoftwareCauses) > 0 {
		checks = append(checks, mk("software-causes", "software root-locus mix matches Figure 3", "exact",
			func(p *synth.Profile) Outcome {
				want := make(map[failures.SoftwareCause]int, len(a.SoftwareCauses))
				for _, c := range a.SoftwareCauses {
					want[c.Cause] = c.Count
				}
				if len(p.SoftwareCauses) != len(a.SoftwareCauses) {
					return fail(float64(len(p.SoftwareCauses)), "%d cause entries, anchored %d",
						len(p.SoftwareCauses), len(a.SoftwareCauses))
				}
				for _, c := range p.SoftwareCauses {
					if want[c.Cause] != c.Count {
						return fail(float64(c.Count), "cause %q count %d, anchored %d", c.Cause, c.Count, want[c.Cause])
					}
				}
				return pass(float64(len(want)))
			}))
	}
	return checks
}

// pinCategories compares the full category table: counts, node
// attributability, and TTR models.
func pinCategories(p, a *synth.Profile) Outcome {
	want := make(map[failures.Category]synth.CategoryCount, len(a.Categories))
	for _, c := range a.Categories {
		want[c.Category] = c
	}
	if len(p.Categories) != len(a.Categories) {
		return fail(float64(len(p.Categories)), "%d categories, anchored %d", len(p.Categories), len(a.Categories))
	}
	for _, c := range p.Categories {
		w, ok := want[c.Category]
		switch {
		case !ok:
			return fail(float64(c.Count), "category %q not in the anchored mix", c.Category)
		case c.Count != w.Count:
			return fail(float64(c.Count), "category %q count %d, anchored %d", c.Category, c.Count, w.Count)
		case c.NodeAttributable != w.NodeAttributable:
			return fail(float64(c.Count), "category %q attributability flipped", c.Category)
		case !floatsEq(c.TTR.MedianHours, w.TTR.MedianHours) ||
			!floatsEq(c.TTR.MeanHours, w.TTR.MeanHours) ||
			!floatsEq(c.TTR.CapHours, w.TTR.CapHours):
			return fail(c.TTR.MeanHours, "category %q TTR model %+v, anchored %+v", c.Category, c.TTR, w.TTR)
		}
	}
	return pass(float64(p.TotalFailures()))
}

// pinVector compares a float vector element-wise.
func pinVector(got, want []float64, what string) Outcome {
	if len(got) != len(want) {
		return fail(float64(len(got)), "%s vector has %d entries, anchored %d", what, len(got), len(want))
	}
	for i := range got {
		if !floatsEq(got[i], want[i]) {
			return fail(got[i], "%s %d is %v, anchored %v", what, i, got[i], want[i])
		}
	}
	return pass(float64(len(got)))
}

// ---------------------------------------------------------------------------
// Exact per-seed checks
// ---------------------------------------------------------------------------

func exactCheck(name, anchor, desc, tol string, fn func(ev *seedEval) Outcome) *Check {
	return &Check{Name: name, Kind: KindExact, Anchor: anchor, Description: desc, Tolerance: tol,
		perSeed: func(ev *seedEval, _ float64) Outcome { return fn(ev) }}
}

func countCheck(total int, anchor string) *Check {
	return exactCheck("log-count", anchor, "every generated log has the published number of failures", "exact",
		func(ev *seedEval) Outcome {
			if ev.n != total {
				return fail(float64(ev.n), "%d records, published %d", ev.n, total)
			}
			return pass(float64(ev.n))
		})
}

func windowCheck(anchor string) *Check {
	return exactCheck("log-window", anchor, "every record falls inside the published study window", "exact",
		func(ev *seedEval) Outcome {
			if ev.windowViolations > 0 {
				return fail(float64(ev.windowViolations), "%d records outside the window", ev.windowViolations)
			}
			return pass(0)
		})
}

func headlineCatsCheck(cats map[failures.Category]int, anchor string) *Check {
	return exactCheck("log-headline-categories", anchor,
		"headline category counts match the published shares exactly", "exact",
		func(ev *seedEval) Outcome {
			for cat, want := range cats {
				if got := ev.byCat[cat]; got != want {
					return fail(float64(got), "%s count %d, published %d", cat, got, want)
				}
			}
			return pass(float64(len(cats)))
		})
}

func ttrCapsCheck(caps map[failures.Category]float64, anchor string) *Check {
	// Duration truncation only rounds down, so no epsilon is needed above
	// the cap.
	return exactCheck("log-ttr-caps", anchor,
		"no repair exceeds its category's published ceiling", "exact",
		func(ev *seedEval) Outcome {
			for cat, capHours := range caps {
				if got := ev.maxTTR[cat]; got > capHours {
					return fail(got, "%s repair of %.1f h exceeds the %.0f h ceiling", cat, got, capHours)
				}
			}
			return pass(float64(len(caps)))
		})
}

func causesCheck(causes map[failures.SoftwareCause]int, anchor string) *Check {
	return exactCheck("log-software-causes", anchor,
		"headline software root-locus counts match Figure 3 exactly", "exact",
		func(ev *seedEval) Outcome {
			for cause, want := range causes {
				if got := ev.causes[cause]; got != want {
					return fail(float64(got), "cause %q count %d, published %d", cause, got, want)
				}
			}
			return pass(float64(len(causes)))
		})
}

func swOnMultiCheck(lo, hi int, anchor, tol string) *Check {
	return exactCheck("log-sw-on-multi", anchor,
		"software failures landing on multi-failure nodes stay in the published range", tol,
		func(ev *seedEval) Outcome {
			if ev.swOnMulti < lo || ev.swOnMulti > hi {
				return fail(float64(ev.swOnMulti), "%d software failures on multi-failure nodes, want [%d, %d]",
					ev.swOnMulti, lo, hi)
			}
			return pass(float64(ev.swOnMulti))
		})
}

func noOverInvolvementCheck(maxCards int, anchor string) *Check {
	return exactCheck("log-involvement-support", anchor,
		"no GPU failure involves more cards than the published maximum", "exact",
		func(ev *seedEval) Outcome {
			if ev.overInvolved > 0 {
				return fail(float64(ev.overInvolved), "%d GPU events involve more than %d cards", ev.overInvolved, maxCards)
			}
			return pass(0)
		})
}

// ---------------------------------------------------------------------------
// Per-seed hypothesis tests (binomial-gated)
// ---------------------------------------------------------------------------

// catChisqSeedCheck tests each seed's category mix against the anchored
// shares. Expected counts scale the anchored shares to the observed log
// size so the test stays a pure mix test (the size itself is pinned by
// log-count).
func catChisqSeedCheck(a *synth.Profile, anchor string) *Check {
	order, shares := anchoredShares(a)
	return &Check{
		Name: "seed-category-chisq", Kind: KindTest, Anchor: anchor,
		Description: "chi-square of the per-seed category mix against the published shares",
		Tolerance:   "per-seed p >= alpha, failures within the binomial budget",
		perSeed: func(ev *seedEval, alpha float64) Outcome {
			observed := make([]int, len(order))
			expected := make([]float64, len(order))
			for i, cat := range order {
				observed[i] = ev.byCat[cat]
				expected[i] = shares[i] * float64(ev.n)
			}
			stat, p, err := stats.ChiSquare(observed, expected)
			if err != nil {
				return fail(math.NaN(), "chi-square: %v", err)
			}
			out := Outcome{Pass: p >= alpha, Stat: stat, P: p}
			if !out.Pass {
				out.Detail = fmt.Sprintf("chi-square %.1f, p %.2g < alpha %.2g", stat, p, alpha)
			}
			return out
		},
	}
}

// tbfKSSeedCheck tests each seed's de-seasonalized unit-scale gaps
// against the calibrated Weibull renewal family.
func tbfKSSeedCheck(shape float64, anchor string) *Check {
	cdf := mustWeibull(shape, 1).CDF
	return &Check{
		Name: "seed-tbf-ks", Kind: KindTest, Anchor: anchor,
		Description: "KS test of per-seed de-seasonalized arrival gaps against the published Weibull family",
		Tolerance:   "per-seed p >= alpha, failures within the binomial budget",
		perSeed: func(ev *seedEval, alpha float64) Outcome {
			d, p, err := stats.KSTest(ev.unitGaps, cdf)
			if err != nil {
				return fail(math.NaN(), "ks: %v", err)
			}
			out := Outcome{Pass: p >= alpha, Stat: d, P: p}
			if !out.Pass {
				out.Detail = fmt.Sprintf("KS D %.4f, p %.2g < alpha %.2g", d, p, alpha)
			}
			return out
		},
	}
}

// ---------------------------------------------------------------------------
// Pooled checks
// ---------------------------------------------------------------------------

func pooledCheck(name, anchor, desc, tol string, observe func(st *poolState, ev *seedEval), finish func(st *poolState, env finishEnv) Outcome) *Check {
	return &Check{Name: name, Kind: KindPooled, Anchor: anchor, Description: desc, Tolerance: tol,
		observe: observe, finish: finish}
}

// bandOutcome wraps the band comparison shared by every rate check.
func bandOutcome(got, lo, hi float64, what string) Outcome {
	if math.IsNaN(got) || got < lo || got > hi {
		return fail(got, "%s = %.4g, want [%.4g, %.4g]", what, got, lo, hi)
	}
	return pass(got)
}

func mtbfBandCheck(lo, hi float64, anchor string) *Check {
	return pooledCheck("pooled-mtbf", anchor,
		"pooled mean time between failures matches the published MTBF",
		fmt.Sprintf("[%.0f, %.0f] hours", lo, hi),
		func(st *poolState, ev *seedEval) {
			st.add("sum", ev.gapSumHours)
			st.add("n", float64(ev.gapCount))
		},
		func(st *poolState, _ finishEnv) Outcome {
			return bandOutcome(st.counts["sum"]/st.counts["n"], lo, hi, "pooled MTBF hours")
		})
}

func mttrBandCheck(lo, hi float64, anchor string) *Check {
	return pooledCheck("pooled-mttr", anchor,
		"pooled mean time to recovery matches the published MTTR",
		fmt.Sprintf("[%.0f, %.0f] hours", lo, hi),
		func(st *poolState, ev *seedEval) {
			st.add("sum", ev.ttrSumHours)
			st.add("n", float64(ev.ttrCount))
		},
		func(st *poolState, _ finishEnv) Outcome {
			return bandOutcome(st.counts["sum"]/st.counts["n"], lo, hi, "pooled MTTR hours")
		})
}

func tbfKSPooledCheck(shape float64, anchor string) *Check {
	cdf := mustWeibull(shape, 1).CDF
	return pooledCheck("pooled-tbf-ks", anchor,
		"KS test of all seeds' de-seasonalized arrival gaps pooled against the published Weibull family",
		"pooled p >= pooled alpha",
		func(st *poolState, ev *seedEval) { st.samples = append(st.samples, ev.unitGaps...) },
		func(st *poolState, env finishEnv) Outcome {
			d, p, err := stats.KSTest(st.samples, cdf)
			if err != nil {
				return fail(math.NaN(), "ks: %v", err)
			}
			out := Outcome{Pass: p >= env.pooledAlpha, Stat: d, P: p}
			if !out.Pass {
				out.Detail = fmt.Sprintf("pooled KS D %.4f over %d gaps, p %.2g < %.2g",
					d, len(st.samples), p, env.pooledAlpha)
			}
			return out
		})
}

func tbfShapePooledCheck(shape, tol float64, anchor string) *Check {
	return pooledCheck("pooled-tbf-shape", anchor,
		"Weibull shape fitted to the pooled de-seasonalized gaps matches the published fit",
		fmt.Sprintf("%.2f +/- %.2f", shape, tol),
		func(st *poolState, ev *seedEval) { st.samples = append(st.samples, ev.unitGaps...) },
		func(st *poolState, _ finishEnv) Outcome {
			w, err := dist.FitWeibull(st.samples)
			if err != nil {
				return fail(math.NaN(), "fit: %v", err)
			}
			return bandOutcome(w.K, shape-tol, shape+tol, "fitted Weibull shape")
		})
}

func ttrKSPooledCheck(cat failures.Category, median, mean, capHours float64, anchor string) *Check {
	cdf := mustTruncatedLogNormal(mean, median, capHours).CDF
	return pooledCheck("pooled-ttr-ks-"+cat.String(), anchor,
		fmt.Sprintf("KS test of pooled de-seasonalized %s repair times against the calibrated truncated log-normal", cat),
		"pooled p >= pooled alpha",
		func(st *poolState, ev *seedEval) { st.samples = append(st.samples, ev.ttr[cat]...) },
		func(st *poolState, env finishEnv) Outcome {
			d, p, err := stats.KSTest(st.samples, cdf)
			if err != nil {
				return fail(math.NaN(), "ks: %v", err)
			}
			out := Outcome{Pass: p >= env.pooledAlpha, Stat: d, P: p}
			if !out.Pass {
				out.Detail = fmt.Sprintf("pooled KS D %.4f over %d repairs, p %.2g < %.2g",
					d, len(st.samples), p, env.pooledAlpha)
			}
			return out
		})
}

func ttrMeanBandCheck(cat failures.Category, lo, hi float64, anchor string) *Check {
	return pooledCheck("pooled-ttr-mean-"+cat.String(), anchor,
		fmt.Sprintf("pooled mean de-seasonalized %s repair time matches the published scale", cat),
		fmt.Sprintf("[%.0f, %.0f] hours", lo, hi),
		func(st *poolState, ev *seedEval) { st.samples = append(st.samples, ev.ttr[cat]...) },
		func(st *poolState, _ finishEnv) Outcome {
			return bandOutcome(stats.Mean(st.samples), lo, hi, fmt.Sprintf("pooled %s TTR mean", cat))
		})
}

// catChisqPooledCheck is the pooled-power version of the per-seed mix
// test: 32 seeds of counts make a 20% shift in any headline share
// decisive even though each seed alone is ambiguous.
func catChisqPooledCheck(a *synth.Profile, anchor string) *Check {
	order, shares := anchoredShares(a)
	return pooledCheck("pooled-category-chisq", anchor,
		"chi-square of the pooled category mix against the published shares",
		"pooled p >= pooled alpha",
		func(st *poolState, ev *seedEval) {
			for cat, c := range ev.byCat {
				st.add(cat.String(), float64(c))
			}
			st.add("total", float64(ev.n))
		},
		func(st *poolState, env finishEnv) Outcome {
			observed := make([]int, len(order))
			expected := make([]float64, len(order))
			total := st.counts["total"]
			for i, cat := range order {
				observed[i] = int(st.counts[cat.String()])
				expected[i] = shares[i] * total
			}
			stat, p, err := stats.ChiSquare(observed, expected)
			if err != nil {
				return fail(math.NaN(), "chi-square: %v", err)
			}
			out := Outcome{Pass: p >= env.pooledAlpha, Stat: stat, P: p}
			if !out.Pass {
				out.Detail = fmt.Sprintf("pooled chi-square %.1f, p %.2g < %.2g", stat, p, env.pooledAlpha)
			}
			return out
		})
}

// slotChisqPooledCheck tests pooled per-slot card incidents against the
// shares implied by the anchored slot weights and involvement mix,
// computed by exact enumeration of the weighted without-replacement
// draws.
func slotChisqPooledCheck(a *synth.Profile, extraSingles int, anchor string) *Check {
	invCounts, err := synth.LargestRemainder(a.GPUInvolvementPMF, anchoredCount(a, failures.CatGPU))
	if err != nil {
		panic(fmt.Sprintf("conform: anchored involvement apportionment: %v", err))
	}
	expectedShares := expectedSlotShares(a.GPUSlotWeights, invCounts, extraSingles)
	return pooledCheck("pooled-slot-chisq", anchor,
		"chi-square of pooled per-slot card incidents against the published slot skew",
		"pooled p >= pooled alpha",
		func(st *poolState, ev *seedEval) {
			for j, c := range ev.slotIncidents {
				st.add(fmt.Sprintf("s%d", j), float64(c))
			}
		},
		func(st *poolState, env finishEnv) Outcome {
			observed := make([]int, len(expectedShares))
			var total float64
			for j := range observed {
				observed[j] = int(st.counts[fmt.Sprintf("s%d", j)])
				total += float64(observed[j])
			}
			expected := make([]float64, len(expectedShares))
			for j, s := range expectedShares {
				expected[j] = s * total
			}
			stat, p, err := stats.ChiSquare(observed, expected)
			if err != nil {
				return fail(math.NaN(), "chi-square: %v", err)
			}
			out := Outcome{Pass: p >= env.pooledAlpha, Stat: stat, P: p}
			if !out.Pass {
				out.Detail = fmt.Sprintf("pooled slot chi-square %.1f, p %.2g < %.2g", stat, p, env.pooledAlpha)
			}
			return out
		})
}

// slotRatioBandCheck reports the human-readable slot-skew ratio of the
// figure caption (e.g. "slot 1 fails ~20% more").
func slotRatioBandCheck(name string, ratio func(incidents []float64) float64, lo, hi float64, anchor, desc string) *Check {
	return pooledCheck(name, anchor, desc, fmt.Sprintf("[%.2f, %.2f]", lo, hi),
		func(st *poolState, ev *seedEval) {
			for j, c := range ev.slotIncidents {
				st.add(fmt.Sprintf("s%d", j), float64(c))
			}
		},
		func(st *poolState, _ finishEnv) Outcome {
			incidents := make([]float64, 0, 4)
			for j := 0; ; j++ {
				v, ok := st.counts[fmt.Sprintf("s%d", j)]
				if !ok {
					break
				}
				incidents = append(incidents, v)
			}
			return bandOutcome(ratio(incidents), lo, hi, "slot incident ratio")
		})
}

// involvementRatesCheck compares pooled involvement-size shares against
// Table III within a percentage-point tolerance.
func involvementRatesCheck(pmf []float64, tolPP float64, anchor string) *Check {
	return pooledCheck("pooled-involvement", anchor,
		"pooled simultaneous-GPU involvement shares match Table III",
		fmt.Sprintf("+/- %.1f percentage points per size", tolPP),
		func(st *poolState, ev *seedEval) {
			for k, c := range ev.invCounts {
				st.add(fmt.Sprintf("k%d", k+1), float64(c))
			}
		},
		func(st *poolState, _ finishEnv) Outcome {
			var total float64
			for k := range pmf {
				total += st.counts[fmt.Sprintf("k%d", k+1)]
			}
			if total == 0 {
				return fail(math.NaN(), "no GPU events observed")
			}
			var worst float64
			for k, want := range pmf {
				share := st.counts[fmt.Sprintf("k%d", k+1)] / total
				dev := math.Abs(share-want) * 100
				if dev > worst {
					worst = dev
				}
				if dev > tolPP {
					return fail(share, "%d-GPU share %.2f%%, published %.2f%% (tolerance %.1f pp)",
						k+1, share*100, want*100, tolPP)
				}
			}
			return pass(worst)
		})
}

func nodeShareBandCheck(name string, share func(ev *seedEval) (num, den float64), lo, hi float64, anchor, desc string) *Check {
	return pooledCheck(name, anchor, desc, fmt.Sprintf("[%.0f%%, %.0f%%]", lo*100, hi*100),
		func(st *poolState, ev *seedEval) {
			num, den := share(ev)
			st.add("num", num)
			st.add("den", den)
		},
		func(st *poolState, _ finishEnv) Outcome {
			return bandOutcome(st.counts["num"]/st.counts["den"], lo, hi, "pooled share")
		})
}

// monthlyDevCheck compares pooled monthly count shares against the
// anchored calendar intensity (month hours times the anchored weight).
func monthlyDevCheck(a *synth.Profile, maxRelDev float64, anchor string) *Check {
	expected := monthMassShares(a.Start, a.End, a.MonthlyCountWeights)
	return pooledCheck("pooled-monthly-mix", anchor,
		"pooled monthly failure-count shares track the published seasonal variation",
		fmt.Sprintf("max relative deviation <= %.0f%%", maxRelDev*100),
		func(st *poolState, ev *seedEval) {
			for m, c := range ev.monthly {
				st.add(fmt.Sprintf("m%d", m), float64(c))
			}
		},
		func(st *poolState, _ finishEnv) Outcome {
			var total float64
			for m := 0; m < 12; m++ {
				total += st.counts[fmt.Sprintf("m%d", m)]
			}
			if total == 0 {
				return fail(math.NaN(), "no records observed")
			}
			var worst float64
			worstMonth := 0
			for m := 0; m < 12; m++ {
				if expected[m] <= 0 {
					continue
				}
				share := st.counts[fmt.Sprintf("m%d", m)] / total
				dev := math.Abs(share-expected[m]) / expected[m]
				if dev > worst {
					worst, worstMonth = dev, m
				}
			}
			if worst > maxRelDev {
				return fail(worst, "%s share deviates %.1f%% from the calendar expectation (tolerance %.0f%%)",
					time.Month(worstMonth+1), worst*100, maxRelDev*100)
			}
			return pass(worst)
		})
}

func seasonalTTRBandCheck(lo, hi float64, anchor, desc string) *Check {
	return pooledCheck("pooled-seasonal-ttr", anchor, desc, fmt.Sprintf("H2/H1 mean repair ratio in [%.2f, %.2f]", lo, hi),
		func(st *poolState, ev *seedEval) {
			st.add("h1", ev.h1Sum)
			st.add("h1n", float64(ev.h1N))
			st.add("h2", ev.h2Sum)
			st.add("h2n", float64(ev.h2N))
		},
		func(st *poolState, _ finishEnv) Outcome {
			ratio := (st.counts["h2"] / st.counts["h2n"]) / (st.counts["h1"] / st.counts["h1n"])
			return bandOutcome(ratio, lo, hi, "second-half/first-half TTR ratio")
		})
}

func clusterBandCheck(maxRatio float64, anchor string) *Check {
	return pooledCheck("pooled-cluster", anchor,
		"multi-GPU failures bunch in time: median inter-event gap clearly below the evenly-spread expectation",
		fmt.Sprintf("mean over seeds <= %.2f", maxRatio),
		func(st *poolState, ev *seedEval) {
			if !math.IsNaN(ev.clusterRatio) {
				st.perSeed = append(st.perSeed, ev.clusterRatio)
			}
		},
		func(st *poolState, _ finishEnv) Outcome {
			if len(st.perSeed) == 0 {
				return fail(math.NaN(), "no seed had enough multi-GPU events")
			}
			return bandOutcome(stats.Mean(st.perSeed), 0, maxRatio, "mean clustering ratio")
		})
}

// ---------------------------------------------------------------------------
// Shared derivations
// ---------------------------------------------------------------------------

// anchoredShares flattens the anchored category table into a stable order
// and its share vector.
func anchoredShares(a *synth.Profile) ([]failures.Category, []float64) {
	total := float64(a.TotalFailures())
	order := make([]failures.Category, 0, len(a.Categories))
	shares := make([]float64, 0, len(a.Categories))
	for _, c := range a.Categories {
		if c.Count == 0 {
			continue
		}
		order = append(order, c.Category)
		shares = append(shares, float64(c.Count)/total)
	}
	return order, shares
}

// anchoredCount returns the anchored count of one category.
func anchoredCount(a *synth.Profile, cat failures.Category) int {
	for _, c := range a.Categories {
		if c.Category == cat {
			return c.Count
		}
	}
	return 0
}

// expectedSlotShares enumerates the per-slot card-incident shares implied
// by the slot weights, the exact involvement-size multiset, and the
// single-card draws of the other GPU-related categories.
func expectedSlotShares(weights []float64, invCounts []int, extraSingles int) []float64 {
	shares := make([]float64, len(weights))
	var total float64
	for kIdx, c := range invCounts {
		if c == 0 {
			continue
		}
		k := kIdx + 1
		for j := range weights {
			shares[j] += float64(c) * inclusionProb(weights, k, j)
		}
		total += float64(c * k)
	}
	if extraSingles > 0 {
		for j := range weights {
			shares[j] += float64(extraSingles) * inclusionProb(weights, 1, j)
		}
		total += float64(extraSingles)
	}
	for j := range shares {
		shares[j] /= total
	}
	return shares
}

// inclusionProb returns the probability that slot j appears in a k-card
// draw without replacement weighted by weights, by exact enumeration
// (at most 4 slots, so the recursion is tiny).
func inclusionProb(weights []float64, k, j int) float64 {
	var rec func(mask uint, left int) float64
	rec = func(mask uint, left int) float64 {
		if left == 0 {
			return 0
		}
		var totalW float64
		for i, w := range weights {
			if mask&(1<<uint(i)) == 0 {
				totalW += w
			}
		}
		var p float64
		for i, w := range weights {
			if mask&(1<<uint(i)) != 0 {
				continue
			}
			pi := w / totalW
			if i == j {
				p += pi
			} else {
				p += pi * rec(mask|1<<uint(i), left-1)
			}
		}
		return p
	}
	return rec(0, k)
}

// monthMassShares computes each calendar month's share of the arrival
// intensity over the window: hours in the month times its weight,
// normalized. This mirrors the generator's warp construction but is
// implemented independently so the two cannot drift together unnoticed.
func monthMassShares(start, end time.Time, weights [12]float64) [12]float64 {
	var mass [12]float64
	var total float64
	cursor := start
	for cursor.Before(end) {
		next := time.Date(cursor.Year(), cursor.Month(), 1, 0, 0, 0, 0, time.UTC).AddDate(0, 1, 0)
		if next.After(end) {
			next = end
		}
		hours := next.Sub(cursor).Hours()
		weight := weights[cursor.Month()-1]
		if weight <= 0 {
			weight = 1e-6
		}
		mass[cursor.Month()-1] += hours * weight
		total += hours * weight
		cursor = next
	}
	for i := range mass {
		mass[i] /= total
	}
	return mass
}

// mustWeibull builds a Weibull or panics: spec tables are static and
// covered by the package tests, so a failure here is a programming error.
func mustWeibull(shape, scale float64) dist.Weibull {
	w, err := dist.NewWeibull(shape, scale)
	if err != nil {
		panic(fmt.Sprintf("conform: anchored Weibull: %v", err))
	}
	return w
}

// mustTruncatedLogNormal builds the calibrated repair-time family or
// panics (static spec tables, see mustWeibull).
func mustTruncatedLogNormal(mean, median, capHours float64) dist.Truncated {
	ln, err := dist.LogNormalFromMoments(mean, median)
	if err != nil {
		panic(fmt.Sprintf("conform: anchored log-normal: %v", err))
	}
	tr, err := dist.NewTruncated(ln, capHours)
	if err != nil {
		panic(fmt.Sprintf("conform: anchored truncation: %v", err))
	}
	return tr
}
