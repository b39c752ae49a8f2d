// Package conform is the statistical conformance harness of the
// reproduction: it proves that the synthetic failure logs emitted by
// internal/synth match the numbers Taherin et al. publish for Tsubame-2
// and Tsubame-3, and turns that proof into a deterministic gate.
//
// The harness is declarative: a Spec is a battery of Checks, each citing
// the paper sentence, table, or figure it reproduces (the Anchor field)
// and carrying an explicit tolerance. Checks come in four kinds:
//
//   - static checks compare the calibration constants of the profile under
//     test against conform's own hand-maintained re-statement of the
//     published numbers (spec.go). They involve no randomness and pin the
//     calibration exactly: any silent edit to internal/synth/profile.go
//     fails the gate until the anchored tables here are consciously
//     updated to match a re-reading of the paper.
//   - exact checks are generator invariants that must hold on every seed's
//     log (record count, window containment, headline category counts).
//   - test checks are per-seed hypothesis tests evaluated at significance
//     Alpha. Single seeds are allowed to fail: the gate compares the
//     number of failing seeds against a binomial budget (binom.go) sized
//     so that a conforming generator fails the whole battery with
//     probability at most Budget — deterministic-in-expectation rather
//     than a flaky single-seed threshold.
//   - pooled checks aggregate samples across every seed before computing
//     one statistic, buying the power that per-seed tests lack (a 20%
//     calibration shift in a 398-sample category is invisible to one KS
//     test and decisive over 32 pooled seeds).
//
// Statistical checks de-seasonalize observations through the anchored
// calendar model (synth.Warp and the monthly TTR multipliers) before
// testing them against the calibrated internal/dist families, so the
// seasonal warp and the base distributions are validated independently.
package conform

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/failures"
	"repro/internal/synth"
)

// Kind classifies how a check aggregates over seeds.
type Kind string

// The four check kinds, in evaluation order.
const (
	KindStatic Kind = "static"
	KindExact  Kind = "exact"
	KindTest   Kind = "test"
	KindPooled Kind = "pooled"
)

// Outcome is the verdict of one check evaluation (one seed for exact and
// test checks, the whole battery for static and pooled checks).
type Outcome struct {
	Pass   bool
	Stat   float64 // headline statistic; NaN when meaningless
	P      float64 // p-value for hypothesis checks; NaN otherwise
	Detail string  // human-readable explanation, filled when failing
}

// pass returns a passing outcome with the given statistic.
func pass(stat float64) Outcome { return Outcome{Pass: true, Stat: stat, P: math.NaN()} }

// fail returns a failing outcome with a formatted detail.
func fail(stat float64, format string, args ...any) Outcome {
	return Outcome{Pass: false, Stat: stat, P: math.NaN(), Detail: fmt.Sprintf(format, args...)}
}

// Check is one declarative conformance check. Exactly one of the
// evaluation hooks is set, matching Kind.
type Check struct {
	Name        string
	Kind        Kind
	Anchor      string // paper citation: a section, table, or figure
	Description string
	Tolerance   string // explicit tolerance, human-readable

	// static evaluates a KindStatic check against the profile under test.
	static func(p *synth.Profile) Outcome
	// perSeed evaluates a KindExact or KindTest check against one seed's
	// log. Test checks compare their p-value against alpha; exact checks
	// ignore it.
	perSeed func(ev *seedEval, alpha float64) Outcome
	// observe folds one seed's log into the pooled state of a KindPooled
	// check; finish computes the verdict. observe runs under the check's
	// lock, so it may mutate the state freely.
	observe func(st *poolState, ev *seedEval)
	finish  func(st *poolState, env finishEnv) Outcome
}

// poolState is the cross-seed accumulator of a pooled check.
type poolState struct {
	samples []float64          // pooled raw samples (KS inputs)
	counts  map[string]float64 // named scalar accumulators
	perSeed []float64          // one statistic per seed, for mean-over-seeds checks
}

func (st *poolState) add(key string, v float64) {
	if st.counts == nil {
		st.counts = make(map[string]float64, 8)
	}
	st.counts[key] += v
}

// finishEnv carries the evaluation parameters a pooled verdict needs.
type finishEnv struct {
	seeds       int
	pooledAlpha float64
}

// Options tunes an evaluation. The zero value selects the defaults used
// by the CI gate: seeds 1..32, all-core parallelism, per-seed alpha 0.01,
// family budget 1e-3, pooled alpha 1e-6.
type Options struct {
	// Seeds are the generator seeds to aggregate over. Empty selects
	// DefaultSeeds(32). The CI gate always runs a fixed seed set, which
	// makes the verdict fully deterministic; the binomial budget protects
	// any other choice of seeds from single-seed luck.
	Seeds []int64
	// Parallelism bounds the generation worker pool (0 = all cores).
	Parallelism int
	// Alpha is the per-seed significance of KindTest checks.
	Alpha float64
	// Budget is the probability that a conforming generator fails at
	// least one KindTest check's seed-failure gate, split Bonferroni-style
	// across the test checks of the spec.
	Budget float64
	// PooledAlpha is the significance of pooled hypothesis tests. Pooled
	// samples run to ~30k observations, where 20% calibration drift pushes
	// p-values to 1e-5 and far beyond while the shipped calibration sits
	// around p ~ 0.2-0.8 on the canonical seed set; 1e-3 separates the two
	// regimes cleanly, and the fixed CI seed set makes the verdict
	// deterministic rather than a repeated-sampling false-alarm risk.
	PooledAlpha float64
}

// DefaultSeeds returns the canonical seed set 1..n.
func DefaultSeeds(n int) []int64 {
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

func (o Options) withDefaults() Options {
	if len(o.Seeds) == 0 {
		o.Seeds = DefaultSeeds(32)
	}
	if o.Alpha == 0 {
		o.Alpha = 0.01
	}
	if o.Budget == 0 {
		o.Budget = 1e-3
	}
	if o.PooledAlpha == 0 {
		o.PooledAlpha = 1e-3
	}
	return o
}

// Spec is the conformance battery of one system.
type Spec struct {
	System failures.System
	// anchored is conform's independent re-statement of the published
	// calibration (see spec.go); it drives both the static pinning checks
	// and the expected values of every statistical check.
	anchored *synth.Profile
	// warp is the anchored seasonal intensity map used to de-seasonalize
	// arrival gaps before distributional tests.
	warp *synth.Warp
	// ttrCats are the categories whose de-seasonalized repair samples are
	// collected for distributional checks.
	ttrCats []failures.Category
	checks  []*Check
}

// Checks returns the spec's checks in evaluation order.
func (s *Spec) Checks() []*Check { return s.checks }

// checkState is the runtime accumulator of one check across seeds.
type checkState struct {
	check     *Check
	mu        sync.Mutex
	seeds     int
	fails     int
	statSum   float64
	firstFail Outcome
	pool      poolState
}

func (cs *checkState) observe(ev *seedEval, alpha float64) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.seeds++
	switch cs.check.Kind {
	case KindExact, KindTest:
		out := cs.check.perSeed(ev, alpha)
		if !math.IsNaN(out.Stat) {
			cs.statSum += out.Stat
		}
		if !out.Pass {
			if cs.fails == 0 {
				cs.firstFail = out
				cs.firstFail.Detail = fmt.Sprintf("seed %d: %s", ev.seed, out.Detail)
			}
			cs.fails++
		}
	case KindPooled:
		cs.check.observe(&cs.pool, ev)
	}
}

// Evaluate generates one log per seed through the synth worker pool and
// runs the system's conformance battery over them. Each worker's log is
// reduced to a compact per-seed summary as it lands and released; the
// summaries are folded in seed order, so the report is byte-identical
// at any parallelism.
func Evaluate(ctx context.Context, p *synth.Profile, opts Options) (*Report, error) {
	if p == nil {
		return nil, fmt.Errorf("conform: nil profile")
	}
	spec, err := SpecFor(p.System)
	if err != nil {
		return nil, err
	}
	return spec.Evaluate(ctx, p, opts)
}

// Evaluate runs the battery against logs generated from p.
func (s *Spec) Evaluate(ctx context.Context, p *synth.Profile, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	return s.run(p, opts, func(each func(idx int, seed int64, log *failures.Log) error) error {
		return synth.GenerateEach(ctx, p, opts.Seeds, opts.Parallelism, func(i int, log *failures.Log) error {
			return each(i, opts.Seeds[i], log)
		})
	})
}

// EvaluateLogs runs the battery against pre-materialized logs (seeds[i]
// labels logs[i] in the report). Static checks still pin p against the
// anchored calibration; the statistical checks consume the given logs,
// which lets callers verify that a transformation (anonymization,
// serialization) preserved every conformance statistic.
func (s *Spec) EvaluateLogs(p *synth.Profile, seeds []int64, logs []*failures.Log, opts Options) (*Report, error) {
	if len(seeds) != len(logs) {
		return nil, fmt.Errorf("conform: %d seeds but %d logs", len(seeds), len(logs))
	}
	opts = opts.withDefaults()
	opts.Seeds = seeds
	return s.run(p, opts, func(each func(idx int, seed int64, log *failures.Log) error) error {
		for i, log := range logs {
			if err := each(i, seeds[i], log); err != nil {
				return err
			}
		}
		return nil
	})
}

// run is the shared evaluation core: static checks against p, then one
// seedEval per log folded into every non-static check.
func (s *Spec) run(p *synth.Profile, opts Options, drive func(func(idx int, seed int64, log *failures.Log) error) error) (*Report, error) {
	if p == nil {
		return nil, fmt.Errorf("conform: nil profile")
	}
	if p.System != s.System {
		return nil, fmt.Errorf("conform: spec is for %v, profile %q is for %v", s.System, p.Name, p.System)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("conform: profile under test is invalid: %w", err)
	}

	states := make([]*checkState, len(s.checks))
	numTest := 0
	for i, c := range s.checks {
		states[i] = &checkState{check: c}
		if c.Kind == KindTest {
			numTest++
		}
	}

	// Workers reduce each log to its seedEval as it lands (distinct
	// indices, so no locking) and the fold below runs sequentially in
	// seed order: float accumulation order — and therefore the report
	// bytes — cannot depend on worker scheduling.
	evals := make([]*seedEval, len(opts.Seeds))
	err := drive(func(idx int, seed int64, log *failures.Log) error {
		ev, err := newSeedEval(s, seed, log)
		if err != nil {
			return err
		}
		evals[idx] = ev
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, ev := range evals {
		if ev == nil {
			return nil, fmt.Errorf("conform: internal error: missing seed evaluation")
		}
		for _, cs := range states {
			if cs.check.Kind != KindStatic {
				cs.observe(ev, opts.Alpha)
			}
		}
	}

	allowed := 0
	if numTest > 0 {
		allowed = allowedFailures(len(opts.Seeds), opts.Alpha, opts.Budget/float64(numTest))
	}
	env := finishEnv{seeds: len(opts.Seeds), pooledAlpha: opts.PooledAlpha}

	report := &Report{
		Tool:        "tsubame-conform",
		System:      s.System.String(),
		Profile:     p.Name,
		Seeds:       append([]int64(nil), opts.Seeds...),
		Alpha:       opts.Alpha,
		Budget:      opts.Budget,
		PooledAlpha: opts.PooledAlpha,
		Pass:        true,
	}
	for _, cs := range states {
		r := cs.result(p, env, allowed)
		if !r.Pass {
			report.Pass = false
		}
		report.Checks = append(report.Checks, r)
	}
	return report, nil
}

// result finalizes one check into its report row.
func (cs *checkState) result(p *synth.Profile, env finishEnv, allowedTestFailures int) CheckResult {
	c := cs.check
	r := CheckResult{
		Name:        c.Name,
		Kind:        c.Kind,
		Anchor:      c.Anchor,
		Description: c.Description,
		Tolerance:   c.Tolerance,
	}
	switch c.Kind {
	case KindStatic:
		out := c.static(p)
		r.Pass = out.Pass
		r.setStat(out.Stat)
		r.Detail = out.Detail
	case KindExact:
		r.Seeds = cs.seeds
		r.FailedSeeds = cs.fails
		r.Pass = cs.fails == 0 && cs.seeds > 0
		if cs.seeds > 0 {
			r.setStat(cs.statSum / float64(cs.seeds))
		}
		r.Detail = cs.firstFail.Detail
	case KindTest:
		r.Seeds = cs.seeds
		r.FailedSeeds = cs.fails
		r.AllowedFailures = allowedTestFailures
		r.Pass = cs.seeds > 0 && cs.fails <= allowedTestFailures
		if cs.seeds > 0 {
			r.setStat(cs.statSum / float64(cs.seeds))
		}
		if !r.Pass && cs.fails > allowedTestFailures {
			r.Detail = fmt.Sprintf("%d of %d seeds failed (budget %d); %s",
				cs.fails, cs.seeds, allowedTestFailures, cs.firstFail.Detail)
		}
	case KindPooled:
		r.Seeds = cs.seeds
		out := c.finish(&cs.pool, env)
		r.Pass = out.Pass && cs.seeds > 0
		r.setStat(out.Stat)
		r.setP(out.P)
		r.Detail = out.Detail
	}
	return r
}
