package remediate

import (
	"context"
	"fmt"

	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sim"
)

// ReportSchemaVersion identifies the policy-comparison report layout;
// bump on breaking changes so downstream readers can gate.
const ReportSchemaVersion = 1

// CompareConfig parameterizes a multi-policy, multi-seed comparison.
// Base.Policy, Base.Seed, and Base.Parts are ignored: the policy and
// seed come from the grid, and parts policies are built per run via
// NewParts because sim.PartsPolicy implementations carry mutable stock
// state that must not be shared across parallel runs.
type CompareConfig struct {
	Base     Config
	Policies []Policy
	Seeds    []int64
	// Workers bounds run parallelism; <= 0 means sequential. Output is
	// byte-identical at any worker count: parallel.Map preserves order
	// and each run owns its state.
	Workers int
	// NewParts builds a fresh parts policy for one run; nil means parts
	// are always available.
	NewParts func() sim.PartsPolicy
}

// CategoryRow is one category's outcomes, mean across seeds.
type CategoryRow struct {
	Category     failures.Category `json:"category"`
	Failures     float64           `json:"failures"`
	Remediations float64           `json:"remediations"`
	SparesUsed   float64           `json:"spares_used"`
}

// StepFailureMeans counts failed step attempts by step, mean across
// seeds.
type StepFailureMeans struct {
	Reset   float64 `json:"reset"`
	Replace float64 `json:"replace"`
	Verify  float64 `json:"verify"`
}

// SeedRow is one (policy, seed) run's headline numbers, kept so report
// readers can see spread, not just means.
type SeedRow struct {
	Seed          int64   `json:"seed"`
	Availability  float64 `json:"availability"`
	NodeHoursLost float64 `json:"node_hours_lost"`
	Remediations  int     `json:"remediations"`
}

// PolicySummary is one policy's scorecard: every metric is the mean
// across the comparison seeds.
type PolicySummary struct {
	Policy               string           `json:"policy"`
	Availability         float64          `json:"availability"`
	NodeHoursLost        float64          `json:"node_hours_lost"`
	Failures             float64          `json:"failures"`
	NodeFailures         float64          `json:"node_failures"`
	Predicted            float64          `json:"predicted"`
	Averted              float64          `json:"averted"`
	FalseAlarms          float64          `json:"false_alarms"`
	Cordons              float64          `json:"cordons"`
	Remediations         float64          `json:"remediations"`
	Escalations          float64          `json:"escalations"`
	StepFailures         StepFailureMeans `json:"step_failures"`
	SparesConsumed       float64          `json:"spares_consumed"`
	SpareWaitHours       float64          `json:"spare_wait_hours"`
	MeanRemediationHours float64          `json:"mean_remediation_hours"`
	PeakCordoned         float64          `json:"peak_cordoned"`
	PerCategory          []CategoryRow    `json:"per_category"`
	PerSeed              []SeedRow        `json:"per_seed"`
}

// Report is the policy-comparison report emitted by tsubame-remediate.
type Report struct {
	SchemaVersion int             `json:"schema_version"`
	Nodes         int             `json:"nodes"`
	HorizonHours  float64         `json:"horizon_hours"`
	Crews         int             `json:"crews"`
	Predictor     PredictorReport `json:"predictor"`
	Seeds         []int64         `json:"seeds"`
	Policies      []PolicySummary `json:"policies"`
	// Winner is the policy with the highest mean availability; ties keep
	// the earlier policy in comparison order.
	Winner string `json:"winner"`
}

// PredictorReport echoes the oracle settings into the report.
type PredictorReport struct {
	Accuracy           float64 `json:"accuracy"`
	LeadTimeHours      float64 `json:"lead_time_hours"`
	FalseAlarmsPerYear float64 `json:"false_alarms_per_year"`
}

// Compare runs every policy over every seed and aggregates per-policy
// scorecards. The failure tape for a given seed is identical across
// policies (arrival streams are forked independently of policy and
// predictor draws), so differences in the scorecards are attributable to
// the policies alone. Output is deterministic in (cfg, seeds) and
// byte-identical at any Workers setting.
func Compare(cc CompareConfig) (*Report, error) {
	defer obs.StartSpan("remediate/compare").End()
	if len(cc.Policies) == 0 {
		return nil, fmt.Errorf("remediate: compare needs at least one policy")
	}
	if len(cc.Seeds) == 0 {
		return nil, fmt.Errorf("remediate: compare needs at least one seed")
	}
	names := make(map[string]bool, len(cc.Policies))
	for _, p := range cc.Policies {
		if err := validatePolicy(p); err != nil {
			return nil, err
		}
		if names[p.Name()] {
			return nil, fmt.Errorf("remediate: duplicate policy %q in comparison", p.Name())
		}
		names[p.Name()] = true
	}

	type cell struct {
		policy Policy
		seed   int64
	}
	cells := make([]cell, 0, len(cc.Policies)*len(cc.Seeds))
	for _, p := range cc.Policies {
		for _, seed := range cc.Seeds {
			cells = append(cells, cell{p, seed})
		}
	}
	results, err := parallel.Map(context.Background(), cc.Workers, cells,
		func(_ context.Context, _ int, c cell) (*Result, error) {
			cfg := cc.Base
			cfg.Policy = c.policy
			cfg.Seed = c.seed
			cfg.Parts = nil
			if cc.NewParts != nil {
				cfg.Parts = cc.NewParts()
			}
			return Run(cfg)
		})
	if err != nil {
		return nil, err
	}

	rep := &Report{
		SchemaVersion: ReportSchemaVersion,
		Nodes:         cc.Base.Nodes,
		HorizonHours:  cc.Base.HorizonHours,
		Crews:         cc.Base.Crews,
		Predictor: PredictorReport{
			Accuracy:           cc.Base.Predictor.Accuracy,
			LeadTimeHours:      cc.Base.Predictor.LeadTimeHours,
			FalseAlarmsPerYear: cc.Base.Predictor.FalseAlarmsPerYear,
		},
		Seeds:    append([]int64(nil), cc.Seeds...),
		Policies: make([]PolicySummary, 0, len(cc.Policies)),
	}
	n := float64(len(cc.Seeds))
	bestAvail := 0.0
	for pi, p := range cc.Policies {
		sum := PolicySummary{Policy: p.Name()}
		perCat := make(map[failures.Category]CategoryRow)
		for si := range cc.Seeds {
			res := results[pi*len(cc.Seeds)+si]
			sum.Availability += res.Availability / n
			sum.NodeHoursLost += res.NodeHoursLost / n
			sum.Failures += float64(res.Failures) / n
			sum.NodeFailures += float64(res.NodeFailures) / n
			sum.Predicted += float64(res.Predicted) / n
			sum.Averted += float64(res.Averted) / n
			sum.FalseAlarms += float64(res.FalseAlarms) / n
			sum.Cordons += float64(res.Cordons) / n
			sum.Remediations += float64(res.Remediations) / n
			sum.Escalations += float64(res.Escalations) / n
			sum.StepFailures.Reset += float64(res.StepFailures.Reset) / n
			sum.StepFailures.Replace += float64(res.StepFailures.Replace) / n
			sum.StepFailures.Verify += float64(res.StepFailures.Verify) / n
			sum.SparesConsumed += float64(res.SparesConsumed) / n
			sum.SpareWaitHours += res.SpareWaitHours / n
			sum.MeanRemediationHours += res.MeanRemediationHours / n
			sum.PeakCordoned += float64(res.PeakCordoned) / n
			for cat, cs := range res.PerCategory {
				row := perCat[cat]
				row.Category = cat
				row.Failures += float64(cs.Failures) / n
				row.Remediations += float64(cs.Remediations) / n
				row.SparesUsed += float64(cs.SparesUsed) / n
				perCat[cat] = row
			}
			sum.PerSeed = append(sum.PerSeed, SeedRow{
				Seed:          cc.Seeds[si],
				Availability:  res.Availability,
				NodeHoursLost: res.NodeHoursLost,
				Remediations:  res.Remediations,
			})
		}
		sum.PerCategory = sortedRows(perCat)
		rep.Policies = append(rep.Policies, sum)
		if rep.Winner == "" || sum.Availability > bestAvail {
			rep.Winner, bestAvail = sum.Policy, sum.Availability
		}
	}
	return rep, nil
}

// sortedRows flattens a category map into lexically ordered rows so JSON
// output is deterministic.
func sortedRows(m map[failures.Category]CategoryRow) []CategoryRow {
	rows := make([]CategoryRow, 0, len(m))
	for _, cat := range failures.SortedCategories(m) {
		rows = append(rows, m[cat])
	}
	return rows
}
