// Package sweep grid-searches the paper's operational-implications
// levers — checkpoint interval, spare-pool size, failure-prediction
// accuracy — across system profiles and seeds. It enumerates a
// deterministic cell grid, evaluates each cell with the fitted-process
// simulator, and persists results as resumable sharded NDJSON: one
// shard per worker plus an append-only manifest of completed cell IDs,
// so an interrupted sweep can resume without recomputing finished cells
// and still merge to a byte-identical final report.
package sweep

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/cli"
)

// Grid is the cartesian scenario space of one sweep. Cell enumeration
// order is fixed (system, checkpoint interval, spares, accuracy, seed —
// rightmost fastest) so cell indices and the merged report are stable
// across runs and worker counts.
type Grid struct {
	// Systems are profile names accepted by cli.ParseSystem ("t2", "t3").
	Systems []string
	// CkptIntervals are checkpoint intervals in hours; 0 selects the
	// Young/Daly optimum for the cell's measured MTBF.
	CkptIntervals []float64
	// Spares are per-category initial spare-part stocks (S-1 base-stock
	// policy); -1 means unlimited on-site spares.
	Spares []int
	// Accuracies are failure-prediction accuracies in [0, 1): 0 disables
	// proactive recovery, a in (0, 1) discounts alarmed repairs to
	// (1 - a) of their sampled duration.
	Accuracies []float64
	// Policies are remediation policies: "none" evaluates the plain
	// repair simulator (the historical sweep), and "reactive",
	// "predictive", or "batch" evaluate the closed-loop remediation
	// engine under that policy. Empty means just "none".
	Policies []string
	// Seeds are the per-cell simulation seeds.
	Seeds []int64
}

// PolicyNames are the accepted values of the Policies axis.
var PolicyNames = []string{"none", "reactive", "predictive", "batch"}

// policies returns the normalized policy axis: the configured list, or
// the implicit single "none".
func (g Grid) policies() []string {
	if len(g.Policies) == 0 {
		return []string{"none"}
	}
	return g.Policies
}

// Validate checks every grid axis.
func (g Grid) Validate() error {
	if len(g.Systems) == 0 || len(g.CkptIntervals) == 0 || len(g.Spares) == 0 ||
		len(g.Accuracies) == 0 || len(g.Seeds) == 0 {
		return fmt.Errorf("sweep: every grid axis needs at least one value")
	}
	for _, ck := range g.CkptIntervals {
		if err := finite("checkpoint interval", ck); err != nil {
			return err
		}
		if ck < 0 {
			return fmt.Errorf("sweep: negative checkpoint interval %v", ck)
		}
	}
	for _, sp := range g.Spares {
		if sp < -1 {
			return fmt.Errorf("sweep: spare stock %d below -1 (unlimited)", sp)
		}
	}
	for _, a := range g.Accuracies {
		if err := finite("prediction accuracy", a); err != nil {
			return err
		}
		if a < 0 || a >= 1 {
			return fmt.Errorf("sweep: prediction accuracy %v outside [0, 1)", a)
		}
	}
	for _, p := range g.Policies {
		ok := false
		for _, name := range PolicyNames {
			if p == name {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("sweep: unknown policy %q (want one of %v)", p, PolicyNames)
		}
	}
	// A repeated value would enumerate cells with repeated IDs, and the
	// report would repeat their lines.
	return cli.FirstError(
		distinct("system", g.Systems),
		distinct("checkpoint interval", g.CkptIntervals),
		distinct("spare stock", g.Spares),
		distinct("prediction accuracy", g.Accuracies),
		distinct("policy", g.Policies),
		distinct("seed", g.Seeds),
	)
}

// ErrDuplicate marks a grid axis that lists one value twice.
var ErrDuplicate = errors.New("duplicate axis value")

func distinct[T comparable](axis string, values []T) error {
	seen := make(map[T]bool, len(values))
	for _, v := range values {
		if seen[v] {
			return fmt.Errorf("sweep: %s %v: %w", axis, v, ErrDuplicate)
		}
		seen[v] = true
	}
	return nil
}

// Size is the number of cells the grid enumerates.
func (g Grid) Size() int {
	return len(g.Systems) * len(g.CkptIntervals) * len(g.Spares) *
		len(g.Accuracies) * len(g.policies()) * len(g.Seeds)
}

// Cell is one (scenario, seed) point of the grid.
type Cell struct {
	// Index is the cell's position in enumeration order; the merged
	// report is sorted by it.
	Index int `json:"index"`
	// ID is the human-readable cell key recorded in the manifest, e.g.
	// "t2/ck24/sp2/acc0.5/seed42".
	ID           string  `json:"id"`
	System       string  `json:"system"`
	CkptInterval float64 `json:"ckpt_interval_hours"`
	Spares       int     `json:"spares"`
	Accuracy     float64 `json:"accuracy"`
	// Policy is the remediation policy of the cell: "none" for the plain
	// repair simulator, or a remediate policy name.
	Policy string `json:"policy"`
	Seed   int64  `json:"seed"`
}

// Cells enumerates the grid in its fixed order.
func (g Grid) Cells() []Cell {
	cells := make([]Cell, 0, g.Size())
	for _, sys := range g.Systems {
		for _, ck := range g.CkptIntervals {
			for _, sp := range g.Spares {
				for _, acc := range g.Accuracies {
					for _, pol := range g.policies() {
						for _, seed := range g.Seeds {
							c := Cell{
								Index:        len(cells),
								System:       sys,
								CkptInterval: ck,
								Spares:       sp,
								Accuracy:     acc,
								Policy:       pol,
								Seed:         seed,
							}
							c.ID = cellID(c)
							cells = append(cells, c)
						}
					}
				}
			}
		}
	}
	return cells
}

func cellID(c Cell) string {
	id := c.System +
		"/ck" + strconv.FormatFloat(c.CkptInterval, 'g', -1, 64) +
		"/sp" + strconv.Itoa(c.Spares) +
		"/acc" + strconv.FormatFloat(c.Accuracy, 'g', -1, 64)
	// "none" cells keep their historical IDs so pre-policy manifests
	// stay resumable.
	if c.Policy != "" && c.Policy != "none" {
		id += "/pol" + c.Policy
	}
	return id + "/seed" + strconv.FormatInt(c.Seed, 10)
}
