package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
)

// subset draws a non-empty subset of pool, keeping pool order; the
// shrink target is pool's first value alone.
func subset[T any](g *testutil.Gen, pool []T) []T {
	var out []T
	for _, v := range pool {
		if g.Bool() {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		out = pool[:1]
	}
	return out
}

// drawGrid draws a small grid: one or two systems, one to three
// checkpoint intervals including 0 at any position, any policy subset
// (empty is the implicit "none"), and one to three seeds.
func drawGrid(g *testutil.Gen) Grid {
	grid := Grid{
		Systems:    subset(g, []string{"t2", "t3"}),
		Spares:     subset(g, []int{-1, 0, 2}),
		Accuracies: subset(g, []float64{0, 0.5}),
	}
	var extra []float64
	for _, ck := range []float64{24, 6} {
		if g.Bool() {
			extra = append(extra, ck)
		}
	}
	at := g.Intn(len(extra) + 1)
	grid.CkptIntervals = append(append(append([]float64{}, extra[:at]...), 0), extra[at:]...)
	for _, p := range PolicyNames {
		if g.Bool() {
			grid.Policies = append(grid.Policies, p)
		}
	}
	base := int64(g.Intn(100))
	for i := g.Range(1, 3); i > 0; i-- {
		grid.Seeds = append(grid.Seeds, base+int64(len(grid.Seeds)))
	}
	return grid
}

// replayReport is the per-cell oracle: Evaluator.Run on every cell in
// grid order, marshalled one line each — the report a single worker
// evaluating cell by cell would write. It also returns each cell's line.
func replayReport(ev *Evaluator, cells []Cell) ([]byte, map[string][]byte, error) {
	var report bytes.Buffer
	lines := make(map[string][]byte, len(cells))
	for _, c := range cells {
		res, err := ev.Run(c)
		if err != nil {
			return nil, nil, err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return nil, nil, err
		}
		lines[c.ID] = line
		report.Write(line)
		report.WriteByte('\n')
	}
	return report.Bytes(), lines, nil
}

// TestPropertySweepMatchesCellReplay: the sweep, which simulates each
// scenario once and balances scenarios over workers dynamically, must
// merge to the per-cell replay's bytes at every width, and also when
// resuming a directory a kill left with only the ck=0 cells of some
// scenarios done and torn trailing lines.
func TestPropertySweepMatchesCellReplay(t *testing.T) {
	params := testParams()
	params.HorizonHours = 200
	root := t.TempDir()
	sweepInto := func(grid Grid, width int, resume bool, dir string) ([]byte, error) {
		report, err := Run(context.Background(), RunnerConfig{
			Grid: grid, Params: params, OutDir: dir, Parallelism: width, Resume: resume,
		})
		if err != nil {
			return nil, err
		}
		return os.ReadFile(report)
	}
	testutil.Check(t, 25, func(g *testutil.Gen) error {
		grid := drawGrid(g)
		ev, err := NewEvaluator(params, grid.Systems)
		if err != nil {
			return err
		}
		cells := grid.Cells()
		want, lines, err := replayReport(ev, cells)
		if err != nil {
			return err
		}
		for _, width := range []int{1, 2, 3} {
			dir, err := os.MkdirTemp(root, "fresh")
			if err != nil {
				return err
			}
			got, err := sweepInto(grid, width, false, dir)
			if err != nil {
				return fmt.Errorf("grid %+v width %d: %w", grid, width, err)
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("grid %+v width %d: report differs from the per-cell replay", grid, width)
			}
		}

		dir, err := os.MkdirTemp(root, "resume")
		if err != nil {
			return err
		}
		var shard, manifest []byte
		for _, c := range cells {
			if c.CkptInterval == 0 && g.Bool() {
				shard = append(append(shard, lines[c.ID]...), '\n')
				manifest = append(manifest, c.ID+"\n"...)
			}
		}
		torn := cells[len(cells)-1]
		shard = append(shard, lines[torn.ID][:len(lines[torn.ID])/2]...)
		manifest = append(manifest, torn.ID[:len(torn.ID)/2]...)
		if err := os.WriteFile(filepath.Join(dir, "shard-0000.ndjson"), shard, 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, ManifestName), manifest, 0o644); err != nil {
			return err
		}
		width := g.Range(1, 3)
		got, err := sweepInto(grid, width, true, dir)
		if err != nil {
			return fmt.Errorf("grid %+v resumed at width %d: %w", grid, width, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("grid %+v resumed at width %d: report differs from the per-cell replay", grid, width)
		}
		return nil
	})
}
