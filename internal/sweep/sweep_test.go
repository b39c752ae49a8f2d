package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// jsonID extracts the cell ID from one shard NDJSON line.
func jsonID(t *testing.T, line []byte) string {
	t.Helper()
	var rec struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatalf("parsing shard line %q: %v", line, err)
	}
	return rec.ID
}

func testGrid() Grid {
	return Grid{
		Systems:       []string{"t2"},
		CkptIntervals: []float64{0, 24},
		Spares:        []int{-1, 1},
		Accuracies:    []float64{0, 0.5},
		Seeds:         []int64{1, 2},
	}
}

func testParams() Params {
	return Params{
		HorizonHours:        500,
		Crews:               4,
		LeadTimeHours:       72,
		AlarmWindowHours:    24,
		CheckpointCostHours: 0.1,
		RestartCostHours:    0.2,
		LogSeed:             7,
		MinCount:            10,
	}
}

func TestGridEnumeration(t *testing.T) {
	g := testGrid()
	cells := g.Cells()
	if len(cells) != g.Size() || g.Size() != 16 {
		t.Fatalf("got %d cells, Size()=%d, want 16", len(cells), g.Size())
	}
	seen := make(map[string]bool)
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has Index %d", i, c.Index)
		}
		if seen[c.ID] {
			t.Errorf("duplicate cell ID %s", c.ID)
		}
		seen[c.ID] = true
	}
	// Seeds vary fastest, systems slowest.
	if cells[0].ID != "t2/ck0/sp-1/acc0/seed1" {
		t.Errorf("first cell ID = %s", cells[0].ID)
	}
	if cells[1].Seed != 2 || cells[2].Accuracy != 0.5 {
		t.Errorf("enumeration order wrong: %+v %+v", cells[1], cells[2])
	}
}

func TestGridValidate(t *testing.T) {
	with := func(edit func(*Grid)) Grid {
		g := testGrid()
		edit(&g)
		return g
	}
	cases := []struct {
		grid Grid
		want error // a sentinel the error must wrap, or nil for any error
	}{
		{Grid{}, nil},
		{with(func(g *Grid) { g.CkptIntervals = []float64{-1} }), nil},
		{with(func(g *Grid) { g.Spares = []int{-2} }), nil},
		{with(func(g *Grid) { g.Accuracies = []float64{1} }), nil},
		{with(func(g *Grid) { g.CkptIntervals = []float64{0, math.NaN()} }), ErrNonFinite},
		{with(func(g *Grid) { g.CkptIntervals = []float64{math.Inf(1)} }), ErrNonFinite},
		{with(func(g *Grid) { g.Accuracies = []float64{math.NaN()} }), ErrNonFinite},
		{with(func(g *Grid) { g.Accuracies = []float64{math.Inf(-1)} }), ErrNonFinite},
		{with(func(g *Grid) { g.Systems = []string{"t2", "t3", "t2"} }), ErrDuplicate},
		{with(func(g *Grid) { g.CkptIntervals = []float64{24, 24} }), ErrDuplicate},
		{with(func(g *Grid) { g.Spares = []int{-1, -1} }), ErrDuplicate},
		{with(func(g *Grid) { g.Accuracies = []float64{0, math.Copysign(0, -1)} }), ErrDuplicate},
		{with(func(g *Grid) { g.Policies = []string{"none", "batch", "none"} }), ErrDuplicate},
		{with(func(g *Grid) { g.Seeds = []int64{3, 3} }), ErrDuplicate},
	}
	for i, c := range cases {
		err := c.grid.Validate()
		if err == nil || (c.want != nil && !errors.Is(err, c.want)) {
			t.Errorf("case %d: Validate() = %v, want an error wrapping %v", i, err, c.want)
		}
	}
	if err := testGrid().Validate(); err != nil {
		t.Errorf("valid grid rejected: %v", err)
	}
}

func TestParamsValidate(t *testing.T) {
	cases := []func(*Params){
		func(p *Params) { p.HorizonHours = math.Inf(1) },
		func(p *Params) { p.HorizonHours = math.NaN() },
		func(p *Params) { p.LeadTimeHours = math.Inf(1) },
		func(p *Params) { p.AlarmWindowHours = math.Inf(1) },
		func(p *Params) { p.CheckpointCostHours = math.Inf(1) },
		func(p *Params) { p.RestartCostHours = math.Inf(1) },
		func(p *Params) { p.RestartCostHours = math.NaN() },
		func(p *Params) { p.BatchWindowHours = math.Inf(1) },
		func(p *Params) { p.BatchWindowHours = math.NaN() },
	}
	for i, edit := range cases {
		p := testParams()
		edit(&p)
		if err := p.Validate(); !errors.Is(err, ErrNonFinite) {
			t.Errorf("case %d: Validate() = %v, want ErrNonFinite", i, err)
		}
	}
	if err := testParams().Validate(); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestEvaluatorDeterministic(t *testing.T) {
	ev, err := NewEvaluator(testParams(), []string{"t2"})
	if err != nil {
		t.Fatal(err)
	}
	cell := testGrid().Cells()[5]
	a, err := ev.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ev.Run(cell)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same cell evaluated twice diverged:\n%+v\n%+v", a, b)
	}
	if !(a.Availability > 0 && a.Availability <= 1) {
		t.Errorf("availability %v out of range", a.Availability)
	}
	if !(a.CkptEfficiency > 0 && a.CkptEfficiency < 1) {
		t.Errorf("checkpoint efficiency %v out of range", a.CkptEfficiency)
	}
	if a.GoodputFraction != a.Availability*a.CkptEfficiency {
		t.Errorf("goodput %v != availability*efficiency", a.GoodputFraction)
	}
}

func TestEvaluatorRejectsUnknownSystem(t *testing.T) {
	if _, err := NewEvaluator(testParams(), []string{"cray"}); err == nil {
		t.Fatal("unknown system accepted")
	}
	ev, err := NewEvaluator(testParams(), []string{"t2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Run(Cell{ID: "x", System: "t3"}); err == nil {
		t.Fatal("unfitted system accepted")
	}
}

func TestRunGroupRejectsMixedScenarios(t *testing.T) {
	ev, err := NewEvaluator(testParams(), []string{"t2"})
	if err != nil {
		t.Fatal(err)
	}
	cells := testGrid().Cells()
	// cells[0] and cells[1] differ in seed, not just the interval.
	if _, err := ev.RunGroup(cells[:2]); err == nil {
		t.Fatal("RunGroup accepted cells of two scenarios")
	}
}

// TestRunCellsReportsCellError: a cell error must reach the caller even
// when a sibling worker stops on the pool's cancellation. Before, the
// sibling's context.Canceled came from a lower task index and won, so
// the CLI reported an interruption instead of the failing cell.
func TestRunCellsReportsCellError(t *testing.T) {
	ev, err := NewEvaluator(testParams(), []string{"t2"})
	if err != nil {
		t.Fatal(err)
	}
	g := testGrid()
	g.Systems = []string{"t2", "t3"} // t3 was never fitted
	dir := t.TempDir()
	rc := RunnerConfig{Grid: g, Params: testParams(), OutDir: dir, Parallelism: 2}
	err = runCells(context.Background(), rc, ev, filepath.Join(dir, ManifestName), g.Cells())
	if err == nil || errors.Is(err, context.Canceled) || !strings.Contains(err.Error(), "unfitted system") {
		t.Fatalf("runCells = %v, want the unfitted-system cell error", err)
	}
}

func TestRunCellsReturnsCallerCancellation(t *testing.T) {
	ev, err := NewEvaluator(testParams(), []string{"t2"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dir := t.TempDir()
	for _, width := range []int{1, 2} {
		rc := RunnerConfig{Grid: testGrid(), Params: testParams(), OutDir: dir, Parallelism: width}
		err := runCells(ctx, rc, ev, filepath.Join(dir, ManifestName), testGrid().Cells())
		if !errors.Is(err, context.Canceled) {
			t.Errorf("width %d: runCells = %v, want context.Canceled", width, err)
		}
	}
}

func runSweep(t *testing.T, dir string, parallelism int, resume bool) []byte {
	t.Helper()
	report, err := Run(context.Background(), RunnerConfig{
		Grid: testGrid(), Params: testParams(),
		OutDir: dir, Parallelism: parallelism, Resume: resume,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestSweepReportDeterministicAcrossParallelism(t *testing.T) {
	one := runSweep(t, t.TempDir(), 1, false)
	four := runSweep(t, t.TempDir(), 4, false)
	if !bytes.Equal(one, four) {
		t.Fatal("report bytes differ between parallelism 1 and 4")
	}
	if n := bytes.Count(one, []byte("\n")); n != testGrid().Size() {
		t.Fatalf("report has %d lines, want %d", n, testGrid().Size())
	}
}

func TestSweepRefusesDirtyDirWithoutResume(t *testing.T) {
	dir := t.TempDir()
	runSweep(t, dir, 2, false)
	_, err := Run(context.Background(), RunnerConfig{
		Grid: testGrid(), Params: testParams(), OutDir: dir, Parallelism: 2,
	})
	if err == nil || !strings.Contains(err.Error(), "resume") {
		t.Fatalf("re-run without resume: got %v, want refusal mentioning resume", err)
	}
}

// TestSweepResumeAfterTornKill simulates a SIGKILL that tore the
// trailing lines of both the manifest and a shard: the resumed sweep
// must recompute exactly the un-manifested cells and merge to a report
// byte-identical to an uninterrupted run.
func TestSweepResumeAfterTornKill(t *testing.T) {
	want := runSweep(t, t.TempDir(), 2, false)

	dir := t.TempDir()
	runSweep(t, dir, 2, false)
	if err := os.Remove(filepath.Join(dir, ReportName)); err != nil {
		t.Fatal(err)
	}
	// A kill can only tear the protocol in write order: a shard's final
	// line may be partial (its manifest line then never happened), and
	// the manifest's own final line may be partial. Reconstruct that
	// state: tear the last line of a shard, then drop the IDs of the
	// shard's last two lines from the manifest, leaving the second as a
	// torn fragment (its shard line complete but unmanifested — the
	// "killed between the two writes" window).
	shards, err := filepath.Glob(filepath.Join(dir, shardPattern))
	if err != nil || len(shards) == 0 {
		t.Fatalf("no shards: %v", err)
	}
	// Workers pull cells from a shared counter, so one worker may have
	// taken every cell: tear the longest shard, not the first.
	var shard string
	var sdata []byte
	var slines [][]byte
	for _, path := range shards {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if lines := completeLines(data); shard == "" || len(lines) > len(slines) {
			shard, sdata, slines = path, data, lines
		}
	}
	if len(slines) < 2 {
		t.Fatalf("shard too short: %d lines", len(slines))
	}
	tornID := jsonID(t, slines[len(slines)-1])
	orphanID := jsonID(t, slines[len(slines)-2])
	if err := os.WriteFile(shard, sdata[:len(sdata)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	manifestPath := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var torn []byte
	for _, line := range completeLines(data) {
		if string(line) == tornID || string(line) == orphanID {
			continue
		}
		torn = append(torn, line...)
		torn = append(torn, '\n')
	}
	torn = append(torn, orphanID[:5]...) // manifest write itself was torn
	if err := os.WriteFile(manifestPath, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	got := runSweep(t, dir, 3, true) // different worker count on purpose
	if !bytes.Equal(got, want) {
		t.Fatal("resumed report differs from uninterrupted run")
	}
}

func TestMergeFailsOnIncompleteSweep(t *testing.T) {
	dir := t.TempDir()
	runSweep(t, dir, 1, false)
	extra := testGrid()
	extra.Seeds = append(extra.Seeds, 99)
	if _, err := Merge(dir, extra.Cells()); err == nil {
		t.Fatal("merge of incomplete sweep succeeded")
	}
}

func TestCompleteLines(t *testing.T) {
	got := completeLines([]byte("a\nbb\n\nccc"))
	if len(got) != 2 || string(got[0]) != "a" || string(got[1]) != "bb" {
		t.Fatalf("completeLines = %q", got)
	}
	if n := len(completeLines(nil)); n != 0 {
		t.Fatalf("completeLines(nil) = %d lines", n)
	}
}
