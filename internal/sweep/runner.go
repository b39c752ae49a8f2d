package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// On-disk layout of a sweep directory. Shard files hold one NDJSON
// Result per completed cell (one file per worker, append-only); the
// manifest holds one completed cell ID per line and is the source of
// truth for resume; the report is the deterministic merge of the
// shards in cell-index order.
const (
	ManifestName = "cells.manifest"
	ReportName   = "SWEEP_report.ndjson"
	shardPattern = "shard-*.ndjson"
)

// RunnerConfig parameterizes one sweep execution.
type RunnerConfig struct {
	Grid   Grid
	Params Params
	// OutDir is the sweep directory (created if missing).
	OutDir string
	// Parallelism bounds concurrent workers; <= 0 uses
	// parallel.DefaultParallelism.
	Parallelism int
	// Resume skips cells recorded in an existing manifest. Without it,
	// Run refuses a directory that already has one, so two sweeps cannot
	// silently interleave results.
	Resume bool
}

// Run executes the sweep and returns the merged report path.
//
// Crash safety is a two-file protocol: a worker writes a cell's result
// line to its shard (one unbuffered write) before appending the cell ID
// to the shared manifest. A kill between the two leaves an orphan shard
// line whose cell is recomputed on resume; the duplicate is harmless
// because results are deterministic and the merge dedupes by cell ID. A
// torn trailing line in either file (no final newline) is discarded on
// read. The merged report is therefore byte-identical whether the sweep
// ran straight through or was killed and resumed, at any parallelism.
func Run(ctx context.Context, rc RunnerConfig) (string, error) {
	defer obs.StartSpan("sweep/run").End()
	if err := rc.Grid.Validate(); err != nil {
		return "", err
	}
	ev, err := NewEvaluator(rc.Params, rc.Grid.Systems)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(rc.OutDir, 0o755); err != nil {
		return "", fmt.Errorf("sweep: %w", err)
	}
	manifestPath := filepath.Join(rc.OutDir, ManifestName)
	if _, err := os.Stat(manifestPath); err == nil && !rc.Resume {
		return "", fmt.Errorf("sweep: %s exists; pass resume to continue it or choose a fresh directory", manifestPath)
	}
	done, err := loadManifest(manifestPath)
	if err != nil {
		return "", err
	}

	cells := rc.Grid.Cells()
	todo := make([]Cell, 0, len(cells))
	for _, c := range cells {
		if !done[c.ID] {
			todo = append(todo, c)
		}
	}
	obs.Add("sweep.cells.total", int64(len(cells)))
	obs.Add("sweep.cells.skipped", int64(len(cells)-len(todo)))

	if len(todo) > 0 {
		if err := runCells(ctx, rc, ev, manifestPath, todo); err != nil {
			return "", err
		}
	}
	return Merge(rc.OutDir, cells)
}

// runCells groups todo by scenario, so each scenario is simulated once
// however many checkpoint intervals it has, and fans the groups out
// over shard-owning workers that pull the next group from a shared
// counter. Groups keep their first-appearance order, which in the
// system-major grid dispatches the costliest systems first; dynamic
// pulling then leaves workers at most one group apart.
func runCells(ctx context.Context, rc RunnerConfig, ev *Evaluator, manifestPath string, todo []Cell) error {
	groups := groupByScenario(todo)
	workers := parallel.Width(rc.Parallelism, len(groups))
	manifest, err := openAppendSane(manifestPath)
	if err != nil {
		return err
	}
	defer manifest.Close()
	var manifestMu sync.Mutex

	var next atomic.Int64
	tasks := make([]func(context.Context) error, workers)
	for w := range tasks {
		tasks[w] = func(ctx context.Context) error {
			shard, err := openShard(rc.OutDir, w)
			if err != nil {
				return err
			}
			defer shard.Close()
			for {
				i := int(next.Add(1) - 1)
				// A worker stopped by cancellation reports nothing: the
				// cause is the sibling's cell error or the caller's
				// ctx.Err(), both returned below.
				if i >= len(groups) || ctx.Err() != nil {
					return nil
				}
				if err := runGroup(ev, groups[i], shard, manifest, &manifestMu); err != nil {
					return err
				}
			}
		}
	}
	if err := parallel.Do(ctx, workers, tasks...); err != nil {
		return err
	}
	return ctx.Err()
}

// groupByScenario splits cells into runs sharing one scenario, in order
// of each scenario's first cell; cells keep their order within a group.
func groupByScenario(cells []Cell) [][]Cell {
	index := make(map[Cell]int)
	var groups [][]Cell
	for _, c := range cells {
		k := c.scenario()
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], c)
	}
	return groups
}

// runGroup simulates one scenario and persists each of its cells.
func runGroup(ev *Evaluator, cells []Cell, shard, manifest *os.File, manifestMu *sync.Mutex) error {
	span := obs.StartSpan("sweep/scenario")
	results, err := ev.RunGroup(cells)
	span.End()
	if err != nil {
		return err
	}
	obs.Add("sweep.simulations", 1)
	for _, res := range results {
		line, err := json.Marshal(res)
		if err != nil {
			return fmt.Errorf("sweep: cell %s: %w", res.ID, err)
		}
		// Result first, manifest second: a cell is only "done" once its
		// bytes are on disk. Both writes are single unbuffered syscalls.
		if _, err := shard.Write(append(line, '\n')); err != nil {
			return fmt.Errorf("sweep: cell %s: %w", res.ID, err)
		}
		manifestMu.Lock()
		_, err = manifest.WriteString(res.ID + "\n")
		manifestMu.Unlock()
		if err != nil {
			return fmt.Errorf("sweep: cell %s: %w", res.ID, err)
		}
		obs.Add("sweep.cells.done", 1)
	}
	return nil
}

// openShard opens worker w's shard for appending. Shard numbering is
// per-invocation; a resumed sweep with a different worker count simply
// appends to however many shards it uses, and the merge reads them all.
func openShard(dir string, w int) (*os.File, error) {
	return openAppendSane(filepath.Join(dir, fmt.Sprintf("shard-%04d.ndjson", w)))
}

// openAppendSane opens path for appending after truncating any torn
// trailing fragment a killed run left behind — otherwise the first
// appended line would concatenate onto the fragment and corrupt both
// records. Callers own the file exclusively, so read-truncate-append is
// race-free.
func openAppendSane(path string) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: %w", err)
	}
	keep := int64(bytes.LastIndexByte(data, '\n') + 1)
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: %w", err)
	}
	if _, err := f.Seek(keep, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: %w", err)
	}
	return f, nil
}

// loadManifest reads the completed-cell set, tolerating a torn trailing
// line from a killed run.
func loadManifest(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]bool{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	done := make(map[string]bool)
	for _, line := range completeLines(data) {
		done[string(line)] = true
	}
	return done, nil
}

// completeLines splits NDJSON data into newline-terminated lines,
// dropping a torn final fragment (and empty lines).
func completeLines(data []byte) [][]byte {
	var lines [][]byte
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			return lines // no trailing newline: torn fragment, drop it
		}
		if i > 0 {
			lines = append(lines, data[:i])
		}
		data = data[i+1:]
	}
}

// Merge reads every shard in the sweep directory and writes the final
// report: one Result line per cell, in cell-index order, re-marshalled
// from the parsed records so the bytes do not depend on which run or
// worker produced each line. It fails if any cell is missing.
func Merge(dir string, cells []Cell) (string, error) {
	defer obs.StartSpan("sweep/merge").End()
	shards, err := filepath.Glob(filepath.Join(dir, shardPattern))
	if err != nil {
		return "", fmt.Errorf("sweep: %w", err)
	}
	sort.Strings(shards)
	byID := make(map[string]Result, len(cells))
	for _, path := range shards {
		data, err := os.ReadFile(path)
		if err != nil {
			return "", fmt.Errorf("sweep: %w", err)
		}
		for n, line := range completeLines(data) {
			var res Result
			if err := json.Unmarshal(line, &res); err != nil {
				return "", fmt.Errorf("sweep: %s line %d: %w", path, n+1, err)
			}
			byID[res.ID] = res // duplicates are identical by determinism
		}
	}
	var buf bytes.Buffer
	for _, c := range cells {
		res, ok := byID[c.ID]
		if !ok {
			return "", fmt.Errorf("sweep: cell %s missing from shards; sweep incomplete", c.ID)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return "", fmt.Errorf("sweep: cell %s: %w", c.ID, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	report := filepath.Join(dir, ReportName)
	tmp := report + ".tmp"
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return "", fmt.Errorf("sweep: %w", err)
	}
	if err := os.Rename(tmp, report); err != nil {
		return "", fmt.Errorf("sweep: %w", err)
	}
	return report, nil
}
