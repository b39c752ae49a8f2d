package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

// benchmarkSpec is BENCHMARK.json as far as the smoke test reads it.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestWorkloadsSmoke runs every workload, untraced and traced, at reduced
// scale (a 10k-record log and trace, a 64-cell grid, 1 s per mode) through the
// benchmark's own run code, and checks that every correctness check passes
// and that the metrics it prints are exactly BENCHMARK.json's.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the cmd/ binaries")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var listed, ours []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(listed, ours) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", listed, ours)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		want[true][m.Name] = m.Unit
	}

	ctx := context.Background()
	bin := t.TempDir()
	if err := buildTools(ctx, root, bin); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, traced), func(t *testing.T) {
				e := &env{
					bin:     bin,
					work:    filepath.Join(t.TempDir(), "work"),
					seed:    7,
					seconds: time.Second,
					scale:   smokeScale,
					traced:  traced,
				}
				tracePath := filepath.Join(t.TempDir(), "trace.json")
				var out bytes.Buffer
				res, err := run(ctx, e, w.make, w.name, tracePath, &out)
				if err != nil || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("err %v, result %+v\n%s", err, res, out.String())
				}
				got := map[string]string{}
				for name, m := range res.Metrics {
					got[name] = m.Unit
				}
				if !maps.Equal(got, want[traced]) {
					t.Errorf("metrics %v, BENCHMARK.json lists %v", got, want[traced])
				}
				lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
				var last result
				if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
					t.Errorf("last output line is not the result: %v", err)
				}
				if _, err := os.Stat(tracePath); traced && err != nil {
					t.Errorf("traced run wrote no trace: %v", err)
				}
			})
		}
	}
}

// TestCompareBreaches checks compare's verdicts on two hand-made sets: a
// shift inside every bound passes, a shift beyond one breaches.
func TestCompareBreaches(t *testing.T) {
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specPath, []byte(`{"end_to_end": [
		{"name": "op_s", "unit": "s", "better": "lower", "bound": 0.1},
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, op, setup []float64) string {
		var buf bytes.Buffer
		for i := range op {
			line, _ := json.Marshal(taggedResult{Workload: "analyze-100k", result: result{
				Correct: true, Attempted: 1,
				Metrics: map[string]metric{"op_s": {op[i], "s"}, "setup_s": {setup[i], "s"}},
			}})
			buf.Write(append(line, '\n'))
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.ndjson", []float64{1.00, 1.01, 0.99, 1.00}, []float64{0.5, 0.9, 0.5, 0.5})
	near := write("b.ndjson", []float64{1.04, 1.05, 1.03, 1.04}, []float64{0.55, 0.55, 0.1, 0.55})
	far := write("c.ndjson", []float64{1.20, 1.21, 1.19, 1.20}, []float64{0.5, 0.5, 0.5, 0.5})
	for _, c := range []struct {
		b    string
		want int
	}{{near, 0}, {far, 1}} {
		var out bytes.Buffer
		if got := compareMain([]string{"-spec", specPath, base, c.b}, &out); got != c.want {
			t.Errorf("compare against %s: exit %d, want %d\n%s", filepath.Base(c.b), got, c.want, out.String())
		}
	}
}
