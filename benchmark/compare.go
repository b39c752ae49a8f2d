package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// spec is the part of BENCHMARK.json compare applies.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// taggedResult is one line of a file written with --append.
type taggedResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// compareMain compares two sets of runs, A (the baseline) and B, metric
// by metric and workload by workload. A metric breaches when B's median
// is worse than A's by more than its bound, or when either set's spread
// (the distance between the quartiles over the median) exceeds the bound;
// setup_s is exempt from the spread test. Any incorrect run breaches too.
// It prints one row per workload and returns 1 on a breach.
func compareMain(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark description holding the bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [-spec BENCHMARK.json] A.ndjson B.ndjson")
		return 2
	}
	var sp spec
	data, err := os.ReadFile(*specPath)
	if err == nil {
		err = json.Unmarshal(data, &sp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 2
	}
	sets := make([]map[string][]result, 2)
	for i, path := range fs.Args() {
		if sets[i], err = readResults(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 2
		}
	}

	breach := false
	fmt.Fprintf(out, "%-13s %-6s", "workload", "runs")
	for _, m := range sp.EndToEnd {
		fmt.Fprintf(out, " | %-42s", fmt.Sprintf("%s (%s, bound %.0f%%)", m.Name, m.Unit, 100*m.Bound))
	}
	fmt.Fprintln(out, " | verdict")
	for _, w := range workloads {
		a, b := sets[0][w.name], sets[1][w.name]
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		fmt.Fprintf(out, "%-13s %-6s", w.name, fmt.Sprintf("%d/%d", len(a), len(b)))
		verdict := "ok"
		if len(a) < 2 || len(b) < 2 {
			verdict = "BREACH: fewer than two runs in a set"
		} else if !allCorrect(a) || !allCorrect(b) {
			verdict = "BREACH: incorrect run"
		}
		for _, m := range sp.EndToEnd {
			va, vb := values(a, m.Name), values(b, m.Name)
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			bad := !(worse <= m.Bound) || (m.Name != "setup_s" && !(sa <= m.Bound && sb <= m.Bound))
			mark := ""
			if bad {
				mark = " !"
				if verdict == "ok" {
					verdict = "BREACH"
				}
			}
			fmt.Fprintf(out, " | %-42s", fmt.Sprintf("%.4g->%.4g %+.1f%% iqr %.1f%%/%.1f%%%s", ma, mb, 100*(mb-ma)/ma, 100*sa, 100*sb, mark))
		}
		fmt.Fprintln(out, " |", verdict)
		breach = breach || verdict != "ok"
	}
	if breach {
		return 1
	}
	return 0
}

// readResults groups a file's untraced results by workload.
func readResults(path string) (map[string][]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]result{}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r taggedResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if r.Trace == 0 {
			out[r.Workload] = append(out[r.Workload], r.result)
		}
	}
	return out, sc.Err()
}

func allCorrect(rs []result) bool {
	for _, r := range rs {
		if !r.Correct {
			return false
		}
	}
	return true
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// spread is the interquartile range over the median, NaN with fewer than
// two values.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}
