package main

import (
	"bytes"
	"context"
	"fmt"
	"os"

	"repro/internal/synth"
)

// writeScaledProfile exports the Tsubame-3 profile with tsubame-gen
// -export-profile, multiplies every count by factor as bench_perf_test.go
// does (the fleet too, so the per-node failure distribution keeps its
// shape), and writes it to path for tsubame-gen -profile. The profile is
// returned for the in-process replays.
func (e *env) writeScaledProfile(ctx context.Context, factor int, path string) (*synth.Profile, error) {
	var out bytes.Buffer
	if _, err := e.run(ctx, &out, "tsubame-gen", "-system", "t3", "-export-profile"); err != nil {
		return nil, err
	}
	p, err := synth.ReadProfile(&out)
	if err != nil {
		return nil, fmt.Errorf("reading the exported profile: %w", err)
	}
	for i := range p.Categories {
		p.Categories[i].Count *= factor
	}
	for i := range p.SoftwareCauses {
		p.SoftwareCauses[i].Count *= factor
	}
	p.NodeCount *= factor
	p.SoftwareOnMultiNodes *= factor
	var buf bytes.Buffer
	if err := synth.WriteProfile(&buf, p); err != nil {
		return nil, err
	}
	return p, os.WriteFile(path, buf.Bytes(), 0o644)
}
