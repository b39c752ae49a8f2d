package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Manifest is the machine-readable provenance record of one tool run: it
// attributes an output (a report, a generated log, a simulation summary)
// to the exact tool version, inputs, and timings that produced it. Every
// cmd/tsubame-* binary emits one under -manifest; the schema is
// documented in docs/OBSERVABILITY.md and kept append-only so downstream
// consumers can rely on the fields below.
type Manifest struct {
	// Tool is the emitting binary's name, e.g. "tsubame-gen".
	Tool string `json:"tool"`
	// Version is the build's module version (from the embedded build
	// info), "(devel)" for plain `go build` / `go run` trees.
	Version string `json:"version"`
	// VCSRevision is the commit the binary was built from, when stamped.
	VCSRevision string `json:"vcs_revision,omitempty"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`

	Start       time.Time `json:"start"`
	End         time.Time `json:"end"`
	WallSeconds float64   `json:"wall_seconds"`
	// CPUSeconds is process-level user+system CPU time (0 where the
	// platform does not expose rusage).
	CPUSeconds float64 `json:"cpu_seconds"`
	// MaxRSSMB is the process's peak resident set size in MB (2^20
	// bytes), from the same rusage call (0 off unix).
	MaxRSSMB float64 `json:"max_rss_mb"`

	// Seeds are the deterministic seeds the run consumed, in use order.
	Seeds []int64 `json:"seeds,omitempty"`
	// Profile is the calibration profile name driving generation, when
	// one was used.
	Profile string `json:"profile,omitempty"`
	// PoolWidth is the resolved worker-pool width (after clamping), 0
	// when the tool ran no pool.
	PoolWidth int `json:"pool_width,omitempty"`
	// RecordCounts maps labeled data volumes, e.g. {"records": 897}.
	RecordCounts map[string]int `json:"record_counts,omitempty"`
	// Args echoes the command line (flags and operands, not the binary
	// path) for reproduction.
	Args []string `json:"args,omitempty"`

	// Metrics is the span/counter/gauge snapshot at Finish time; the
	// per-phase wall timings of the analysis battery live here.
	Metrics Snapshot `json:"metrics"`
}

// NewManifest starts a manifest for the named tool, stamping build info
// and the start time, and enables metric collection so the run's spans
// are captured.
func NewManifest(tool string) *Manifest {
	m := &Manifest{
		Tool:      tool,
		Version:   "(devel)",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Start:     time.Now(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			m.Version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				m.VCSRevision = s.Value
			}
		}
	}
	Enable(true)
	return m
}

// AddSeed appends a consumed seed.
func (m *Manifest) AddSeed(seed int64) { m.Seeds = append(m.Seeds, seed) }

// AddSeedRange appends the consecutive seeds [first, first+n).
func (m *Manifest) AddSeedRange(first int64, n int) {
	for i := 0; i < n; i++ {
		m.Seeds = append(m.Seeds, first+int64(i))
	}
}

// SetRecordCount stores a labeled data volume.
func (m *Manifest) SetRecordCount(label string, n int) {
	if m.RecordCounts == nil {
		m.RecordCounts = map[string]int{}
	}
	m.RecordCounts[label] = n
}

// Finish stamps the end time, wall/CPU totals, peak memory, and the
// metric snapshot.
// It is idempotent in the sense that a later Finish overwrites with
// fresher values.
func (m *Manifest) Finish() {
	m.End = time.Now()
	m.WallSeconds = m.End.Sub(m.Start).Seconds()
	m.CPUSeconds, m.MaxRSSMB = processUsage()
	m.Metrics = Take()
}

// Write finishes the manifest and serializes it as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	m.Finish()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("obs: encoding manifest: %w", err)
	}
	return nil
}

// WriteFile finishes the manifest and writes it to path ("-" for
// stdout).
func (m *Manifest) WriteFile(path string) error {
	if path == "-" {
		return m.Write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: creating manifest file: %w", err)
	}
	err = m.Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
