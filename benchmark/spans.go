package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// tracer keeps the traced replay's spans in memory until the run ends.
// Spans sit at layer boundaries, around the calls the replay makes into
// each internal package; spans inside the program are not recorded. A
// nil *tracer records nothing, which is how the untraced replay that
// measures the tracing overhead runs. It is used from one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
}

// span is one timed call. Parent indexes the enclosing span (-1 for a
// root) and Req groups the spans of one replayed request or iteration.
type span struct {
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	Parent  int     `json:"parent"`
	Req     int     `json:"req"`
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.origin).Nanoseconds()) / 1e6 }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, StartMS: t.now(), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].EndMS = t.now()
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, req int, fn func() error) error {
	id := t.begin(name, parent, req)
	err := fn()
	t.end(id)
	return err
}

// durations returns every closed span's duration in milliseconds by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s.EndMS-s.StartMS)
	}
	return out
}

// selfMS returns each span name's total self time: its spans' durations
// minus the parts their child spans cover.
func (t *tracer) selfMS() map[string]float64 {
	self := make([]float64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.EndMS - s.StartMS
		if s.Parent >= 0 {
			self[s.Parent] -= s.EndMS - s.StartMS
		}
	}
	out := map[string]float64{}
	for i, s := range t.spans {
		out[s.Name] += self[i]
	}
	return out
}

// traceFile is the document the traced run writes: every span, the
// per-name self times, and the tracing overhead measured against the
// same replay untraced.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Overhead float64            `json:"overhead_frac"`
	SelfMS   map[string]float64 `json:"self_ms"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64, overhead float64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(traceFile{
		Workload: workload, Seed: seed, Overhead: overhead, SelfMS: t.selfMS(), Spans: t.spans,
	}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
