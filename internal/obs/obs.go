// Package obs is the repository's observability substrate: lightweight
// counters, gauges, and named spans with near-zero cost when disabled,
// plus the machine-readable run manifest every CLI can emit and the
// pprof/expvar debug endpoint of the long-running tools.
//
// The package keeps one process-global registry. Instrumentation sites
// call StartSpan/Add/SetGauge unconditionally; when collection is
// disabled (the default) each call is a single atomic load and an
// immediate return, so instrumented hot paths stay within noise of the
// uninstrumented ones (bench_test.go pairs them). Enabling collection —
// done by the CLIs when -manifest or -debug-addr is given, and by the
// span-reporting benchmarks — turns the same call sites into recorders.
//
// Span names are hierarchical slash-paths ("core/tbf", "sim/trial",
// "synth/generate"); docs/OBSERVABILITY.md lists the stable names.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates every recording site. Collection is off by default so
// library users pay only an atomic load per site.
var enabled atomic.Bool

// Enable turns metric collection on or off and reports the previous
// state. Disabling does not clear already-recorded data; Reset does.
func Enable(on bool) (was bool) { return enabled.Swap(on) }

// spanStat accumulates one named span's observations. Fields are updated
// with atomics so concurrent spans (the parallel pool, simulation trials)
// never contend on more than the registry read-lock.
type spanStat struct {
	count     atomic.Int64
	wallNanos atomic.Int64
	maxNanos  atomic.Int64
}

func (s *spanStat) observe(d time.Duration) {
	n := d.Nanoseconds()
	s.count.Add(1)
	s.wallNanos.Add(n)
	for {
		old := s.maxNanos.Load()
		if n <= old || s.maxNanos.CompareAndSwap(old, n) {
			return
		}
	}
}

// registry is the process-global metric store.
var registry = struct {
	mu       sync.RWMutex
	spans    map[string]*spanStat
	counters map[string]*atomic.Int64
	gauges   map[string]*atomic.Int64 // float64 bits
}{
	spans:    map[string]*spanStat{},
	counters: map[string]*atomic.Int64{},
	gauges:   map[string]*atomic.Int64{},
}

// Reset clears every recorded span, counter, and gauge (the enabled flag
// is left as-is). Benchmarks call it between measurement windows.
func Reset() {
	registry.mu.Lock()
	registry.spans = map[string]*spanStat{}
	registry.counters = map[string]*atomic.Int64{}
	registry.gauges = map[string]*atomic.Int64{}
	registry.mu.Unlock()
}

// spanFor returns the named accumulator, creating it on first use.
func spanFor(name string) *spanStat {
	registry.mu.RLock()
	s := registry.spans[name]
	registry.mu.RUnlock()
	if s != nil {
		return s
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if s = registry.spans[name]; s == nil {
		s = &spanStat{}
		registry.spans[name] = s
	}
	return s
}

// Span is an in-flight timing measurement. The zero Span (returned when
// collection is disabled) is inert: End on it is a single branch.
type Span struct {
	name  string
	start time.Time
}

// StartSpan begins timing the named region. Use with defer:
//
//	defer obs.StartSpan("core/tbf").End()
//
// When collection is disabled the returned Span is inert and the call
// costs one atomic load.
func StartSpan(name string) Span {
	if !enabled.Load() {
		return Span{}
	}
	return Span{name: name, start: time.Now()}
}

// End stops the span and records its wall duration under its name.
func (s Span) End() {
	if s.name == "" {
		return
	}
	spanFor(s.name).observe(time.Since(s.start))
}

// Add increments the named counter by delta.
func Add(name string, delta int64) {
	if !enabled.Load() {
		return
	}
	registry.mu.RLock()
	c := registry.counters[name]
	registry.mu.RUnlock()
	if c == nil {
		registry.mu.Lock()
		if c = registry.counters[name]; c == nil {
			c = &atomic.Int64{}
			registry.counters[name] = c
		}
		registry.mu.Unlock()
	}
	c.Add(delta)
}

// SetGauge records the current value of the named gauge (last write
// wins).
func SetGauge(name string, value float64) {
	if !enabled.Load() {
		return
	}
	registry.mu.RLock()
	g := registry.gauges[name]
	registry.mu.RUnlock()
	if g == nil {
		registry.mu.Lock()
		if g = registry.gauges[name]; g == nil {
			g = &atomic.Int64{}
			registry.gauges[name] = g
		}
		registry.mu.Unlock()
	}
	g.Store(int64(math.Float64bits(value)))
}

// SpanTiming is one named span's aggregate in a Snapshot.
type SpanTiming struct {
	Name        string  `json:"name"`
	Count       int64   `json:"count"`
	WallSeconds float64 `json:"wall_seconds"`
	MaxSeconds  float64 `json:"max_seconds"`
}

// Snapshot is a consistent copy of the registry, ordered for stable
// output: spans by name, counters and gauges as plain maps.
type Snapshot struct {
	Spans    []SpanTiming       `json:"spans,omitempty"`
	Counters map[string]int64   `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// Take returns a snapshot of everything recorded so far.
func Take() Snapshot {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	snap := Snapshot{}
	if len(registry.spans) > 0 {
		snap.Spans = make([]SpanTiming, 0, len(registry.spans))
		for name, s := range registry.spans {
			snap.Spans = append(snap.Spans, SpanTiming{
				Name:        name,
				Count:       s.count.Load(),
				WallSeconds: float64(s.wallNanos.Load()) / 1e9,
				MaxSeconds:  float64(s.maxNanos.Load()) / 1e9,
			})
		}
		sort.Slice(snap.Spans, func(i, j int) bool { return snap.Spans[i].Name < snap.Spans[j].Name })
	}
	if len(registry.counters) > 0 {
		snap.Counters = make(map[string]int64, len(registry.counters))
		for name, c := range registry.counters {
			snap.Counters[name] = c.Load()
		}
	}
	if len(registry.gauges) > 0 {
		snap.Gauges = make(map[string]float64, len(registry.gauges))
		for name, g := range registry.gauges {
			snap.Gauges[name] = math.Float64frombits(uint64(g.Load()))
		}
	}
	return snap
}
