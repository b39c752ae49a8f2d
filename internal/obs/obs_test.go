package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// withCollection runs fn with collection enabled on a clean registry and
// restores the previous state after.
func withCollection(t *testing.T, fn func()) {
	t.Helper()
	was := Enable(true)
	Reset()
	defer func() {
		Enable(was)
		Reset()
	}()
	fn()
}

func TestSpanDisabledIsInert(t *testing.T) {
	Enable(false)
	Reset()
	StartSpan("never").End()
	Add("never", 1)
	SetGauge("never", 1)
	Observe("never", time.Second)
	snap := Take()
	if len(snap.Spans) != 0 || len(snap.Counters) != 0 || len(snap.Gauges) != 0 {
		t.Fatalf("disabled collection recorded data: %+v", snap)
	}
}

func TestSpanRecordsWallTime(t *testing.T) {
	withCollection(t, func() {
		s := StartSpan("test/sleep")
		time.Sleep(5 * time.Millisecond)
		s.End()
		StartSpan("test/sleep").End()
		snap := Take()
		sp, ok := snap.SpanByName("test/sleep")
		if !ok {
			t.Fatal("span not recorded")
		}
		if sp.Count != 2 {
			t.Errorf("count = %d, want 2", sp.Count)
		}
		if sp.WallSeconds < 0.004 {
			t.Errorf("wall = %v, want >= ~5ms", sp.WallSeconds)
		}
		if sp.MaxSeconds < 0.004 || sp.MaxSeconds > sp.WallSeconds {
			t.Errorf("max = %v outside (0.004, wall=%v]", sp.MaxSeconds, sp.WallSeconds)
		}
	})
}

func TestCountersGaugesAndOrdering(t *testing.T) {
	withCollection(t, func() {
		Add("items", 3)
		Add("items", 4)
		SetGauge("width", 8)
		SetGauge("width", 4)
		Observe("b/span", time.Millisecond)
		Observe("a/span", time.Millisecond)
		snap := Take()
		if snap.Counters["items"] != 7 {
			t.Errorf("counter = %d, want 7", snap.Counters["items"])
		}
		if snap.Gauges["width"] != 4 {
			t.Errorf("gauge = %v, want 4 (last write wins)", snap.Gauges["width"])
		}
		if len(snap.Spans) != 2 || snap.Spans[0].Name != "a/span" || snap.Spans[1].Name != "b/span" {
			t.Errorf("spans not name-ordered: %+v", snap.Spans)
		}
	})
}

func TestConcurrentRecordingIsRaceFree(t *testing.T) {
	withCollection(t, func() {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					StartSpan(fmt.Sprintf("worker/%d", w%2)).End()
					Add("ops", 1)
					SetGauge("last", float64(i))
				}
			}(w)
		}
		wg.Wait()
		snap := Take()
		if snap.Counters["ops"] != 8*200 {
			t.Errorf("ops = %d, want %d", snap.Counters["ops"], 8*200)
		}
		var total int64
		for _, sp := range snap.Spans {
			total += sp.Count
		}
		if total != 8*200 {
			t.Errorf("span observations = %d, want %d", total, 8*200)
		}
	})
}

func TestManifestRoundTrip(t *testing.T) {
	was := Enabled()
	defer func() {
		Enable(was)
		Reset()
	}()
	Reset()
	m := NewManifest("tsubame-test")
	if !Enabled() {
		t.Fatal("NewManifest should enable collection")
	}
	m.AddSeed(42)
	m.AddSeedRange(100, 3)
	m.Profile = "tsubame2"
	m.PoolWidth = 4
	m.SetRecordCount("records", 897)
	StartSpan("core/tbf").End()

	var buf bytes.Buffer
	if err := m.Write(&buf); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if back.Tool != "tsubame-test" || back.GoVersion == "" || back.GOOS == "" {
		t.Errorf("build stamps missing: %+v", back)
	}
	wantSeeds := []int64{42, 100, 101, 102}
	if len(back.Seeds) != len(wantSeeds) {
		t.Fatalf("seeds = %v, want %v", back.Seeds, wantSeeds)
	}
	for i, s := range wantSeeds {
		if back.Seeds[i] != s {
			t.Errorf("seeds[%d] = %d, want %d", i, back.Seeds[i], s)
		}
	}
	if back.RecordCounts["records"] != 897 || back.Profile != "tsubame2" || back.PoolWidth != 4 {
		t.Errorf("provenance fields lost: %+v", back)
	}
	if back.WallSeconds < 0 || back.End.Before(back.Start) {
		t.Errorf("timing fields inconsistent: %+v", back)
	}
	// A running process holds at least its binary's resident pages; a
	// unit mix-up (bytes read as kilobytes) would report terabytes.
	if runtime.GOOS == "linux" && !(back.MaxRSSMB > 0.5 && back.MaxRSSMB < 1<<20) {
		t.Errorf("max_rss_mb = %v, want a live process's peak", back.MaxRSSMB)
	}
	if _, ok := back.Metrics.SpanByName("core/tbf"); !ok {
		t.Errorf("metrics snapshot missing span: %+v", back.Metrics)
	}
}

func TestManifestWriteFile(t *testing.T) {
	was := Enabled()
	defer func() {
		Enable(was)
		Reset()
	}()
	m := NewManifest("tsubame-test")
	path := t.TempDir() + "/manifest.json"
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Manifest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("file manifest is not valid JSON: %v", err)
	}
}

func TestServeDebugEndpoints(t *testing.T) {
	was := Enabled()
	defer func() {
		Enable(was)
		Reset()
	}()
	addr, shutdown, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	for _, path := range []string{"/debug/vars", "/debug/pprof/"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
}
