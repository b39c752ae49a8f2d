package system

import (
	"math"
	"testing"

	"repro/internal/failures"
)

func TestTableIValues(t *testing.T) {
	t2 := Tsubame2Machine()
	if t2.Node.NumGPUs != 3 || t2.Node.NumCPUs != 2 || t2.Node.MemoryGB != 58 || t2.Node.SSDGB != 120 {
		t.Errorf("Tsubame-2 node spec = %+v", t2.Node)
	}
	if t2.RpeakPFlops != 2.3 || t2.PowerKW != 1400 || t2.Nodes != 1408 {
		t.Errorf("Tsubame-2 fleet spec = %+v", t2)
	}
	t3 := Tsubame3Machine()
	if t3.Node.NumGPUs != 4 || t3.Node.NumCPUs != 2 || t3.Node.MemoryGB != 256 || t3.Node.SSDGB != 2048 {
		t.Errorf("Tsubame-3 node spec = %+v", t3.Node)
	}
	if t3.RpeakPFlops != 12.1 || t3.PowerKW != 792 || t3.Nodes != 540 {
		t.Errorf("Tsubame-3 fleet spec = %+v", t3)
	}
}

func TestComponentCountsMatchPaper(t *testing.T) {
	// The paper: "The total number of CPU and GPU components in the
	// system are: 7040 for Tsubame-2 and 3240 for Tsubame-3."
	if got := Tsubame2Machine().ComputeComponents(); got != 7040 {
		t.Errorf("Tsubame-2 components = %d, want 7040", got)
	}
	if got := Tsubame3Machine().ComputeComponents(); got != 3240 {
		t.Errorf("Tsubame-3 components = %d, want 3240", got)
	}
}

func TestComponentRatios(t *testing.T) {
	t2, t3 := Tsubame2Machine(), Tsubame3Machine()
	// GPUs decreased by ~2x, CPUs by ~2.6x (paper: "the number of GPUs
	// has decreased by only 2x ... the number of CPUs also has decreased
	// by ~3x").
	gpuRatio := float64(t2.TotalGPUs()) / float64(t3.TotalGPUs())
	if gpuRatio < 1.8 || gpuRatio > 2.2 {
		t.Errorf("GPU count ratio = %v, want ~2", gpuRatio)
	}
	cpuRatio := float64(t2.TotalCPUs()) / float64(t3.TotalCPUs())
	if cpuRatio < 2.3 || cpuRatio > 3.2 {
		t.Errorf("CPU count ratio = %v, want ~2.6-3", cpuRatio)
	}
}

func TestForSystem(t *testing.T) {
	m, err := ForSystem(failures.Tsubame2)
	if err != nil || m.Name != "Tsubame-2" {
		t.Errorf("ForSystem(T2) = %v, %v", m.Name, err)
	}
	m, err = ForSystem(failures.Tsubame3)
	if err != nil || m.Name != "Tsubame-3" {
		t.Errorf("ForSystem(T3) = %v, %v", m.Name, err)
	}
	if _, err := ForSystem(failures.System(0)); err == nil {
		t.Error("unknown system should fail")
	}
}

func TestNodeIDs(t *testing.T) {
	ids := Tsubame3Machine().NodeIDs()
	if len(ids) != 540 {
		t.Fatalf("%d node IDs, want 540", len(ids))
	}
	if ids[0] != "n0000" || ids[539] != "n0539" {
		t.Errorf("ID format: %q .. %q", ids[0], ids[539])
	}
	seen := make(map[string]bool)
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate node ID %q", id)
		}
		seen[id] = true
	}
}

func TestPerfErrorProp(t *testing.T) {
	t2, _ := PerfErrorProp(Tsubame2Machine(), 15.3)
	t3, _ := PerfErrorProp(Tsubame3Machine(), 72.6)
	// 2.3 PF * 15.3 h * 3600 / 1e6 = 0.1267 ZFLOP.
	if math.Abs(t2.FLOPPerMTBF-0.1267) > 1e-3 {
		t.Errorf("T2 FLOP/MTBF = %v, want ~0.1267", t2.FLOPPerMTBF)
	}
	// Ratio = (12.1*72.6)/(2.3*15.3) ~ 24.96: more useful work per
	// failure-free period even though MTBF improved "only" ~4.7x.
	ratio := t2.Ratio(t3)
	if math.Abs(ratio-24.96) > 0.1 {
		t.Errorf("PEP ratio = %v, want ~24.96", ratio)
	}
	if _, err := PerfErrorProp(Tsubame2Machine(), 0); err == nil {
		t.Error("zero MTBF should fail")
	}
	if _, err := PerfErrorProp(Tsubame2Machine(), -5); err == nil {
		t.Error("negative MTBF should fail")
	}
}

func TestRacks(t *testing.T) {
	t2 := Tsubame2Machine()
	if got := t2.Racks(); got != 44 {
		t.Errorf("Tsubame-2 racks = %d, want 44 (1408/32)", got)
	}
	t3 := Tsubame3Machine()
	if got := t3.Racks(); got != 15 {
		t.Errorf("Tsubame-3 racks = %d, want 15 (ceil(540/36))", got)
	}
	none := Machine{Nodes: 10}
	if none.Racks() != 0 {
		t.Error("machine without rack density should report 0 racks")
	}
}

func TestRackOf(t *testing.T) {
	m := Tsubame2Machine()
	tests := []struct {
		node   string
		rack   int
		wantOK bool
	}{
		{"n0000", 0, true},
		{"n0031", 0, true},
		{"n0032", 1, true},
		{"n1407", 43, true},
		{"n1408", 0, false}, // outside the fleet
		{"x0001", 0, false}, // anonymized / foreign id
		{"", 0, false},
	}
	for _, tt := range tests {
		rack, ok := m.RackOf(tt.node)
		if ok != tt.wantOK || (ok && rack != tt.rack) {
			t.Errorf("RackOf(%q) = %d, %v; want %d, %v", tt.node, rack, ok, tt.rack, tt.wantOK)
		}
	}
}

func TestParseNodeIndex(t *testing.T) {
	tests := []struct {
		in     string
		idx    int
		wantOK bool
	}{
		{"n0000", 0, true},
		{"n0042", 42, true},
		{"n12", 12, true},
		{"n", 0, false},
		{"x0042", 0, false},
		{"n00a2", 0, false},
		{"", 0, false},
	}
	for _, tt := range tests {
		idx, ok := ParseNodeIndex(tt.in)
		if ok != tt.wantOK || (ok && idx != tt.idx) {
			t.Errorf("ParseNodeIndex(%q) = %d, %v; want %d, %v", tt.in, idx, ok, tt.idx, tt.wantOK)
		}
	}
}

// TotalGPUs returns the fleet GPU count.
func (m Machine) TotalGPUs() int { return m.Nodes * m.Node.NumGPUs }

// TotalCPUs returns the fleet CPU count.
func (m Machine) TotalCPUs() int { return m.Nodes * m.Node.NumCPUs }

// ComputeComponents returns the paper's component count: total CPUs plus
// total GPUs (7040 for Tsubame-2, 3240 for Tsubame-3).
func (m Machine) ComputeComponents() int { return m.TotalCPUs() + m.TotalGPUs() }
