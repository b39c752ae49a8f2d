// Package system models the two studied machines: the node architecture
// and fleet-level specifications of Tsubame-2 and Tsubame-3 (Table I and
// Figure 1 of the paper), component counting, and the paper's proposed
// performance-error-proportionality metric (useful work per failure-free
// period, e.g. total FLOP per MTBF).
package system

import (
	"fmt"

	"repro/internal/failures"
)

// NodeSpec describes one compute node (Table I).
type NodeSpec struct {
	CPUModel      string
	CoresPerCPU   int
	ThreadsPerCPU int
	NumCPUs       int
	MemoryGB      int
	GPUModel      string
	NumGPUs       int
	SSDGB         int
	Interconnect  string
}

// Machine describes one supercomputer generation.
type Machine struct {
	System failures.System
	Name   string
	// Nodes is the fleet size. Tsubame-2 shipped 1408 nodes; Tsubame-3's
	// 540 nodes follow from the paper's component count (3240 CPU+GPU
	// components at 2 CPUs + 4 GPUs per node).
	Nodes int
	// NodesPerRack is the rack packing density, used by the rack-level
	// spatial analysis (the paper's related-work section notes the
	// non-uniform distribution of failures among racks carries over to
	// multi-GPU-per-node systems).
	NodesPerRack int
	Node         NodeSpec
	// RpeakPFlops is the theoretical peak in PFlop/s.
	RpeakPFlops float64
	// PowerKW is the design power in kilowatts.
	PowerKW float64
	// CommissionYear is the year the machine was announced.
	CommissionYear int
}

// Tsubame2Machine returns the Tsubame-2 model (Table I, left column).
func Tsubame2Machine() Machine {
	return Machine{
		System:       failures.Tsubame2,
		Name:         "Tsubame-2",
		Nodes:        1408,
		NodesPerRack: 32,
		Node: NodeSpec{
			CPUModel:      "Intel Xeon X5670 (Westmere-EP, 2.93GHz)",
			CoresPerCPU:   6,
			ThreadsPerCPU: 12,
			NumCPUs:       2,
			MemoryGB:      58,
			GPUModel:      "NVIDIA Tesla K20X (GK110)",
			NumGPUs:       3,
			SSDGB:         120,
			Interconnect:  "4X QDR InfiniBand - 2 ports",
		},
		RpeakPFlops:    2.3,
		PowerKW:        1400,
		CommissionYear: 2010,
	}
}

// Tsubame3Machine returns the Tsubame-3 model (Table I, right column).
func Tsubame3Machine() Machine {
	return Machine{
		System:       failures.Tsubame3,
		Name:         "Tsubame-3",
		Nodes:        540,
		NodesPerRack: 36,
		Node: NodeSpec{
			CPUModel:      "Intel Xeon E5-2680 V4 (Broadwell-EP, 2.4GHz)",
			CoresPerCPU:   14,
			ThreadsPerCPU: 28,
			NumCPUs:       2,
			MemoryGB:      256,
			GPUModel:      "NVIDIA Tesla P100 (NVLink-Optimized)",
			NumGPUs:       4,
			SSDGB:         2048,
			Interconnect:  "Intel Omni-Path HFI 100Gbps - 4 ports",
		},
		RpeakPFlops:    12.1,
		PowerKW:        792,
		CommissionYear: 2017,
	}
}

// ForSystem returns the machine model for a system.
func ForSystem(s failures.System) (Machine, error) {
	switch s {
	case failures.Tsubame2:
		return Tsubame2Machine(), nil
	case failures.Tsubame3:
		return Tsubame3Machine(), nil
	default:
		return Machine{}, fmt.Errorf("system: unknown system %d", int(s))
	}
}

// NodeIDs returns the fleet's node identifiers ("n0000".."nNNNN").
func (m Machine) NodeIDs() []string {
	ids := make([]string, m.Nodes)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%04d", i)
	}
	return ids
}

// Racks returns the rack count (ceiling of nodes over rack density).
func (m Machine) Racks() int {
	if m.NodesPerRack <= 0 {
		return 0
	}
	return (m.Nodes + m.NodesPerRack - 1) / m.NodesPerRack
}

// RackOf maps a node identifier of the "n%04d" form to its rack index.
// ok is false for malformed identifiers or nodes outside the fleet.
func (m Machine) RackOf(nodeID string) (int, bool) {
	idx, ok := ParseNodeIndex(nodeID)
	if !ok || idx >= m.Nodes || m.NodesPerRack <= 0 {
		return 0, false
	}
	return idx / m.NodesPerRack, true
}

// ParseNodeIndex extracts the numeric index from a canonical "n%04d" node
// identifier.
func ParseNodeIndex(nodeID string) (int, bool) {
	if len(nodeID) < 2 || nodeID[0] != 'n' {
		return 0, false
	}
	idx := 0
	for _, c := range nodeID[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		idx = idx*10 + int(c-'0')
	}
	return idx, true
}

// PerfErrorProportionality is the paper's proposed benchmarking metric:
// the maximum useful computation during a failure-free period, expressed
// as total floating-point operations per MTBF window.
type PerfErrorProportionality struct {
	Machine     string
	RpeakPFlops float64
	MTBFHours   float64
	// FLOPPerMTBF is Rpeak * MTBF in units of 1e21 FLOP (ZettaFLOP) so the
	// numbers stay readable.
	FLOPPerMTBF float64
}

// PerfErrorProp computes the metric for a machine and a measured MTBF.
func PerfErrorProp(m Machine, mtbfHours float64) (PerfErrorProportionality, error) {
	if !(mtbfHours > 0) {
		return PerfErrorProportionality{}, fmt.Errorf("system: MTBF must be positive, got %v", mtbfHours)
	}
	// PFlop/s * hours * 3600 s/h = 1e15 FLOP * 3600; divide by 1e6 to land
	// in units of 1e21 FLOP.
	flop := m.RpeakPFlops * mtbfHours * 3600 / 1e6
	return PerfErrorProportionality{
		Machine:     m.Name,
		RpeakPFlops: m.RpeakPFlops,
		MTBFHours:   mtbfHours,
		FLOPPerMTBF: flop,
	}, nil
}

// Ratio returns how much more useful work per failure-free period other
// delivers compared to p.
func (p PerfErrorProportionality) Ratio(other PerfErrorProportionality) float64 {
	return other.FLOPPerMTBF / p.FLOPPerMTBF
}
