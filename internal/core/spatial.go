package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/system"
)

// RackShare is one rack's share of the node-attributable failures.
type RackShare struct {
	Rack     int
	Failures int
	Percent  float64
}

// SpatialResult quantifies how unevenly failures concentrate across the
// fleet — the rack-level non-uniformity the paper's related-work section
// reports carries over to multi-GPU-per-node systems, plus node-level
// concentration (Gini over affected nodes, and over the whole fleet).
type SpatialResult struct {
	// Racks holds the per-rack shares, sorted by descending failures.
	Racks []RackShare
	// RackGini is the Gini coefficient of failures across all racks
	// (0 = perfectly even, 1 = one rack takes everything).
	RackGini float64
	// NodeGini is the Gini coefficient across all fleet nodes, including
	// nodes that never failed.
	NodeGini float64
	// AffectedNodeGini is the Gini coefficient across affected nodes
	// only, isolating the Figure 4 recurrence effect from fleet sparsity.
	AffectedNodeGini float64
	// Top10PctRackShare is the fraction of failures carried by the
	// busiest 10% of racks.
	Top10PctRackShare float64
	// Lorenz is the rack-level Lorenz curve (share of failures held by
	// the quietest fraction of racks).
	Lorenz []stats.LorenzPoint
}

// spatialShard is one shard's partial reduction over a contiguous range
// of the sorted node list: per-rack counts and the shard's failure total.
// Integer partials merge into the same grand totals in any order, which
// is what keeps the sharded aggregation byte-identical to sequential.
type spatialShard struct {
	rackCounts []int
	total      int
}

// spatialAnalysis computes the rack- and node-level failure concentration
// of a log against its machine's topology, with the per-node aggregation
// sharded across a bounded worker pool; results are identical under any
// width.
func spatialAnalysis(ix *index.View, parallelism int) (*SpatialResult, error) {
	machine, err := system.ForSystem(ix.System())
	if err != nil {
		return nil, err
	}
	perNode := ix.NodeCounts()
	if len(perNode) == 0 {
		return nil, ErrEmptyLog
	}
	// The index's node list is already sorted, so the shard bounds below
	// are deterministic without re-deriving the order.
	nodes := ix.Nodes()

	// Shard the per-node aggregation: each worker owns a contiguous node
	// range, validates it against the topology, accumulates private rack
	// counts, and fills its disjoint slots of the fleet vector.
	fleetVals := make([]float64, machine.Nodes)
	width := parallel.Width(parallelism, len(nodes))
	partials, err := parallel.Map(context.Background(), width, parallel.Shards(len(nodes), width),
		func(_ context.Context, _ int, sh parallel.Range) (spatialShard, error) {
			pt := spatialShard{rackCounts: make([]int, machine.Racks())}
			for _, node := range nodes[sh.Lo:sh.Hi] {
				count := perNode[node]
				rack, ok := machine.RackOf(node)
				if !ok {
					return spatialShard{}, fmt.Errorf("core: node %q outside the %v topology", node, ix.System())
				}
				pt.rackCounts[rack] += count
				pt.total += count
				idx, ok := system.ParseNodeIndex(node)
				if !ok || idx >= machine.Nodes {
					return spatialShard{}, fmt.Errorf("core: node %q outside the %v fleet", node, ix.System())
				}
				fleetVals[idx] = float64(count)
			}
			return pt, nil
		})
	if err != nil {
		return nil, err
	}
	rackCounts := make([]int, machine.Racks())
	total := 0
	for _, pt := range partials {
		for rack, c := range pt.rackCounts {
			rackCounts[rack] += c
		}
		total += pt.total
	}

	res := &SpatialResult{}
	for rack, count := range rackCounts {
		if count == 0 {
			continue
		}
		res.Racks = append(res.Racks, RackShare{
			Rack:     rack,
			Failures: count,
			Percent:  100 * float64(count) / float64(total),
		})
	}
	sort.Slice(res.Racks, func(i, j int) bool {
		if res.Racks[i].Failures != res.Racks[j].Failures {
			return res.Racks[i].Failures > res.Racks[j].Failures
		}
		return res.Racks[i].Rack < res.Racks[j].Rack
	})

	rackVals := make([]float64, len(rackCounts))
	for i, c := range rackCounts {
		rackVals[i] = float64(c)
	}
	if res.RackGini, err = stats.Gini(rackVals); err != nil {
		return nil, err
	}
	if res.Lorenz, err = stats.Lorenz(rackVals); err != nil {
		return nil, err
	}

	if res.NodeGini, err = stats.Gini(fleetVals); err != nil {
		return nil, err
	}

	affected := make([]float64, 0, len(perNode))
	for _, count := range perNode {
		affected = append(affected, float64(count))
	}
	if res.AffectedNodeGini, err = stats.Gini(affected); err != nil {
		return nil, err
	}

	topRacks := len(rackCounts) / 10
	if topRacks < 1 {
		topRacks = 1
	}
	var topSum int
	for i := 0; i < topRacks && i < len(res.Racks); i++ {
		topSum += res.Racks[i].Failures
	}
	res.Top10PctRackShare = float64(topSum) / float64(total)
	return res, nil
}
