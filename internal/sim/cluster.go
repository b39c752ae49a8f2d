package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/sample"
	"repro/internal/spares"
)

// Scope is the blast radius of a failure stream.
type Scope int

// Failure scopes: a node failure takes down one node; a rack failure
// takes down every node of one rack (the Tsubame-2 "Rack" category).
const (
	ScopeNode Scope = iota
	ScopeRack
)

// FailureProcess is one independent failure stream: a category, its
// inter-arrival distribution, and its repair-duration distribution.
// Processes are typically fitted from an analyzed failure log with
// ProcessesFromLog.
type FailureProcess struct {
	Category     failures.Category
	Interarrival dist.Distribution
	Repair       dist.Distribution
	// Scope is the blast radius (default ScopeNode). Rack-scoped
	// processes require Config.NodesPerRack.
	Scope Scope
	// Involvement, when non-empty, is the PMF over how many GPU cards a
	// failure takes down simultaneously (index i means i+1 cards, the
	// Table III distribution). It drives Result.GPUCardIncidents and
	// GPUCardHoursLost; length must not exceed Config.GPUsPerNode.
	Involvement []float64
}

// PartsPolicy abstracts spare-part provisioning (implemented by the spares
// package). Observe is called at every failure occurrence so predictive
// policies can learn the failure rate; Acquire returns how long the repair
// must wait for a part.
type PartsPolicy interface {
	Observe(cat failures.Category, now float64)
	Acquire(cat failures.Category, now float64) (waitHours float64)
}

// Config parameterizes one simulation run.
type Config struct {
	Nodes int
	// NodesPerRack partitions the fleet into racks for rack-scoped
	// failure processes; 0 is allowed when no process is rack-scoped.
	NodesPerRack int
	// GPUsPerNode bounds the involvement PMFs of GPU failure processes;
	// 0 is allowed when no process carries an involvement PMF.
	GPUsPerNode  int
	HorizonHours float64
	Processes    []FailureProcess
	// Crews is the number of simultaneous repairs; 0 means unlimited.
	Crews int
	// Parts supplies spare parts; nil means always available.
	Parts PartsPolicy
	// Proactive, when non-nil, models prediction-initiated recovery (the
	// paper's RQ5 recommendation): a failure arriving within WindowHours
	// of the previous same-category failure repairs at Factor of the
	// sampled duration, because the alarm raised by the first failure let
	// operators stage diagnosis, parts, and staff.
	Proactive *ProactiveRecovery
	// SampleEveryHours, when positive, records a nodes-down time series at
	// that cadence in Result.Series.
	SampleEveryHours float64
	Seed             int64
}

// AvailabilitySample is one point of the nodes-down time series.
type AvailabilitySample struct {
	Hour      float64
	NodesDown int
}

// ProactiveRecovery parameterizes the repair discount of predicted
// failures.
type ProactiveRecovery struct {
	// WindowHours is how long the per-category alarm stays up after a
	// failure.
	WindowHours float64
	// Factor scales the repair duration of failures arriving under an
	// alarm; must be in (0, 1].
	Factor float64
}

func (p *ProactiveRecovery) validate() error {
	if !(p.WindowHours > 0) {
		return fmt.Errorf("sim: proactive window must be positive, got %v", p.WindowHours)
	}
	if !(p.Factor > 0) || p.Factor > 1 {
		return fmt.Errorf("sim: proactive factor %v outside (0, 1]", p.Factor)
	}
	return nil
}

func (c *Config) validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("sim: need at least one node, got %d", c.Nodes)
	}
	if !(c.HorizonHours > 0) {
		return fmt.Errorf("sim: horizon must be positive, got %v", c.HorizonHours)
	}
	if len(c.Processes) == 0 {
		return fmt.Errorf("sim: need at least one failure process")
	}
	seen := make(map[failures.Category]bool, len(c.Processes))
	for i, p := range c.Processes {
		if p.Interarrival == nil || p.Repair == nil {
			return fmt.Errorf("sim: process %d (%s) missing distributions", i, p.Category)
		}
		if seen[p.Category] {
			return fmt.Errorf("sim: duplicate process for category %s", p.Category)
		}
		seen[p.Category] = true
		if p.Scope == ScopeRack && c.NodesPerRack < 1 {
			return fmt.Errorf("sim: rack-scoped process %s requires NodesPerRack", p.Category)
		}
		if p.Scope != ScopeNode && p.Scope != ScopeRack {
			return fmt.Errorf("sim: process %s has unknown scope %d", p.Category, int(p.Scope))
		}
		if len(p.Involvement) > 0 {
			if c.GPUsPerNode < len(p.Involvement) {
				return fmt.Errorf("sim: process %s involvement PMF longer than GPUsPerNode %d", p.Category, c.GPUsPerNode)
			}
			var sum float64
			for j, pr := range p.Involvement {
				if pr < 0 {
					return fmt.Errorf("sim: process %s involvement entry %d negative", p.Category, j)
				}
				sum += pr
			}
			if sum < 0.999 || sum > 1.001 {
				return fmt.Errorf("sim: process %s involvement PMF sums to %v", p.Category, sum)
			}
		}
	}
	if c.Crews < 0 {
		return fmt.Errorf("sim: negative crew count %d", c.Crews)
	}
	if c.SampleEveryHours < 0 {
		return fmt.Errorf("sim: negative sampling cadence %v", c.SampleEveryHours)
	}
	if c.Proactive != nil {
		if err := c.Proactive.validate(); err != nil {
			return err
		}
	}
	return nil
}

// CategoryStats aggregates one category's outcomes.
type CategoryStats struct {
	Failures    int
	RepairHours float64 // hands-on repair time
	WaitHours   float64 // queueing for crews plus parts
}

// Result summarizes a simulation run.
type Result struct {
	Failures int
	// BegunRepairs counts repairs that were dispatched to a crew within
	// the horizon; CompletedRepairs counts those that also finished.
	// DiscountedRepairs counts begun repairs that benefited from the
	// proactive-recovery alarm.
	BegunRepairs      int
	CompletedRepairs  int
	DiscountedRepairs int
	// NodeHoursLost is the union of node-down intervals clipped to the
	// horizon, including repairs still in flight at the end.
	NodeHoursLost float64
	// Availability is 1 - lost/(nodes*horizon).
	Availability float64
	// MeanRepairWait is the average crew+parts wait per begun repair.
	MeanRepairWait float64
	// MeanTimeToRestore is the average failure-to-back-up time per begun
	// repair (wait + hands-on repair).
	MeanTimeToRestore float64
	// PeakQueue is the largest number of repairs waiting for a crew.
	PeakQueue   int
	PerCategory map[failures.Category]CategoryStats
	// Series is the nodes-down time series (empty unless
	// Config.SampleEveryHours was set).
	Series []AvailabilitySample
	// GPUCardIncidents counts card incidents (each involvement-PMF
	// failure contributes its drawn card count); GPUCardHoursLost prices
	// them by repair duration.
	GPUCardIncidents int
	GPUCardHoursLost float64
}

// repairTask is one queued repair, pooled in the run's ring buffer. The
// victim set is a contiguous node range (one node, or a whole rack), so
// a (first, count) pair replaces the per-failure victim slice the old
// engine allocated.
type repairTask struct {
	proc       int32 // index into the run's process table
	firstNode  int32
	nodeCount  int32
	cards      int32 // GPU cards involved (0 for non-GPU processes)
	start      float64
	discounted bool // arrived under a proactive-recovery alarm
}

// procState couples a process with its deterministic sampling streams,
// the alias table for its GPU-involvement PMF (nil when the process
// carries none), and the per-process accumulators folded into the
// Result map once the run ends (categories are unique per validate).
type procState struct {
	proc        FailureProcess
	arrivalRNG  *rand.Rand
	repairRNG   *rand.Rand
	involvement *sample.Alias
	lastArrival float64 // most recent arrival (proactive alarm); -Inf before the first
	stats       CategoryStats
}

// drawInvolvement samples the number of GPU cards a failure takes down
// from the process involvement PMF (0 when the process carries none).
// The alias draw consumes one uniform variate, exactly like the
// cumulative-weight scan it replaced.
func (st *procState) drawInvolvement() int32 {
	if st.involvement == nil {
		return 0
	}
	return int32(st.involvement.Draw(st.arrivalRNG)) + 1
}

// downTracker folds node-down intervals into per-node union lengths
// incrementally. Repairs begin in FIFO order, so interval starts arrive
// non-decreasing per node and the union reduces to extend-or-flush over
// one open interval per node: O(nodes) memory for a fleet-scale decade
// trial instead of O(failures) interval records. The flush arithmetic
// (clip, subtract, accumulate per node, then sum in node order) repeats
// the sort-and-merge union it replaced operation for operation, keeping
// results byte-identical.
type downTracker struct {
	curStart []float64
	curEnd   []float64 // -1 marks "no open interval"
	lost     []float64
	horizon  float64
	// edges collects merged spans as +1/-1 deltas for the nodes-down
	// series; nil unless sampling was requested.
	edges     []downEdge
	wantEdges bool
}

type downEdge struct {
	t     float64
	delta int
}

func newDownTracker(nodes int, horizon float64, wantEdges bool) *downTracker {
	d := &downTracker{
		curStart:  make([]float64, nodes),
		curEnd:    make([]float64, nodes),
		lost:      make([]float64, nodes),
		horizon:   horizon,
		wantEdges: wantEdges,
	}
	for i := range d.curEnd {
		d.curEnd[i] = -1
	}
	return d
}

// add records a node-down interval [start, end). Starts must arrive
// non-decreasing per node (guaranteed by FIFO repair dispatch).
func (d *downTracker) add(node int32, start, end float64) {
	if d.curEnd[node] < 0 {
		d.curStart[node], d.curEnd[node] = start, end
		return
	}
	if start <= d.curEnd[node] {
		if end > d.curEnd[node] {
			d.curEnd[node] = end
		}
		return
	}
	d.flush(node)
	d.curStart[node], d.curEnd[node] = start, end
}

// flush closes the node's open interval: clip to [0, horizon] and charge
// the length, emitting the unclipped span edges for the series sampler.
func (d *downTracker) flush(node int32) {
	s, e := d.curStart[node], d.curEnd[node]
	if d.wantEdges {
		d.edges = append(d.edges, downEdge{s, +1}, downEdge{e, -1})
	}
	if s < 0 {
		s = 0
	}
	if e > d.horizon {
		e = d.horizon
	}
	if e > s {
		d.lost[node] += e - s
	}
}

// total flushes every open interval and sums the per-node losses in node
// order (the summation order of the per-node union loop it replaced).
func (d *downTracker) total() float64 {
	for node := range d.curEnd {
		if d.curEnd[node] >= 0 {
			d.flush(int32(node))
			d.curEnd[node] = -1
		}
	}
	var lost float64
	for _, l := range d.lost {
		lost += l
	}
	return lost
}

// Ring is a FIFO queue over a reused buffer: the waiting-for-a-crew
// queue of this simulator and of the remediation loop. Popped slots are
// reused once the queue drains or the dead prefix dominates, so
// steady-state queueing allocates nothing.
type Ring[T any] struct {
	buf  []T
	head int
}

// Push appends v at the tail.
func (q *Ring[T]) Push(v T) {
	// Compact when the dead prefix dominates a sizable buffer; amortized
	// O(1) per operation.
	if q.head > 64 && q.head*2 >= len(q.buf) {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the head; the ring must not be empty.
func (q *Ring[T]) Pop() T {
	v := q.buf[q.head]
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return v
}

// Len is the number of queued values.
func (q *Ring[T]) Len() int { return len(q.buf) - q.head }

// Pending returns the queued values in FIFO order, aliasing the ring.
func (q *Ring[T]) Pending() []T { return q.buf[q.head:] }

// Run executes the simulation described by cfg. Runs are fully
// deterministic in (cfg, cfg.Seed).
func Run(cfg Config) (*Result, error) {
	defer obs.StartSpan("sim/run").End()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	parts := cfg.Parts
	if parts == nil {
		parts = spares.Unlimited{}
	}
	eng := &Engine{}
	res := &Result{PerCategory: make(map[failures.Category]CategoryStats, len(cfg.Processes))}
	down := newDownTracker(cfg.Nodes, cfg.HorizonHours, cfg.SampleEveryHours > 0)

	states := make([]procState, len(cfg.Processes))
	for i, p := range cfg.Processes {
		st := &states[i]
		st.proc = p
		st.arrivalRNG = dist.Fork(cfg.Seed, "arrival/"+p.Category.String())
		st.repairRNG = dist.Fork(cfg.Seed, "repair/"+p.Category.String())
		st.lastArrival = math.Inf(-1)
		if len(p.Involvement) > 0 {
			alias, err := sample.NewAlias(p.Involvement)
			if err != nil {
				return nil, fmt.Errorf("sim: involvement PMF for %s: %w", p.Category, err)
			}
			st.involvement = alias
		}
	}

	freeCrews := cfg.Crews
	unlimited := cfg.Crews == 0
	var queue Ring[repairTask]
	var totalWait, totalRestore float64

	begin := func(task repairTask) {
		st := &states[task.proc]
		crewWait := eng.Now() - task.start
		partWait := parts.Acquire(st.proc.Category, eng.Now())
		duration := st.proc.Repair.Sample(st.repairRNG)
		if task.discounted {
			duration *= cfg.Proactive.Factor
			res.DiscountedRepairs++
		}
		wait := crewWait + partWait
		end := eng.Now() + partWait + duration

		st.stats.RepairHours += duration
		st.stats.WaitHours += wait
		if task.cards > 0 {
			res.GPUCardIncidents += int(task.cards)
			res.GPUCardHoursLost += float64(task.cards) * duration
		}
		totalWait += wait
		totalRestore += end - task.start
		res.BegunRepairs++
		// Record the down intervals now that the end is known; the
		// tracker clips to the horizon, so repairs finishing past it are
		// charged exactly the in-horizon portion.
		for n := task.firstNode; n < task.firstNode+task.nodeCount; n++ {
			down.add(n, task.start, end)
		}

		eng.ScheduleEvent(partWait+duration, evRepairDone, 0)
	}
	dispatch := func() {
		for queue.Len() > 0 && (unlimited || freeCrews > 0) {
			task := queue.Pop()
			if !unlimited {
				freeCrews--
			}
			begin(task)
		}
	}

	// The typed-event dispatcher replaces one closure per event with one
	// handler per run: arrivals carry their process index, completions
	// free their crew.
	eng.SetHandler(func(kind, arg int32) {
		switch kind {
		case evArrival:
			st := &states[arg]
			res.Failures++
			st.stats.Failures++
			first, count := PickVictims(&st.proc, cfg.Nodes, cfg.NodesPerRack, st.arrivalRNG)
			cards := st.drawInvolvement()
			parts.Observe(st.proc.Category, eng.Now())
			discounted := false
			if cfg.Proactive != nil {
				if eng.Now()-st.lastArrival <= cfg.Proactive.WindowHours {
					discounted = true
				}
				st.lastArrival = eng.Now()
			}
			queue.Push(repairTask{proc: arg, firstNode: first, nodeCount: count, cards: cards, start: eng.Now(), discounted: discounted})
			if queue.Len() > res.PeakQueue {
				res.PeakQueue = queue.Len()
			}
			dispatch()
			eng.ScheduleEvent(st.proc.Interarrival.Sample(st.arrivalRNG), evArrival, arg)
		case evRepairDone:
			res.CompletedRepairs++
			if !unlimited {
				freeCrews++
				dispatch()
			}
		}
	})

	// One self-rescheduling arrival stream per failure process, started
	// in declaration order so event tie-breaking is deterministic.
	for i := range states {
		st := &states[i]
		eng.ScheduleEvent(st.proc.Interarrival.Sample(st.arrivalRNG), evArrival, int32(i))
	}

	eng.Run(cfg.HorizonHours)

	lost := down.total()
	// Tasks still waiting for a crew at the horizon have no recorded
	// interval yet; charge their elapsed downtime per affected node.
	for _, task := range queue.Pending() {
		lost += (cfg.HorizonHours - task.start) * float64(task.nodeCount)
	}
	res.NodeHoursLost = lost
	res.Availability = 1 - lost/(float64(cfg.Nodes)*cfg.HorizonHours)
	if cfg.SampleEveryHours > 0 {
		res.Series = sampleNodesDown(down.edges, cfg.HorizonHours, cfg.SampleEveryHours)
	}
	if res.BegunRepairs > 0 {
		res.MeanRepairWait = totalWait / float64(res.BegunRepairs)
		res.MeanTimeToRestore = totalRestore / float64(res.BegunRepairs)
	}
	for i := range states {
		// Only categories that actually failed appear in the map,
		// matching the incremental map writes of the old run loop.
		if states[i].stats.Failures > 0 {
			res.PerCategory[states[i].proc.Category] = states[i].stats
		}
	}
	return res, nil
}

// PickVictims selects the nodes a failure takes down as a contiguous
// range of a fleet of nodes: one uniform node, or every node of a
// uniform rack for rack-scoped processes (the last rack may be partial).
// Both simulators draw their victims through it.
func PickVictims(proc *FailureProcess, nodes, nodesPerRack int, rng *rand.Rand) (first, count int32) {
	if proc.Scope != ScopeRack {
		return int32(rng.Intn(nodes)), 1
	}
	racks := (nodes + nodesPerRack - 1) / nodesPerRack
	rack := rng.Intn(racks)
	lo := rack * nodesPerRack
	hi := lo + nodesPerRack
	if hi > nodes {
		hi = nodes
	}
	return int32(lo), int32(hi - lo)
}

// sampleNodesDown converts merged node-down span edges into a nodes-down
// time series at the given cadence. Edges arrive as one +1/-1 pair per
// merged per-node span; ends sort before starts at the same instant so a
// node repaired exactly at the sample time counts as up.
func sampleNodesDown(edges []downEdge, horizon, every float64) []AvailabilitySample {
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta
	})
	var series []AvailabilitySample
	down, next := 0, 0
	for t := 0.0; t <= horizon; t += every {
		for next < len(edges) && edges[next].t <= t {
			down += edges[next].delta
			next++
		}
		series = append(series, AvailabilitySample{Hour: t, NodesDown: down})
	}
	return series
}
