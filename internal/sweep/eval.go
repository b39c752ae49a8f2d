package sweep

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cli"
	"repro/internal/remediate"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/spares"
	"repro/internal/synth"
	"repro/internal/system"
)

// Params are the sweep-wide knobs shared by every cell: the simulation
// horizon and crew pool, the spare-part lead time, the prediction alarm
// window, and the checkpoint cost model.
type Params struct {
	HorizonHours float64
	// Crews bounds simultaneous repairs; 0 means unlimited.
	Crews int
	// LeadTimeHours is the spare-part delivery latency of finite-stock
	// cells.
	LeadTimeHours float64
	// AlarmWindowHours is how long a prediction alarm stays up
	// (ProactiveRecovery.WindowHours) in accuracy > 0 cells.
	AlarmWindowHours float64
	// CheckpointCostHours and RestartCostHours parameterize the
	// Young/Daly checkpoint model.
	CheckpointCostHours float64
	RestartCostHours    float64
	// BatchWindowHours is the maintenance-window cadence of "batch"
	// policy cells; 0 selects the default weekly window.
	BatchWindowHours float64
	// LogSeed seeds the synthetic failure log each system's processes
	// are fitted from.
	LogSeed int64
	// MinCount is the fitting threshold per category (ProcessesFromLog).
	MinCount int
}

// ErrNonFinite marks a parameter or grid value that is NaN or infinite.
// No sweep knob gives infinity a meaning: an infinite horizon never
// ends, and a NaN poisons every derived column.
var ErrNonFinite = errors.New("value must be finite")

// finite rejects a NaN or infinite value, naming it.
func finite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("sweep: %s %v: %w", name, v, ErrNonFinite)
	}
	return nil
}

// Validate checks the shared parameters.
func (p Params) Validate() error {
	if err := cli.FirstError(
		finite("horizon", p.HorizonHours),
		finite("lead time", p.LeadTimeHours),
		finite("alarm window", p.AlarmWindowHours),
		finite("checkpoint cost", p.CheckpointCostHours),
		finite("restart cost", p.RestartCostHours),
		finite("batch window", p.BatchWindowHours),
	); err != nil {
		return err
	}
	if !(p.HorizonHours > 0) {
		return fmt.Errorf("sweep: horizon must be positive, got %v", p.HorizonHours)
	}
	if p.Crews < 0 {
		return fmt.Errorf("sweep: negative crew count %d", p.Crews)
	}
	if !(p.LeadTimeHours > 0) {
		return fmt.Errorf("sweep: lead time must be positive, got %v", p.LeadTimeHours)
	}
	if !(p.AlarmWindowHours > 0) {
		return fmt.Errorf("sweep: alarm window must be positive, got %v", p.AlarmWindowHours)
	}
	if !(p.CheckpointCostHours > 0) {
		return fmt.Errorf("sweep: checkpoint cost must be positive, got %v", p.CheckpointCostHours)
	}
	if p.RestartCostHours < 0 {
		return fmt.Errorf("sweep: negative restart cost %v", p.RestartCostHours)
	}
	if p.BatchWindowHours < 0 {
		return fmt.Errorf("sweep: negative batch window %v", p.BatchWindowHours)
	}
	return nil
}

// batchWindow is the effective "batch" policy cadence: the configured
// window, defaulting to one week.
func (p Params) batchWindow() float64 {
	if p.BatchWindowHours > 0 {
		return p.BatchWindowHours
	}
	return 168
}

// Result is one evaluated cell: the scenario identity plus the headline
// operational numbers. Field order is the NDJSON column order.
type Result struct {
	Cell
	Availability      float64 `json:"availability"`
	NodeHoursLost     float64 `json:"node_hours_lost"`
	Failures          int     `json:"failures"`
	MeanRepairWait    float64 `json:"mean_repair_wait_hours"`
	MTBFHours         float64 `json:"mtbf_hours"`
	EffectiveInterval float64 `json:"effective_ckpt_interval_hours"`
	CkptEfficiency    float64 `json:"ckpt_efficiency"`
	// GoodputFraction is availability times checkpoint efficiency: the
	// fraction of the fleet-hour budget doing useful work.
	GoodputFraction float64 `json:"goodput_fraction"`
	// Remediations, Averted, and SparesConsumed are populated by policy
	// cells (Policy != "none"): completed remediation cycles, predicted
	// incidents absorbed by proactive drains, and parts consumed.
	Remediations   int `json:"remediations"`
	Averted        int `json:"averted"`
	SparesConsumed int `json:"spares_consumed"`
}

type systemModel struct {
	procs   []sim.FailureProcess
	machine system.Machine
}

// Evaluator evaluates cells against per-system fitted failure
// processes. Building one fits each referenced system's processes once;
// Run is safe for concurrent use because the fitted models are
// read-only and every mutable piece of simulation state is per-call.
type Evaluator struct {
	params  Params
	systems map[string]systemModel
}

// NewEvaluator fits the failure processes of every system the grid
// references and captures the shared parameters.
func NewEvaluator(p Params, systemNames []string) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	ev := &Evaluator{params: p, systems: make(map[string]systemModel)}
	for _, name := range systemNames {
		if _, ok := ev.systems[name]; ok {
			continue
		}
		sys, err := cli.ParseSystem(name)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		log, err := synth.GenerateSystem(sys, p.LogSeed)
		if err != nil {
			return nil, fmt.Errorf("sweep: generating %s log: %w", name, err)
		}
		procs, err := sim.ProcessesFromLog(log, p.MinCount)
		if err != nil {
			return nil, fmt.Errorf("sweep: fitting %s processes: %w", name, err)
		}
		machine, err := system.ForSystem(sys)
		if err != nil {
			return nil, fmt.Errorf("sweep: %w", err)
		}
		ev.systems[name] = systemModel{procs: procs, machine: machine}
	}
	return ev, nil
}

// Run evaluates one cell. Results are deterministic in the cell alone:
// the same cell produces the same Result bytes on every run, which is
// what makes resumed sweeps merge byte-identically.
func (e *Evaluator) Run(c Cell) (Result, error) {
	res, err := e.RunGroup([]Cell{c})
	if err != nil {
		return Result{}, err
	}
	return res[0], nil
}

// scenario is the cell without its position and checkpoint interval:
// everything the simulators see. The interval only enters the
// Young/Daly columns that finish derives after the simulation, so cells
// sharing a scenario share one simulation.
func (c Cell) scenario() Cell {
	c.Index, c.ID, c.CkptInterval = 0, "", 0
	return c
}

// RunGroup evaluates cells that share one scenario (they differ at most
// in CkptInterval) with a single simulation, returning one Result per
// cell in input order, each equal to what Run returns for that cell.
func (e *Evaluator) RunGroup(cells []Cell) ([]Result, error) {
	if len(cells) == 0 {
		return nil, nil
	}
	for _, c := range cells[1:] {
		if c.scenario() != cells[0].scenario() {
			return nil, fmt.Errorf("sweep: cells %s and %s differ in more than the checkpoint interval", cells[0].ID, c.ID)
		}
	}
	out, err := e.simulate(cells[0])
	if err != nil {
		return nil, err
	}
	results := make([]Result, len(cells))
	for i, c := range cells {
		if results[i], err = e.finish(c, out); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// simulate runs the cell's scenario and returns the simulator outcome
// as a Result with only the raw columns set. Cells with a remediation
// policy run the closed-loop engine; "none" cells run the plain repair
// simulator.
func (e *Evaluator) simulate(c Cell) (Result, error) {
	m, ok := e.systems[c.System]
	if !ok {
		return Result{}, fmt.Errorf("sweep: cell %s references unfitted system %q", c.ID, c.System)
	}
	if c.Policy != "" && c.Policy != "none" {
		return e.simulatePolicy(c, m)
	}
	cfg := sim.Config{
		Nodes:        m.machine.Nodes,
		NodesPerRack: m.machine.NodesPerRack,
		GPUsPerNode:  m.machine.Node.NumGPUs,
		HorizonHours: e.params.HorizonHours,
		Processes:    m.procs,
		Crews:        e.params.Crews,
		Seed:         c.Seed,
	}
	if c.Spares >= 0 {
		parts, err := spares.NewFixedStock(c.Spares, e.params.LeadTimeHours)
		if err != nil {
			return Result{}, fmt.Errorf("sweep: cell %s: %w", c.ID, err)
		}
		cfg.Parts = parts
	}
	if c.Accuracy > 0 {
		cfg.Proactive = &sim.ProactiveRecovery{
			WindowHours: e.params.AlarmWindowHours,
			Factor:      1 - c.Accuracy,
		}
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return Result{}, fmt.Errorf("sweep: cell %s: %w", c.ID, err)
	}
	return Result{
		Availability:   res.Availability,
		NodeHoursLost:  res.NodeHoursLost,
		Failures:       res.Failures,
		MeanRepairWait: res.MeanRepairWait,
	}, nil
}

// simulatePolicy runs a remediation-policy scenario with the
// closed-loop engine on the same fitted processes, spares, and accuracy
// knobs as the plain cells, so policy and no-policy rows are comparable
// within a grid.
func (e *Evaluator) simulatePolicy(c Cell, m systemModel) (Result, error) {
	policy, err := remediate.PolicyByName(c.Policy, e.params.batchWindow())
	if err != nil {
		return Result{}, fmt.Errorf("sweep: cell %s: %w", c.ID, err)
	}
	cfg := remediate.Config{
		Nodes:        m.machine.Nodes,
		NodesPerRack: m.machine.NodesPerRack,
		HorizonHours: e.params.HorizonHours,
		Processes:    m.procs,
		Crews:        e.params.Crews,
		Policy:       policy,
		Steps:        remediate.DefaultSteps(),
		Seed:         c.Seed,
	}
	if c.Accuracy > 0 {
		// The alarm window doubles as the prediction lead: how far ahead
		// of a failure the oracle raises its alarm.
		cfg.Predictor = remediate.Predictor{
			Accuracy:      c.Accuracy,
			LeadTimeHours: e.params.AlarmWindowHours,
		}
	}
	if c.Spares >= 0 {
		parts, err := spares.NewFixedStock(c.Spares, e.params.LeadTimeHours)
		if err != nil {
			return Result{}, fmt.Errorf("sweep: cell %s: %w", c.ID, err)
		}
		cfg.Parts = parts
	}
	res, err := remediate.Run(cfg)
	if err != nil {
		return Result{}, fmt.Errorf("sweep: cell %s: %w", c.ID, err)
	}
	return Result{
		Availability:   res.Availability,
		NodeHoursLost:  res.NodeHoursLost,
		Failures:       res.Failures,
		MeanRepairWait: res.MeanRemediationHours,
		Remediations:   res.Remediations,
		Averted:        res.Averted,
		SparesConsumed: res.SparesConsumed,
	}, nil
}

// finish completes a simulated outcome for one cell: the measured MTBF,
// the cell's checkpoint interval (the Young/Daly optimum when 0), its
// checkpoint efficiency, and the goodput fraction.
func (e *Evaluator) finish(c Cell, out Result) (Result, error) {
	mtbf := e.params.HorizonHours
	if out.Failures > 0 {
		mtbf = e.params.HorizonHours / float64(out.Failures)
	}
	model := sched.CheckpointModel{
		CheckpointCostHours: e.params.CheckpointCostHours,
		RestartCostHours:    e.params.RestartCostHours,
		MTBFHours:           mtbf,
	}
	tau := c.CkptInterval
	if tau == 0 {
		tau = model.OptimalInterval()
	}
	eff, err := model.Efficiency(tau)
	if err != nil {
		return Result{}, fmt.Errorf("sweep: cell %s: %w", c.ID, err)
	}
	out.Cell = c
	out.MTBFHours = mtbf
	out.EffectiveInterval = tau
	out.CkptEfficiency = eff
	out.GoodputFraction = out.Availability * eff
	return out, nil
}
