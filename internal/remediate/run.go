package remediate

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dist"
	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spares"
)

// StepProfile parameterizes the remediation pipeline: one duration
// distribution per step plus per-step failure probabilities and the
// reset retry budget before escalating to a part replacement.
type StepProfile struct {
	// Drain is the time for running jobs to finish after a cordon (only
	// charged on proactive remediations; a failed node has nothing left
	// to drain).
	Drain dist.Distribution
	// Reset is one reset attempt (driver reload, reboot, reseat).
	Reset dist.Distribution
	// Replace is one part-replacement attempt; spare-part waits from the
	// parts policy add on top.
	Replace dist.Distribution
	// Verify is the post-maintenance health check.
	Verify dist.Distribution
	// ResetFailProb, ReplaceFailProb, and VerifyFailProb are per-attempt
	// failure probabilities in [0, 1).
	ResetFailProb   float64
	ReplaceFailProb float64
	VerifyFailProb  float64
	// MaxResets is how many reset attempts may fail before the pipeline
	// escalates to Replacing.
	MaxResets int
}

func (sp *StepProfile) validate() error {
	if sp.Drain == nil || sp.Reset == nil || sp.Replace == nil || sp.Verify == nil {
		return fmt.Errorf("remediate: step profile is missing a duration distribution")
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"reset", sp.ResetFailProb},
		{"replace", sp.ReplaceFailProb},
		{"verify", sp.VerifyFailProb},
	} {
		if p.v < 0 || p.v >= 1 {
			return fmt.Errorf("remediate: %s failure probability %v outside [0, 1)", p.name, p.v)
		}
	}
	if sp.MaxResets < 0 {
		return fmt.Errorf("remediate: negative reset budget %d", sp.MaxResets)
	}
	return nil
}

// DefaultSteps returns the calibrated default step profile: minutes-to-
// an-hour resets, multi-hour replacements, and a drain of a couple of
// hours, in line with published GPU-fleet remediation practice (Xid-
// driven resets, part swaps with on-site spares).
func DefaultSteps() StepProfile {
	mustLogNormal := func(mean, median float64) dist.Distribution {
		d, err := dist.LogNormalFromMoments(mean, median)
		if err != nil {
			panic(fmt.Sprintf("remediate: default step profile: %v", err))
		}
		return d
	}
	return StepProfile{
		Drain:           mustLogNormal(2, 1.5),
		Reset:           mustLogNormal(0.75, 0.5),
		Replace:         mustLogNormal(6, 4),
		Verify:          mustLogNormal(1, 0.8),
		ResetFailProb:   0.2,
		ReplaceFailProb: 0.05,
		VerifyFailProb:  0.1,
		MaxResets:       2,
	}
}

// Predictor is the accuracy-parameterized failure-prediction oracle: a
// fraction Accuracy of failure incidents is flagged LeadTimeHours before
// occurrence, and false alarms arrive fleet-wide at FalseAlarmsPerYear.
// The oracle consumes its own deterministic random stream, so failure
// arrival times are identical across accuracy settings and policies.
type Predictor struct {
	// Accuracy is the fraction of incidents predicted, in [0, 1).
	Accuracy float64
	// LeadTimeHours is how far ahead of occurrence a prediction fires;
	// must be positive when Accuracy > 0.
	LeadTimeHours float64
	// FalseAlarmsPerYear is the fleet-wide Poisson rate of spurious
	// predictions per 8760 hours.
	FalseAlarmsPerYear float64
}

func (p *Predictor) validate() error {
	if p.Accuracy < 0 || p.Accuracy >= 1 {
		return fmt.Errorf("remediate: prediction accuracy %v outside [0, 1)", p.Accuracy)
	}
	if p.Accuracy > 0 && !(p.LeadTimeHours > 0) {
		return fmt.Errorf("remediate: prediction lead time must be positive with accuracy %v", p.Accuracy)
	}
	if p.LeadTimeHours < 0 {
		return fmt.Errorf("remediate: negative prediction lead time %v", p.LeadTimeHours)
	}
	if p.FalseAlarmsPerYear < 0 {
		return fmt.Errorf("remediate: negative false-alarm rate %v", p.FalseAlarmsPerYear)
	}
	return nil
}

// Config parameterizes one remediation simulation.
type Config struct {
	Nodes int
	// NodesPerRack partitions the fleet for rack-scoped failure
	// processes; 0 is allowed when no process is rack-scoped.
	NodesPerRack int
	HorizonHours float64
	// Processes are the failure streams, fitted with
	// sim.ProcessesFromLog or constructed directly.
	Processes []sim.FailureProcess
	// Crews bounds concurrent remediations; 0 means unlimited. A crew is
	// held from drain start through verification.
	Crews int
	// Policy decides when remediation starts.
	Policy Policy
	// Steps is the remediation step profile (DefaultSteps if zero dists
	// are not wanted; the zero value fails validation).
	Steps StepProfile
	// Predictor is the prediction oracle; the zero value disables
	// predictions and false alarms.
	Predictor Predictor
	// Parts supplies spare parts for Replacing steps; nil means always
	// available.
	Parts sim.PartsPolicy
	Seed  int64
}

func (c *Config) validate() error {
	if c.Nodes < 1 {
		return fmt.Errorf("remediate: need at least one node, got %d", c.Nodes)
	}
	if !(c.HorizonHours > 0) {
		return fmt.Errorf("remediate: horizon must be positive, got %v", c.HorizonHours)
	}
	if len(c.Processes) == 0 {
		return fmt.Errorf("remediate: need at least one failure process")
	}
	seen := make(map[failures.Category]bool, len(c.Processes))
	for i, p := range c.Processes {
		if p.Interarrival == nil || p.Repair == nil {
			return fmt.Errorf("remediate: process %d (%s) missing distributions", i, p.Category)
		}
		if seen[p.Category] {
			return fmt.Errorf("remediate: duplicate process for category %s", p.Category)
		}
		seen[p.Category] = true
		if p.Scope == sim.ScopeRack && c.NodesPerRack < 1 {
			return fmt.Errorf("remediate: rack-scoped process %s requires NodesPerRack", p.Category)
		}
		if p.Scope != sim.ScopeNode && p.Scope != sim.ScopeRack {
			return fmt.Errorf("remediate: process %s has unknown scope %d", p.Category, int(p.Scope))
		}
	}
	if c.Crews < 0 {
		return fmt.Errorf("remediate: negative crew count %d", c.Crews)
	}
	if err := validatePolicy(c.Policy); err != nil {
		return err
	}
	if err := c.Steps.validate(); err != nil {
		return err
	}
	return c.Predictor.validate()
}

// StepFailures counts failed remediation-step attempts by step.
type StepFailures struct {
	Reset   int `json:"reset"`
	Replace int `json:"replace"`
	Verify  int `json:"verify"`
}

// CategoryStats aggregates one category's remediation outcomes.
type CategoryStats struct {
	Failures     int `json:"failures"`
	Remediations int `json:"remediations"`
	SparesUsed   int `json:"spares_used"`
}

// Result summarizes one remediation simulation run.
type Result struct {
	// Failures counts failure incidents (a rack-scoped incident counts
	// once); NodeFailures counts per-node failure events.
	Failures     int
	NodeFailures int
	// Predicted counts incidents flagged by the oracle; Averted counts
	// predicted incidents that landed while the node was already under
	// remediation, so no fresh outage started.
	Predicted   int
	Averted     int
	FalseAlarms int
	// Cordons counts applied cordon decisions; Remediations counts
	// completed cycles (verification passed).
	Cordons      int
	Remediations int
	// Escalations counts reset pipelines that exhausted the retry budget
	// and escalated to a part replacement.
	Escalations  int
	StepFailures StepFailures
	// SparesConsumed counts parts taken from the parts policy;
	// SpareWaitHours is the summed wait for them.
	SparesConsumed int
	SpareWaitHours float64
	// NodeHoursLost is the union of node-down intervals clipped to the
	// horizon; Availability is 1 - lost/(nodes*horizon).
	NodeHoursLost float64
	Availability  float64
	// MeanRemediationHours is the average failure-or-cordon to
	// back-in-service time over completed remediations.
	MeanRemediationHours float64
	// PeakCordoned is the most nodes simultaneously cordoned and waiting
	// for a crew.
	PeakCordoned int
	PerCategory  map[failures.Category]CategoryStats
}

// Event kinds for the calendar-queue engine. Kind 0 is reserved by the
// engine for closure events, so remediation kinds start at 1.
const (
	evkArrival int32 = iota + 1
	evkPredict
	evkFalseAlarm
	evkCordon
	evkDrainDone
	evkStepDone
	evkVerifyDone
)

// procRun couples a failure process with its deterministic sampling
// stream and the pending (already scheduled, not yet fired) arrival.
type procRun struct {
	proc       sim.FailureProcess
	arrivalRNG *rand.Rand
	// pendingFirst/pendingCount is the victim range of the scheduled
	// arrival; pendingPredicted marks it oracle-flagged.
	pendingFirst     int32
	pendingCount     int32
	pendingPredicted bool
	stats            CategoryStats
}

// nodeRun is one node's live remediation state.
type nodeRun struct {
	state State
	// cat is the failure category driving the current remediation (used
	// for spare-part acquisition and per-category attribution).
	cat failures.Category
	// resets counts failed reset attempts in the current cycle.
	resets int
	// remStart is when the current remediation clock started: the
	// failure instant for detected failures, the cordon instant for
	// proactive remediations.
	remStart float64
	// proactive marks the current remediation as prediction-initiated
	// (cordoned while Healthy); only proactive remediations can avert a
	// predicted incident.
	proactive bool
	// openSince is the start of the node's open down interval; NaN while
	// the node is up. A node has at most one open interval, so downtime
	// can never be double-counted across failure and remediation.
	openSince float64
}

// run holds the mutable state of one simulation.
type run struct {
	cfg    *Config
	eng    *sim.Engine
	parts  sim.PartsPolicy
	procs  []procRun
	nodes  []nodeRun
	res    *Result
	queue  sim.Ring[int32] // node indices waiting for a crew
	free   int
	unlim  bool
	stepR  *rand.Rand
	predR  *rand.Rand
	alarmR *rand.Rand
	// cordoned tracks nodes in Cordoned state for the peak gauge.
	cordoned int
	// remHours accumulates completed remediation durations.
	remHours float64
	// err records a state-machine violation; the loop stops scheduling
	// once set (a violation is a bug, surfaced by Run's return).
	err error
}

// Run executes the remediation simulation described by cfg. Runs are
// fully deterministic in (cfg, cfg.Seed): every random draw comes from a
// purpose-forked stream consumed in event order, and failure arrival
// times are identical across policies and predictor settings so policy
// comparisons see the same failure tape.
func Run(cfg Config) (*Result, error) {
	defer obs.StartSpan("remediate/run").End()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := &run{
		cfg:    &cfg,
		eng:    &sim.Engine{},
		parts:  cfg.Parts,
		nodes:  make([]nodeRun, cfg.Nodes),
		res:    &Result{PerCategory: make(map[failures.Category]CategoryStats, len(cfg.Processes))},
		free:   cfg.Crews,
		unlim:  cfg.Crews == 0,
		stepR:  dist.Fork(cfg.Seed, "remediate/steps"),
		predR:  dist.Fork(cfg.Seed, "remediate/predict"),
		alarmR: dist.Fork(cfg.Seed, "remediate/alarm"),
	}
	if r.parts == nil {
		r.parts = spares.Unlimited{}
	}
	for i := range r.nodes {
		r.nodes[i].openSince = math.NaN()
	}
	r.procs = make([]procRun, len(cfg.Processes))
	for i, p := range cfg.Processes {
		r.procs[i].proc = p
		r.procs[i].arrivalRNG = dist.Fork(cfg.Seed, "remediate/arrival/"+p.Category.String())
	}

	r.eng.SetHandler(r.handle)
	// One self-rescheduling arrival stream per process, started in
	// declaration order so event tie-breaking is deterministic.
	for i := range r.procs {
		r.scheduleArrival(int32(i))
	}
	if cfg.Predictor.FalseAlarmsPerYear > 0 {
		r.scheduleFalseAlarm()
	}

	r.eng.Run(cfg.HorizonHours)
	if r.err != nil {
		return nil, r.err
	}

	// Close the books: nodes still down are charged to the horizon.
	var lost float64
	for i := range r.nodes {
		if s := r.nodes[i].openSince; !math.IsNaN(s) {
			lost += cfg.HorizonHours - s
		}
	}
	r.res.NodeHoursLost += lost
	r.res.Availability = 1 - r.res.NodeHoursLost/(float64(cfg.Nodes)*cfg.HorizonHours)
	if r.res.Remediations > 0 {
		r.res.MeanRemediationHours = r.remHours / float64(r.res.Remediations)
	}
	for i := range r.procs {
		st := &r.procs[i]
		if st.stats != (CategoryStats{}) {
			cur := r.res.PerCategory[st.proc.Category]
			cur.Failures += st.stats.Failures
			cur.Remediations += st.stats.Remediations
			cur.SparesUsed += st.stats.SparesUsed
			r.res.PerCategory[st.proc.Category] = cur
		}
	}
	return r.res, nil
}

// scheduleArrival samples the next arrival of process p: the gap and the
// victim range come from the process's arrival stream, the prediction
// coin from the oracle stream, so arrival tapes are identical across
// predictor settings. A predicted incident fires a pre-alarm
// LeadTimeHours early (clamped to now).
func (r *run) scheduleArrival(p int32) {
	st := &r.procs[p]
	gap := st.proc.Interarrival.Sample(st.arrivalRNG)
	st.pendingFirst, st.pendingCount = sim.PickVictims(&st.proc, r.cfg.Nodes, r.cfg.NodesPerRack, st.arrivalRNG)
	st.pendingPredicted = r.predR.Float64() < r.cfg.Predictor.Accuracy
	if st.pendingPredicted {
		lead := gap - r.cfg.Predictor.LeadTimeHours
		if lead < 0 {
			lead = 0
		}
		r.eng.ScheduleEvent(lead, evkPredict, p)
	}
	r.eng.ScheduleEvent(gap, evkArrival, p)
}

// scheduleFalseAlarm self-reschedules the fleet-wide Poisson stream of
// spurious predictions.
func (r *run) scheduleFalseAlarm() {
	rate := r.cfg.Predictor.FalseAlarmsPerYear / 8760
	r.eng.ScheduleEvent(r.alarmR.ExpFloat64()/rate, evkFalseAlarm, 0)
}

// transition applies ev to node n through the state-machine table; a
// rejected transition is an engine bug and aborts the run.
func (r *run) transition(n int32, ev Event) bool {
	nd := &r.nodes[n]
	next, err := Transition(nd.state, ev)
	if err != nil {
		if r.err == nil {
			r.err = fmt.Errorf("remediate: node %d at %v: %w", n, r.eng.Now(), err)
		}
		return false
	}
	if nd.state == Cordoned && next != Cordoned {
		r.cordoned--
	}
	if next == Cordoned && nd.state != Cordoned {
		r.cordoned++
		if r.cordoned > r.res.PeakCordoned {
			r.res.PeakCordoned = r.cordoned
		}
	}
	nd.state = next
	return true
}

// markDown opens the node's down interval if none is open; at most one
// interval is ever open per node, so overlapping failure and remediation
// downtime is never double-counted.
func (r *run) markDown(n int32) {
	if math.IsNaN(r.nodes[n].openSince) {
		r.nodes[n].openSince = r.eng.Now()
	}
}

// markUp closes the node's down interval and charges it.
func (r *run) markUp(n int32) {
	if s := r.nodes[n].openSince; !math.IsNaN(s) {
		r.res.NodeHoursLost += r.eng.Now() - s
		r.nodes[n].openSince = math.NaN()
	}
}

func (r *run) handle(kind, arg int32) {
	if r.err != nil {
		return
	}
	switch kind {
	case evkArrival:
		r.handleArrival(arg)
	case evkPredict:
		r.handlePredict(arg)
	case evkFalseAlarm:
		r.handleFalseAlarm()
	case evkCordon:
		r.handleCordon(arg)
	case evkDrainDone:
		r.handleDrainDone(arg)
	case evkStepDone:
		r.handleStepDone(arg)
	case evkVerifyDone:
		r.handleVerifyDone(arg)
	}
}

// handleArrival is one failure incident landing on its victim range.
func (r *run) handleArrival(p int32) {
	st := &r.procs[p]
	now := r.eng.Now()
	r.res.Failures++
	st.stats.Failures++
	if st.pendingPredicted {
		r.res.Predicted++
	}
	r.parts.Observe(st.proc.Category, now)
	noOutage := st.pendingPredicted
	anyProactive := false
	for n := st.pendingFirst; n < st.pendingFirst+st.pendingCount; n++ {
		r.res.NodeFailures++
		nd := &r.nodes[n]
		wasUp := nd.state.Up()
		if nd.proactive && !wasUp {
			anyProactive = true
		}
		if !r.transition(n, EvFail) {
			return
		}
		if wasUp {
			// A fresh outage: the node went hard down. Charge from now
			// and ask the policy when to start remediation.
			noOutage = false
			nd.cat = st.proc.Category
			nd.remStart = now
			nd.proactive = false
			r.markDown(n)
			r.eng.ScheduleEvent(r.cfg.Policy.DetectDelay(now), evkCordon, n)
		}
	}
	if noOutage && anyProactive {
		// A predicted incident landed with every victim already out of
		// service and at least one under prediction-initiated
		// remediation: the proactive drain averted the outage.
		r.res.Averted++
	}
	r.scheduleArrival(p)
}

// handlePredict is the oracle's pre-alarm for process p's pending
// arrival: the policy may cordon the victims before the failure lands.
func (r *run) handlePredict(p int32) {
	st := &r.procs[p]
	now := r.eng.Now()
	delay := r.cfg.Policy.PredictDelay(now)
	if delay < 0 {
		return
	}
	for n := st.pendingFirst; n < st.pendingFirst+st.pendingCount; n++ {
		if r.nodes[n].state == Healthy {
			r.nodes[n].cat = st.proc.Category
			r.eng.ScheduleEvent(delay, evkCordon, n)
		}
	}
}

// handleFalseAlarm is one spurious prediction: a uniform node and
// category, pushed through the same proactive path as a true prediction.
func (r *run) handleFalseAlarm() {
	now := r.eng.Now()
	r.res.FalseAlarms++
	n := int32(r.alarmR.Intn(r.cfg.Nodes))
	cat := r.procs[r.alarmR.Intn(len(r.procs))].proc.Category
	if delay := r.cfg.Policy.PredictDelay(now); delay >= 0 && r.nodes[n].state == Healthy {
		r.nodes[n].cat = cat
		r.eng.ScheduleEvent(delay, evkCordon, n)
	}
	r.scheduleFalseAlarm()
}

// handleCordon applies a policy cordon decision. Stale cordons — the
// node is already cordoned or deeper in the pipeline — are dropped: a
// node can accumulate several pending cordons (prediction plus
// detection), and only the first to arrive acts.
func (r *run) handleCordon(n int32) {
	nd := &r.nodes[n]
	if nd.state != Healthy && nd.state != Failed {
		return
	}
	if nd.state == Healthy {
		// Proactive remediation: the clock starts at the cordon.
		nd.remStart = r.eng.Now()
		nd.proactive = true
	}
	if !r.transition(n, EvCordon) {
		return
	}
	r.res.Cordons++
	r.queue.Push(n)
	r.dispatchCrews()
}

// dispatchCrews starts remediations while crews are free, skipping stale
// queue entries whose node has left Cordoned (it failed again and will
// re-queue through its fresh detection cordon).
func (r *run) dispatchCrews() {
	for r.queue.Len() > 0 && (r.unlim || r.free > 0) {
		n := r.queue.Pop()
		if r.nodes[n].state != Cordoned {
			continue
		}
		if !r.unlim {
			r.free--
		}
		r.begin(n)
		if r.err != nil {
			return
		}
	}
}

// begin starts the remediation pipeline on a crew: drain (instant for an
// already-down node — nothing left to drain), then reset.
func (r *run) begin(n int32) {
	nd := &r.nodes[n]
	wasDown := !math.IsNaN(nd.openSince)
	if !r.transition(n, EvBegin) {
		return
	}
	nd.resets = 0
	r.markDown(n)
	var drain float64
	if !wasDown {
		drain = r.cfg.Steps.Drain.Sample(r.stepR)
	}
	r.eng.ScheduleEvent(drain, evkDrainDone, n)
}

func (r *run) handleDrainDone(n int32) {
	if !r.transition(n, EvDrainDone) {
		return
	}
	r.eng.ScheduleEvent(r.cfg.Steps.Reset.Sample(r.stepR), evkStepDone, n)
}

// handleStepDone resolves one reset or replace attempt: the outcome coin
// is drawn at completion from the step stream.
func (r *run) handleStepDone(n int32) {
	nd := &r.nodes[n]
	switch nd.state {
	case Resetting:
		if r.stepR.Float64() < r.cfg.Steps.ResetFailProb {
			r.res.StepFailures.Reset++
			nd.resets++
			if nd.resets > r.cfg.Steps.MaxResets {
				if !r.transition(n, EvEscalate) {
					return
				}
				r.res.Escalations++
				r.beginReplace(n)
				return
			}
			if !r.transition(n, EvStepFail) {
				return
			}
			r.eng.ScheduleEvent(r.cfg.Steps.Reset.Sample(r.stepR), evkStepDone, n)
			return
		}
		if !r.transition(n, EvStepOK) {
			return
		}
		r.eng.ScheduleEvent(r.cfg.Steps.Verify.Sample(r.stepR), evkVerifyDone, n)
	case Replacing:
		if r.stepR.Float64() < r.cfg.Steps.ReplaceFailProb {
			// The replacement part was bad; another part is consumed.
			r.res.StepFailures.Replace++
			if !r.transition(n, EvStepFail) {
				return
			}
			r.beginReplace(n)
			return
		}
		if !r.transition(n, EvStepOK) {
			return
		}
		r.eng.ScheduleEvent(r.cfg.Steps.Verify.Sample(r.stepR), evkVerifyDone, n)
	default:
		if r.err == nil {
			r.err = fmt.Errorf("remediate: step completion for node %d in state %v", n, nd.state)
		}
	}
}

// beginReplace consumes one spare part (waiting for it if the shelf is
// empty) and schedules the replacement attempt.
func (r *run) beginReplace(n int32) {
	nd := &r.nodes[n]
	now := r.eng.Now()
	wait := r.parts.Acquire(nd.cat, now)
	r.res.SparesConsumed++
	r.res.SpareWaitHours += wait
	if i := r.procIndex(nd.cat); i >= 0 {
		r.procs[i].stats.SparesUsed++
	}
	r.eng.ScheduleEvent(wait+r.cfg.Steps.Replace.Sample(r.stepR), evkStepDone, n)
}

// procIndex maps a category back to its process (linear over the few
// fitted processes).
func (r *run) procIndex(cat failures.Category) int {
	for i := range r.procs {
		if r.procs[i].proc.Category == cat {
			return i
		}
	}
	return -1
}

// handleVerifyDone resolves the health check: pass returns the node to
// service and frees the crew; fail starts another reset cycle.
func (r *run) handleVerifyDone(n int32) {
	nd := &r.nodes[n]
	if r.stepR.Float64() < r.cfg.Steps.VerifyFailProb {
		r.res.StepFailures.Verify++
		if !r.transition(n, EvVerifyFail) {
			return
		}
		nd.resets = 0
		r.eng.ScheduleEvent(r.cfg.Steps.Reset.Sample(r.stepR), evkStepDone, n)
		return
	}
	if !r.transition(n, EvVerifyOK) {
		return
	}
	r.markUp(n)
	nd.proactive = false
	r.res.Remediations++
	r.remHours += r.eng.Now() - nd.remStart
	if i := r.procIndex(nd.cat); i >= 0 {
		r.procs[i].stats.Remediations++
	}
	if !r.unlim {
		r.free++
		r.dispatchCrews()
	}
}
