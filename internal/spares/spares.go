// Package spares implements spare-part provisioning policies for the
// repair simulator — the paper's RQ5 implication that long recovery tails
// (SSD repairs of ~290 h on Tsubame-2, power-board repairs of ~230 h on
// Tsubame-3) "highlight the need for appropriate spare provisioning of
// parts". Each policy satisfies the simulator's PartsPolicy interface:
// Observe sees every failure, Acquire returns how long a repair waits for
// its part.
//
// All policies are single-threaded by design: the simulator invokes them
// from one event loop.
package spares

import (
	"fmt"
	"sort"

	"repro/internal/failures"
)

// Unlimited never delays a repair (infinite on-site stock). It is the
// baseline the paper calls "overly proactive... at an increased
// operational cost".
type Unlimited struct{}

// Observe implements the parts policy; unlimited stock learns nothing.
func (Unlimited) Observe(failures.Category, float64) {}

// Acquire always returns a zero wait.
func (Unlimited) Acquire(failures.Category, float64) float64 { return 0 }

// store tracks one category's on-site stock plus outstanding orders.
type store struct {
	stock   int
	pending []float64 // arrival times of outstanding orders, sorted
}

// sync moves arrived orders into stock.
func (s *store) sync(now float64) {
	i := 0
	for i < len(s.pending) && s.pending[i] <= now {
		s.stock++
		i++
	}
	s.pending = s.pending[i:]
}

// order places an order arriving at time t.
func (s *store) order(t float64) {
	i := sort.SearchFloat64s(s.pending, t)
	s.pending = append(s.pending, 0)
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = t
}

// take consumes one part at time now, returning the wait until the part
// is physically available. If the shelf is empty it waits for the
// earliest outstanding order, or reports that a fresh order is needed
// (ok=false).
func (s *store) take(now float64) (wait float64, ok bool) {
	s.sync(now)
	if s.stock > 0 {
		s.stock--
		return 0, true
	}
	if len(s.pending) > 0 {
		wait := s.pending[0] - now
		s.pending = s.pending[1:]
		return wait, true
	}
	return 0, false
}

// outstanding returns stock plus orders in flight.
func (s *store) outstanding() int { return s.stock + len(s.pending) }

// FixedStock is a one-for-one (S-1) base-stock policy: each category
// starts with InitialStock parts on the shelf and every consumption
// immediately reorders one part with LeadTimeHours delivery latency.
type FixedStock struct {
	InitialStock  int
	LeadTimeHours float64
	stores        failures.PerCategory[*store]
}

// NewFixedStock builds the policy. initial must be non-negative and lead
// time positive.
func NewFixedStock(initial int, leadTimeHours float64) (*FixedStock, error) {
	if initial < 0 {
		return nil, fmt.Errorf("spares: negative initial stock %d", initial)
	}
	if !(leadTimeHours > 0) {
		return nil, fmt.Errorf("spares: lead time must be positive, got %v", leadTimeHours)
	}
	return &FixedStock{
		InitialStock:  initial,
		LeadTimeHours: leadTimeHours,
	}, nil
}

func (f *FixedStock) storeFor(cat failures.Category) *store {
	if f.stores[cat] == nil {
		f.stores[cat] = &store{stock: f.InitialStock}
	}
	return f.stores[cat]
}

// Observe implements the parts policy; the S-1 policy reorders on
// consumption, not on observation.
func (f *FixedStock) Observe(failures.Category, float64) {}

// Acquire consumes a part and reorders one.
func (f *FixedStock) Acquire(cat failures.Category, now float64) float64 {
	s := f.storeFor(cat)
	wait, ok := s.take(now)
	if !ok {
		// Shelf empty and nothing in flight: order now and wait the full
		// lead time.
		wait = f.LeadTimeHours
	}
	s.order(now + f.LeadTimeHours)
	return wait
}

// Predictive provisions stock from an online failure-rate estimate: after
// every observed failure it tops up outstanding stock to cover the
// expected demand over one delivery lead time plus a safety margin. This
// realizes the paper's call for "failure prediction to initiate recovery
// proactively".
type Predictive struct {
	LeadTimeHours float64
	// SafetyFactor scales the predicted lead-time demand (1.0 = exactly
	// the expectation; 2.0 = 100% safety margin).
	SafetyFactor float64
	// Predictor estimates per-category failure rates (failures/hour).
	Predictor RatePredictor
	stores    failures.PerCategory[*store]
}

// RatePredictor estimates a per-category failure rate from observed
// failure instants (implemented by the predict package).
type RatePredictor interface {
	Observe(cat failures.Category, now float64)
	RatePerHour(cat failures.Category) float64
}

// NewPredictive builds the policy around a rate predictor.
func NewPredictive(predictor RatePredictor, leadTimeHours, safetyFactor float64) (*Predictive, error) {
	if predictor == nil {
		return nil, fmt.Errorf("spares: predictive policy needs a predictor")
	}
	if !(leadTimeHours > 0) {
		return nil, fmt.Errorf("spares: lead time must be positive, got %v", leadTimeHours)
	}
	if safetyFactor < 0 {
		return nil, fmt.Errorf("spares: negative safety factor %v", safetyFactor)
	}
	return &Predictive{
		LeadTimeHours: leadTimeHours,
		SafetyFactor:  safetyFactor,
		Predictor:     predictor,
	}, nil
}

func (p *Predictive) storeFor(cat failures.Category) *store {
	if p.stores[cat] == nil {
		p.stores[cat] = &store{}
	}
	return p.stores[cat]
}

// Observe feeds the predictor and tops up stock to the predicted
// lead-time demand.
func (p *Predictive) Observe(cat failures.Category, now float64) {
	p.Predictor.Observe(cat, now)
	p.topUp(cat, now)
}

// Acquire consumes a part, then restores the outstanding position so the
// consumed part is replaced before the next predicted failure — without
// the re-top-up, every staged part would be eaten by the failure that
// triggered its order and rare categories would pay the full lead time
// forever.
func (p *Predictive) Acquire(cat failures.Category, now float64) float64 {
	s := p.storeFor(cat)
	wait, ok := s.take(now)
	if !ok {
		wait = p.LeadTimeHours
	}
	p.topUp(cat, now)
	return wait
}

// topUp raises the outstanding position (shelf plus in-flight orders) to
// the predicted lead-time demand, with a floor of one so every category
// that has ever failed keeps a part in the pipeline.
func (p *Predictive) topUp(cat failures.Category, now float64) {
	s := p.storeFor(cat)
	s.sync(now)
	target := int(p.Predictor.RatePerHour(cat)*p.LeadTimeHours*p.SafetyFactor + 0.9999)
	if target < 1 {
		target = 1
	}
	for s.outstanding() < target {
		s.order(now + p.LeadTimeHours)
	}
}
