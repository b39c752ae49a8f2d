package spares

import (
	"testing"

	"repro/internal/failures"
	"repro/internal/predict"
)

func TestUnlimited(t *testing.T) {
	var u Unlimited
	u.Observe(failures.CatGPU, 0)
	for i := 0; i < 10; i++ {
		if w := u.Acquire(failures.CatGPU, float64(i)); w != 0 {
			t.Fatalf("Unlimited wait = %v, want 0", w)
		}
	}
}

func TestNewFixedStockValidation(t *testing.T) {
	if _, err := NewFixedStock(-1, 10); err == nil {
		t.Error("negative stock should fail")
	}
	if _, err := NewFixedStock(1, 0); err == nil {
		t.Error("zero lead time should fail")
	}
}

func TestFixedStockConsumesShelfFirst(t *testing.T) {
	f, err := NewFixedStock(2, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Two shelf parts: no wait.
	if w := f.Acquire(failures.CatSSD, 0); w != 0 {
		t.Errorf("first acquire wait = %v, want 0", w)
	}
	if w := f.Acquire(failures.CatSSD, 1); w != 0 {
		t.Errorf("second acquire wait = %v, want 0", w)
	}
	// Shelf empty; reorders placed at t=0 and t=1 arrive at 100 and 101.
	if w := f.Acquire(failures.CatSSD, 10); w != 90 {
		t.Errorf("third acquire wait = %v, want 90 (order from t=0)", w)
	}
	if w := f.Acquire(failures.CatSSD, 10); w != 91 {
		t.Errorf("fourth acquire wait = %v, want 91 (order from t=1)", w)
	}
}

func TestFixedStockRestocksOverTime(t *testing.T) {
	f, err := NewFixedStock(1, 50)
	if err != nil {
		t.Fatal(err)
	}
	if w := f.Acquire(failures.CatGPU, 0); w != 0 {
		t.Errorf("wait = %v, want 0", w)
	}
	// The reorder from t=0 arrives at t=50; an acquire at t=60 is free.
	if w := f.Acquire(failures.CatGPU, 60); w != 0 {
		t.Errorf("wait after restock = %v, want 0", w)
	}
}

func TestFixedStockZeroInitial(t *testing.T) {
	f, err := NewFixedStock(0, 24)
	if err != nil {
		t.Fatal(err)
	}
	// No shelf, no orders: full lead time.
	if w := f.Acquire(failures.CatGPU, 0); w != 24 {
		t.Errorf("wait = %v, want 24", w)
	}
}

func TestFixedStockPerCategoryIsolation(t *testing.T) {
	f, err := NewFixedStock(1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if w := f.Acquire(failures.CatGPU, 0); w != 0 {
		t.Errorf("GPU wait = %v", w)
	}
	// SSD has its own shelf.
	if w := f.Acquire(failures.CatSSD, 0); w != 0 {
		t.Errorf("SSD wait = %v, want 0 (separate stock)", w)
	}
}

func TestNewPredictiveValidation(t *testing.T) {
	rate, err := predict.NewEWMARate(0.3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPredictive(nil, 10, 1); err == nil {
		t.Error("nil predictor should fail")
	}
	if _, err := NewPredictive(rate, 0, 1); err == nil {
		t.Error("zero lead time should fail")
	}
	if _, err := NewPredictive(rate, 10, -1); err == nil {
		t.Error("negative safety factor should fail")
	}
}

func TestPredictiveStagesStockForHotCategory(t *testing.T) {
	rate, err := predict.NewEWMARate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictive(rate, 48, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	// A failure every 10 hours: rate 0.1/h -> lead-time demand over 48 h
	// is ~4.8, with safety 1.5 target ~8 outstanding.
	now := 0.0
	for i := 0; i < 20; i++ {
		p.Observe(failures.CatGPU, now)
		p.Acquire(failures.CatGPU, now)
		now += 10
	}
	// After warm-up, stock should have accumulated: acquires stop waiting.
	wait := p.Acquire(failures.CatGPU, now)
	if wait != 0 {
		t.Errorf("warm predictive policy still waits %v h", wait)
	}
	if p.StockLevel(failures.CatGPU, now) == 0 {
		t.Error("no staged stock after sustained failure stream")
	}
}

func TestPredictiveColdStartWaits(t *testing.T) {
	rate, err := predict.NewEWMARate(0.5)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictive(rate, 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	// First-ever failure: no stock, no orders -> full lead time.
	p.Observe(failures.CatPowerBoard, 0)
	if w := p.Acquire(failures.CatPowerBoard, 0); w != 48 {
		t.Errorf("cold-start wait = %v, want 48", w)
	}
}

func TestStoreOrderKeepsSorted(t *testing.T) {
	s := &store{}
	s.order(30)
	s.order(10)
	s.order(20)
	w1, ok := s.take(0)
	if !ok || w1 != 10 {
		t.Errorf("first take = %v ok=%v, want 10", w1, ok)
	}
	w2, _ := s.take(0)
	if w2 != 20 {
		t.Errorf("second take = %v, want 20", w2)
	}
}

func TestStoreSyncMovesArrivals(t *testing.T) {
	s := &store{}
	s.order(5)
	s.order(15)
	s.sync(10)
	if s.stock != 1 || len(s.pending) != 1 {
		t.Errorf("after sync: stock=%d pending=%d, want 1/1", s.stock, len(s.pending))
	}
	if s.outstanding() != 2 {
		t.Errorf("outstanding = %d, want 2", s.outstanding())
	}
}

func TestPredictiveStagesForRareCategories(t *testing.T) {
	// A rare category failing every 500 h with a 72 h lead: only the
	// first failure should pay the lead time — the re-top-up after each
	// consumption keeps one part in the pipeline thereafter.
	rate, err := predict.NewEWMARate(0.3)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictive(rate, 72, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	now := 0.0
	var waits []float64
	for i := 0; i < 6; i++ {
		p.Observe(failures.CatSSD, now)
		waits = append(waits, p.Acquire(failures.CatSSD, now))
		now += 500
	}
	if waits[0] != 72 {
		t.Errorf("first (cold) wait = %v, want 72", waits[0])
	}
	for i, w := range waits[1:] {
		if w != 0 {
			t.Errorf("wait %d = %v, want 0 (part staged 500h earlier)", i+1, w)
		}
	}
}

// StockLevel reports the current shelf stock of a category.
func (p *Predictive) StockLevel(cat failures.Category, now float64) int {
	s := p.storeFor(cat)
	s.sync(now)
	return s.stock
}
