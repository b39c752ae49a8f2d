package predict

import (
	"math"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/synth"
)

func TestNewEWMARateValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.5} {
		if _, err := NewEWMARate(alpha); err == nil {
			t.Errorf("alpha %v should fail", alpha)
		}
	}
	if _, err := NewEWMARate(1); err != nil {
		t.Errorf("alpha 1 should be accepted: %v", err)
	}
}

func TestEWMARateConvergesOnSteadyStream(t *testing.T) {
	e, err := NewEWMARate(0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 50; i++ {
		e.Observe(failures.CatGPU, float64(i)*20) // one failure per 20 h
	}
	rate := e.RatePerHour(failures.CatGPU)
	if math.Abs(rate-0.05) > 1e-9 {
		t.Errorf("rate = %v, want 0.05", rate)
	}
	if got := e.ExpectedWithin(failures.CatGPU, 100); math.Abs(got-5) > 1e-9 {
		t.Errorf("expected failures in 100 h = %v, want 5", got)
	}
	if e.Observations(failures.CatGPU) != 51 {
		t.Errorf("observations = %d, want 51", e.Observations(failures.CatGPU))
	}
}

func TestEWMARateColdStart(t *testing.T) {
	e, _ := NewEWMARate(0.3)
	if e.RatePerHour(failures.CatGPU) != 0 {
		t.Error("unseen category should have zero rate")
	}
	e.Observe(failures.CatGPU, 100)
	if e.RatePerHour(failures.CatGPU) != 0 {
		t.Error("single observation cannot define a rate")
	}
	if e.Observations(failures.CatSSD) != 0 {
		t.Error("unseen category should report zero observations")
	}
}

func TestEWMARateIgnoresOutOfOrder(t *testing.T) {
	e, _ := NewEWMARate(0.5)
	e.Observe(failures.CatGPU, 100)
	e.Observe(failures.CatGPU, 50) // out of order: ignored
	e.Observe(failures.CatGPU, 120)
	if rate := e.RatePerHour(failures.CatGPU); math.Abs(rate-1.0/20) > 1e-9 {
		t.Errorf("rate = %v, want 0.05 (gap 100->120)", rate)
	}
}

func TestEWMARateTracksRateChange(t *testing.T) {
	e, _ := NewEWMARate(0.5)
	now := 0.0
	for i := 0; i < 10; i++ {
		e.Observe(failures.CatGPU, now)
		now += 100 // slow regime
	}
	slow := e.RatePerHour(failures.CatGPU)
	for i := 0; i < 10; i++ {
		e.Observe(failures.CatGPU, now)
		now += 10 // fast regime
	}
	fast := e.RatePerHour(failures.CatGPU)
	if fast <= slow*2 {
		t.Errorf("rate did not adapt: slow=%v fast=%v", slow, fast)
	}
}

func TestEWMARateNegativeHorizon(t *testing.T) {
	e, _ := NewEWMARate(0.5)
	e.Observe(failures.CatGPU, 0)
	e.Observe(failures.CatGPU, 10)
	if got := e.ExpectedWithin(failures.CatGPU, -5); got != 0 {
		t.Errorf("negative horizon = %v, want 0", got)
	}
}

func TestNewLocalityPredictorValidation(t *testing.T) {
	if _, err := NewLocalityPredictor(0); err == nil {
		t.Error("zero window should fail")
	}
}

func TestLocalityPredictorAlarm(t *testing.T) {
	p, err := NewLocalityPredictor(48)
	if err != nil {
		t.Fatal(err)
	}
	if p.Alarmed(10) {
		t.Error("unarmed predictor should not alarm")
	}
	p.ObserveMulti(100)
	if !p.Alarmed(100) || !p.Alarmed(148) {
		t.Error("alarm should cover [100, 148]")
	}
	if p.Alarmed(149) {
		t.Error("alarm should expire after the window")
	}
	if p.Alarmed(99) {
		t.Error("alarm must not cover the past")
	}
}

func TestEvaluateLocalityOnClusteredLog(t *testing.T) {
	// The Tsubame-2 synthetic log has strongly clustered multi-GPU
	// failures (Figure 8), so temporal-locality prediction must beat
	// random alarming. Lift is a per-realization statistic, so average
	// it over several seeds rather than pinning one draw.
	var liftSum float64
	seeds := []int64{1, 2, 3, 42, 43}
	for _, seed := range seeds {
		log, err := synth.Generate(synth.Tsubame2Profile(), seed)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := EvaluateLocality(log, 72)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Events < 50 {
			t.Fatalf("seed %d: only %d evaluated events", seed, ev.Events)
		}
		if ev.Recall() < 0.5 {
			t.Errorf("seed %d: recall = %v, want > 0.5 on clustered log", seed, ev.Recall())
		}
		if ev.AlarmFraction() <= 0 || ev.AlarmFraction() >= 1 {
			t.Errorf("seed %d: alarm fraction = %v, want in (0, 1)", seed, ev.AlarmFraction())
		}
		if ev.Lift() < 1.0 {
			t.Errorf("seed %d: lift = %v, below random alarming", seed, ev.Lift())
		}
		liftSum += ev.Lift()
	}
	if mean := liftSum / float64(len(seeds)); mean < 1.05 {
		t.Errorf("mean lift over %d seeds = %v, want clearly above 1 (clustering makes locality informative)", len(seeds), mean)
	}
}

func TestEvaluateLocalityErrors(t *testing.T) {
	empty, err := failures.NewLog(failures.Tsubame2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateLocality(empty, 48); err == nil {
		t.Error("empty log should fail")
	}
	single := []failures.Failure{{
		ID: 1, System: failures.Tsubame2,
		Time:     time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC),
		Category: failures.CatGPU, Node: "n1", GPUs: []int{0, 1},
	}}
	log, err := failures.NewLog(failures.Tsubame2, single)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateLocality(log, 48); err == nil {
		t.Error("single multi-GPU event should fail (nothing to predict)")
	}
	if _, err := EvaluateLocality(log, -1); err == nil {
		t.Error("negative window should fail")
	}
}

func TestEvaluationDerivedMetrics(t *testing.T) {
	ev := Evaluation{Events: 10, Hits: 8, AlarmHours: 100, SpanHours: 1000}
	if math.Abs(ev.Recall()-0.8) > 1e-12 {
		t.Errorf("recall = %v", ev.Recall())
	}
	if math.Abs(ev.AlarmFraction()-0.1) > 1e-12 {
		t.Errorf("alarm fraction = %v", ev.AlarmFraction())
	}
	if math.Abs(ev.Lift()-8) > 1e-12 {
		t.Errorf("lift = %v", ev.Lift())
	}
	var zero Evaluation
	if zero.Recall() != 0 || zero.AlarmFraction() != 0 || zero.Lift() != 0 {
		t.Error("zero evaluation should report zero metrics")
	}
}

func TestEvaluateIntervalsCalibration(t *testing.T) {
	// On the full Tsubame-2 log (near-exponential gaps) the rolling-fit
	// 80% interval should cover roughly 80% of next gaps.
	log, err := synth.Generate(synth.Tsubame2Profile(), 42)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := EvaluateIntervals(log, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Predictions < 500 {
		t.Fatalf("only %d predictions", ev.Predictions)
	}
	cov := ev.ObservedCoverage()
	if cov < 0.74 || cov > 0.86 {
		t.Errorf("observed coverage = %v at nominal 0.8", cov)
	}
	if ev.MeanWidthHours <= 0 {
		t.Error("intervals should have positive width")
	}
	if len(ev.Family) == 0 {
		t.Error("no family tally recorded")
	}
}

func TestEvaluateIntervalsNestedLevels(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame2Profile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	ev50, err := EvaluateIntervals(log, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	ev90, err := EvaluateIntervals(log, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if ev90.ObservedCoverage() <= ev50.ObservedCoverage() {
		t.Errorf("90%% interval coverage %v should exceed 50%%'s %v",
			ev90.ObservedCoverage(), ev50.ObservedCoverage())
	}
	if ev90.MeanWidthHours <= ev50.MeanWidthHours {
		t.Errorf("90%% interval width %v should exceed 50%%'s %v",
			ev90.MeanWidthHours, ev50.MeanWidthHours)
	}
}

func TestEvaluateIntervalsErrors(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame2Profile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateIntervals(log, 0); err == nil {
		t.Error("level 0 should fail")
	}
	if _, err := EvaluateIntervals(log, 1); err == nil {
		t.Error("level 1 should fail")
	}
	short := log.Filter(func(f failures.Failure) bool { return f.ID <= 10 })
	if _, err := EvaluateIntervals(short, 0.8); err == nil {
		t.Error("short log should fail")
	}
}

// Observations returns how many failures of cat the estimator has seen.
func (e *EWMARate) Observations(cat failures.Category) int {
	return e.state.At(cat).observed
}
