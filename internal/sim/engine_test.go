package sim

import (
	"testing"
)

// record returns an engine whose handler appends each event's arg to
// the returned slice, in dispatch order.
func record() (*Engine, *[]int32) {
	eng := &Engine{}
	var order []int32
	eng.SetHandler(func(_, arg int32) { order = append(order, arg) })
	return eng, &order
}

func TestEngineRunsInTimeOrder(t *testing.T) {
	eng, order := record()
	eng.ScheduleEvent(5, evArrival, 1)
	eng.ScheduleEvent(1, evArrival, 2)
	eng.ScheduleEvent(3, evArrival, 3)
	eng.Run(10)
	want := []int32{2, 3, 1}
	for i := range want {
		if (*order)[i] != want[i] {
			t.Fatalf("order = %v, want %v", *order, want)
		}
	}
	if eng.Now() != 10 {
		t.Errorf("Now = %v, want 10 (clock advances to horizon)", eng.Now())
	}
}

func TestEngineTieBreakBySchedulingOrder(t *testing.T) {
	eng, order := record()
	for i := int32(0); i < 5; i++ {
		eng.ScheduleEvent(2, evArrival, i)
	}
	eng.Run(10)
	for i := int32(0); i < 5; i++ {
		if (*order)[i] != i {
			t.Fatalf("tie order = %v, want scheduling order", *order)
		}
	}
}

func TestEngineHorizonStopsEvents(t *testing.T) {
	eng, order := record()
	eng.ScheduleEvent(100, evArrival, 0)
	eng.Run(50)
	if len(*order) != 0 {
		t.Error("event past horizon fired")
	}
	if eng.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", eng.Pending())
	}
	// A later Run picks it up.
	eng.Run(150)
	if len(*order) != 1 {
		t.Error("event did not fire on the extended run")
	}
}

func TestEngineEventAtExactHorizonFires(t *testing.T) {
	eng, order := record()
	eng.ScheduleEvent(50, evArrival, 0)
	eng.Run(50)
	if len(*order) != 1 {
		t.Error("event at exactly the horizon should fire")
	}
}

func TestEngineCascadingEvents(t *testing.T) {
	eng := &Engine{}
	count := 0
	eng.SetHandler(func(kind, arg int32) {
		count++
		if count < 10 {
			eng.ScheduleEvent(1, kind, arg)
		}
	})
	eng.ScheduleEvent(1, evArrival, 0)
	eng.Run(100)
	if count != 10 {
		t.Errorf("cascade count = %d, want 10", count)
	}
	if eng.Now() != 100 {
		t.Errorf("Now = %v, want 100", eng.Now())
	}
}

func TestEngineNegativeDelayClamps(t *testing.T) {
	eng := &Engine{}
	var at float64 = -1
	eng.SetHandler(func(kind, arg int32) {
		if arg == 0 {
			eng.ScheduleEvent(-10, kind, 1)
			return
		}
		at = eng.Now()
	})
	eng.ScheduleEvent(5, evArrival, 0)
	eng.Run(20)
	if at != 5 {
		t.Errorf("negative-delay event ran at %v, want 5 (now)", at)
	}
}

// TestEngineNilAction: an engine without a handler drops typed events
// instead of panicking, and still drains its queue.
func TestEngineNilAction(t *testing.T) {
	eng := &Engine{}
	eng.ScheduleEvent(1, evArrival, 0)
	eng.Run(10)
	if eng.Pending() != 0 {
		t.Errorf("Pending = %d, want 0", eng.Pending())
	}
}

func TestUnionLength(t *testing.T) {
	tests := []struct {
		name    string
		spans   []interval
		horizon float64
		want    float64
	}{
		{"empty", nil, 100, 0},
		{"single", []interval{{10, 20}}, 100, 10},
		{"disjoint", []interval{{0, 10}, {20, 30}}, 100, 20},
		{"overlapping", []interval{{0, 15}, {10, 20}}, 100, 20},
		{"nested", []interval{{0, 30}, {10, 20}}, 100, 30},
		{"out of order", []interval{{20, 30}, {0, 10}}, 100, 20},
		{"clipped at horizon", []interval{{90, 200}}, 100, 10},
		{"entirely past horizon", []interval{{150, 200}}, 100, 0},
		{"touching merge", []interval{{0, 10}, {10, 20}}, 100, 20},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := trackDown(tt.spans, tt.horizon).total(); got != tt.want {
				t.Errorf("union length = %v, want %v", got, tt.want)
			}
		})
	}
}
