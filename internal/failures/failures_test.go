package failures

import (
	"strings"
	"testing"
	"time"
)

func ts(h int) time.Time {
	return time.Date(2020, time.January, 1, 0, 0, 0, 0, time.UTC).Add(time.Duration(h) * time.Hour)
}

func validFailure(id int) Failure {
	return Failure{
		ID:       id,
		System:   Tsubame2,
		Time:     ts(id),
		Recovery: 2 * time.Hour,
		Category: CatGPU,
		Node:     "n0001",
		GPUs:     []int{0},
	}
}

func TestSystemString(t *testing.T) {
	if Tsubame2.String() != "Tsubame-2" || Tsubame3.String() != "Tsubame-3" {
		t.Errorf("names = %q, %q", Tsubame2, Tsubame3)
	}
	if got := System(9).String(); !strings.Contains(got, "9") {
		t.Errorf("unknown system string = %q", got)
	}
}

func TestSystemValid(t *testing.T) {
	if !Tsubame2.Valid() || !Tsubame3.Valid() {
		t.Error("known systems should be valid")
	}
	if System(0).Valid() || System(3).Valid() {
		t.Error("unknown systems should be invalid")
	}
}

func TestParseSystem(t *testing.T) {
	for _, name := range []string{"Tsubame-2", "tsubame-2", "tsubame2", "t2"} {
		s, err := ParseSystem(name)
		if err != nil || s != Tsubame2 {
			t.Errorf("ParseSystem(%q) = %v, %v", name, s, err)
		}
	}
	s, err := ParseSystem("t3")
	if err != nil || s != Tsubame3 {
		t.Errorf("ParseSystem(t3) = %v, %v", s, err)
	}
	if _, err := ParseSystem("tsubame4"); err == nil {
		t.Error("unknown name should fail")
	}
}

func TestGPUsPerNode(t *testing.T) {
	if GPUsPerNode(Tsubame2) != 3 {
		t.Error("Tsubame-2 has 3 GPUs per node")
	}
	if GPUsPerNode(Tsubame3) != 4 {
		t.Error("Tsubame-3 has 4 GPUs per node")
	}
	if GPUsPerNode(System(0)) != 0 {
		t.Error("unknown system should report 0")
	}
}

func TestFailureValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Failure)
		wantErr bool
	}{
		{"valid", func(f *Failure) {}, false},
		{"invalid system", func(f *Failure) { f.System = 0 }, true},
		{"zero time", func(f *Failure) { f.Time = time.Time{} }, true},
		{"negative recovery", func(f *Failure) { f.Recovery = -time.Hour }, true},
		{"category from other taxonomy", func(f *Failure) { f.Category = CatOmniPath }, true},
		{"GPU slot out of range", func(f *Failure) { f.GPUs = []int{3} }, true},
		{"negative GPU slot", func(f *Failure) { f.GPUs = []int{-1} }, true},
		{"duplicate GPU slot", func(f *Failure) { f.GPUs = []int{1, 1} }, true},
		{"three distinct slots OK", func(f *Failure) { f.GPUs = []int{0, 1, 2} }, false},
		{"software cause on hardware category", func(f *Failure) { f.SoftwareCause = CauseGPUDriver }, true},
		{"unknown software cause", func(f *Failure) {
			f.Category = CatOtherSW
			f.GPUs = nil
			f.SoftwareCause = 99
		}, true},
		{"valid software cause", func(f *Failure) {
			f.Category = CatOtherSW
			f.GPUs = nil
			f.SoftwareCause = CauseKernelPanic
		}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			f := validFailure(1)
			tt.mutate(&f)
			err := f.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestFailureDerived(t *testing.T) {
	f := validFailure(1)
	if !f.Hardware() || f.Software() {
		t.Error("GPU failures are hardware")
	}
	if f.MultiGPU() {
		t.Error("single-GPU failure should not be MultiGPU")
	}
	f.GPUs = []int{0, 2}
	if !f.MultiGPU() {
		t.Error("two-GPU failure should be MultiGPU")
	}
	if got := f.RepairEnd(); !got.Equal(f.Time.Add(2 * time.Hour)) {
		t.Errorf("RepairEnd = %v", got)
	}
}

func TestSortByTime(t *testing.T) {
	records := []Failure{
		{ID: 3, Time: ts(5)},
		{ID: 1, Time: ts(1)},
		{ID: 2, Time: ts(5)}, // tie with ID 3: lower ID first
	}
	SortByTime(records)
	wantIDs := []int{1, 2, 3}
	for i, w := range wantIDs {
		if records[i].ID != w {
			t.Fatalf("order = %v, want %v", []int{records[0].ID, records[1].ID, records[2].ID}, wantIDs)
		}
	}
}
