package cli

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"testing"
)

// Regression tests for CLI flag validation. Pre-fix the mains accepted
// nonsensical values with inconsistent outcomes: negative pool widths
// were silently clamped, -trials -3 panicked deep in the trial runner,
// and -alpha 2 quietly made every verdict "no improvement". Each case
// here pins the validator verdict the mains now enforce up front.

func TestPositiveInt(t *testing.T) {
	tests := []struct {
		v       int
		wantErr bool
	}{
		{1, false}, {100, false},
		{0, true}, {-1, true}, {-3, true},
	}
	for _, tt := range tests {
		err := PositiveInt("trials", tt.v)
		if (err != nil) != tt.wantErr {
			t.Errorf("PositiveInt(trials, %d) = %v, wantErr %v", tt.v, err, tt.wantErr)
		}
	}
}

func TestNonNegativeInt(t *testing.T) {
	// Zero is a documented default (-parallel 0 = all cores, -crews 0 =
	// unlimited) and must stay valid; only negatives are rejected.
	if err := NonNegativeInt("parallel", 0); err != nil {
		t.Errorf("NonNegativeInt(parallel, 0) = %v, want nil", err)
	}
	if err := NonNegativeInt("parallel", 8); err != nil {
		t.Errorf("NonNegativeInt(parallel, 8) = %v, want nil", err)
	}
	if err := NonNegativeInt("parallel", -2); err == nil {
		t.Error("NonNegativeInt(parallel, -2) = nil, want error")
	}
}

func TestPositiveFloat(t *testing.T) {
	tests := []struct {
		v       float64
		wantErr bool
	}{
		{8760, false}, {0.001, false},
		{0, true}, {-1, true}, {math.NaN(), true}, {math.Inf(-1), true}, {math.Inf(1), true},
	}
	for _, tt := range tests {
		err := PositiveFloat("horizon", tt.v)
		if (err != nil) != tt.wantErr {
			t.Errorf("PositiveFloat(horizon, %v) = %v, wantErr %v", tt.v, err, tt.wantErr)
		}
	}
}

func TestNonNegativeFloat(t *testing.T) {
	tests := []struct {
		v       float64
		wantErr bool
	}{
		{0, false}, {72, false},
		{-0.5, true}, {math.NaN(), true}, {math.Inf(1), true}, {math.Inf(-1), true},
	}
	for _, tt := range tests {
		err := NonNegativeFloat("lead", tt.v)
		if (err != nil) != tt.wantErr {
			t.Errorf("NonNegativeFloat(lead, %v) = %v, wantErr %v", tt.v, err, tt.wantErr)
		}
	}
}

func TestFractionInOpenUnit(t *testing.T) {
	tests := []struct {
		v       float64
		wantErr bool
	}{
		{0.05, false}, {0.5, false}, {0.999, false},
		{0, true}, {1, true}, {2, true}, {-0.05, true}, {math.NaN(), true},
	}
	for _, tt := range tests {
		err := FractionInOpenUnit("alpha", tt.v)
		if (err != nil) != tt.wantErr {
			t.Errorf("FractionInOpenUnit(alpha, %v) = %v, wantErr %v", tt.v, err, tt.wantErr)
		}
	}
}

func TestRequiredString(t *testing.T) {
	if err := RequiredString("key", "secret"); err != nil {
		t.Errorf("RequiredString(key, secret) = %v, want nil", err)
	}
	if err := RequiredString("key", ""); err == nil {
		t.Error("RequiredString(key, \"\") = nil, want error")
	}
}

func TestFirstError(t *testing.T) {
	e1 := errors.New("first")
	e2 := errors.New("second")
	if got := FirstError(nil, nil); got != nil {
		t.Errorf("FirstError(nil, nil) = %v", got)
	}
	if got := FirstError(nil, e1, e2); got != e1 {
		t.Errorf("FirstError = %v, want the first non-nil error", got)
	}
	if got := FirstError(); got != nil {
		t.Errorf("FirstError() = %v", got)
	}
}

// TestCheckFlagsExitsWithUsageStatus re-executes the test binary so the
// os.Exit(2) in CheckFlags can be observed: a bad flag value must
// terminate with the conventional usage-error status, not 0 and not a
// generic 1.
func TestCheckFlagsExitsWithUsageStatus(t *testing.T) {
	if os.Getenv("CLI_VALIDATE_CRASH") == "1" {
		CheckFlags(PositiveInt("trials", -3))
		os.Exit(0) // unreachable if CheckFlags exits as it must
	}
	cmd := exec.Command(os.Args[0], "-test.run=TestCheckFlagsExitsWithUsageStatus")
	cmd.Env = append(os.Environ(), "CLI_VALIDATE_CRASH=1")
	err := cmd.Run()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) {
		t.Fatalf("expected the subprocess to exit nonzero, got %v", err)
	}
	if code := exitErr.ExitCode(); code != 2 {
		t.Errorf("CheckFlags exit code = %d, want 2", code)
	}
}

// TestCheckFlagsPassesCleanValues: a fully valid batch must not exit.
func TestCheckFlagsPassesCleanValues(t *testing.T) {
	CheckFlags(
		PositiveInt("trials", 16),
		NonNegativeInt("parallel", 0),
		PositiveFloat("horizon", 8760),
		NonNegativeFloat("lead", 72),
		FractionInOpenUnit("alpha", 0.05),
		RequiredString("key", "k"),
	)
}
