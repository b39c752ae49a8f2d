package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/index"
	"repro/internal/parallel"
	"repro/internal/stats"
	"repro/internal/testutil"
)

// Differential properties for the two analyses the analyze report
// computes at render time. Each fast path is checked against a verbatim
// copy of the implementation it replaced (one Mann-Whitney test per
// category over a freshly concatenated rest slice; one full record scan
// per rolling window), on logs grown from the shrinking harness's choice
// tape, so a divergence comes back as a minimal log.

// legacyTTRSignificance is the replaced one-vs-rest implementation.
func legacyTTRSignificance(ix *index.View, minCount int) ([]TTRSignificance, error) {
	if ix.Len() == 0 {
		return nil, ErrEmptyLog
	}
	if minCount < 2 {
		minCount = 2
	}
	var out []TTRSignificance
	counts := ix.CategoryCounts()
	for cat, n := range counts {
		if n < minCount {
			continue
		}
		hours := ix.CategoryRecovery(cat)
		var rest []float64
		for other := range counts {
			if other != cat {
				rest = append(rest, ix.CategoryRecovery(other)...)
			}
		}
		if len(rest) == 0 {
			continue
		}
		mw, err := stats.MannWhitney(hours, rest)
		if err != nil {
			return nil, err
		}
		out = append(out, TTRSignificance{
			Category:      cat,
			N:             len(hours),
			MeanHours:     stats.Mean(hours),
			RestMeanHours: stats.Mean(rest),
			P:             mw.P,
		})
	}
	if len(out) == 0 {
		return nil, ErrEmptyLog
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].P != out[j].P {
			return out[i].P < out[j].P
		}
		return out[i].Category < out[j].Category
	})
	return out, nil
}

// legacyRollingMTBF is the replaced per-window scan, at width 1.
func legacyRollingMTBF(log *failures.Log, windowDays, stepDays, parallelism int) ([]WindowMTBF, error) {
	if log.Len() < 2 {
		return nil, ErrTooFewRecords
	}
	if windowDays < 1 || stepDays < 1 {
		return nil, fmt.Errorf("core: rolling MTBF needs positive window and step, got %d/%d", windowDays, stepDays)
	}
	start, end, _ := log.Window()
	window := time.Duration(windowDays) * 24 * time.Hour
	step := time.Duration(stepDays) * 24 * time.Hour

	var cursors []time.Time
	for cursor := start; cursor.Before(end); cursor = cursor.Add(step) {
		cursors = append(cursors, cursor)
	}
	if len(cursors) == 0 {
		return nil, ErrTooFewRecords
	}

	records := log.Records()
	return parallel.Map(context.Background(), parallelism, cursors, func(_ context.Context, _ int, cursor time.Time) (WindowMTBF, error) {
		winEnd := cursor.Add(window)
		var inWindow []failures.Failure
		for _, r := range records {
			if !r.Time.Before(cursor) && r.Time.Before(winEnd) {
				inWindow = append(inWindow, r)
			}
		}
		pt := WindowMTBF{Start: cursor, Failures: len(inWindow)}
		if len(inWindow) >= 2 {
			gap := inWindow[len(inWindow)-1].Time.Sub(inWindow[0].Time).Hours()
			pt.MTBFHours = gap / float64(len(inWindow)-1)
		} else {
			pt.MTBFHours = window.Hours()
		}
		return pt, nil
	})
}

var propBase = time.Date(2017, time.August, 1, 0, 0, 0, 0, time.UTC)

// genRecoveryLog draws a log whose recovery times stress the rank
// arithmetic: one of a few category mixes (a single category included)
// and recoveries that are either all tied, drawn from a handful of
// values (heavy ties), or drawn on a 1 ns grid (almost no ties).
func genRecoveryLog(g *testutil.Gen) (*failures.Log, error) {
	cats := failures.Categories(failures.Tsubame3)
	used := 1 + g.Intn(5)
	n := g.Intn(40)
	mode := g.Intn(3)
	tied := time.Duration(1+g.Intn(48)) * time.Hour
	records := make([]failures.Failure, n)
	for i := range records {
		var rec time.Duration
		switch mode {
		case 0:
			rec = tied
		case 1:
			rec = time.Duration(g.Intn(4)) * 30 * time.Minute
		default:
			rec = time.Duration(g.Uint64(uint64(30 * 24 * time.Hour)))
		}
		records[i] = failures.Failure{
			ID:       i + 1,
			System:   failures.Tsubame3,
			Time:     propBase.Add(time.Duration(g.Intn(365*24)) * time.Hour),
			Recovery: rec,
			Category: cats[g.Intn(used)],
		}
	}
	return failures.NewLog(failures.Tsubame3, records)
}

// sameError reports whether two results failed alike.
func sameError(want, got error) error {
	if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
		return fmt.Errorf("error %v, want %v", got, want)
	}
	return nil
}

// ulpsApart returns how many representable doubles lie between a and b
// (both finite and of one sign).
func ulpsApart(a, b float64) uint64 {
	ua, ub := math.Float64bits(a), math.Float64bits(b)
	if ua > ub {
		return ua - ub
	}
	return ub - ua
}

// TestPropertyTTRSignificanceMatchesLegacy pins the rank-once
// significance table to the per-category re-sort it replaced: N, the
// category mean and P bit-equal, the rest mean within 4 ulps (the legacy
// sum ran in map order), across heavy ties, all-tied logs (P = 1), single-
// category logs (the whole-log category is skipped), and minCount on
// and around every category's size, including the clamp to 2.
func TestPropertyTTRSignificanceMatchesLegacy(t *testing.T) {
	testutil.Check(t, 400, func(g *testutil.Gen) error {
		log, err := genRecoveryLog(g)
		if err != nil {
			return fmt.Errorf("generator produced invalid log: %w", err)
		}
		minCount := g.Intn(12) - 1
		want, wantErr := legacyTTRSignificance(index.New(log), minCount)
		got, gotErr := TTRSignificanceByCategory(log, minCount)
		if err := sameError(wantErr, gotErr); err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("minCount %d: %d rows, want %d", minCount, len(got), len(want))
		}
		for i := range want {
			w, r := want[i], got[i]
			if r.Category != w.Category || r.N != w.N ||
				math.Float64bits(r.MeanHours) != math.Float64bits(w.MeanHours) ||
				math.Float64bits(r.P) != math.Float64bits(w.P) {
				return fmt.Errorf("minCount %d row %d: got %+v, want %+v", minCount, i, r, w)
			}
			if ulpsApart(r.RestMeanHours, w.RestMeanHours) > 4 {
				return fmt.Errorf("minCount %d row %d: rest mean %v, want %v", minCount, i, r.RestMeanHours, w.RestMeanHours)
			}
		}
		return nil
	})
}

// TestTTRSignificanceAllTied pins the degenerate variance: with every
// recovery equal no test has evidence, so each P is exactly 1.
func TestTTRSignificanceAllTied(t *testing.T) {
	cats := []failures.Category{failures.CatGPU, failures.CatOtherSW, failures.CatNetwork}
	var records []failures.Failure
	for i := 0; i < 30; i++ {
		records = append(records, failures.Failure{
			ID: i + 1, System: failures.Tsubame2, Time: ts(i),
			Recovery: 6 * time.Hour, Category: cats[i%len(cats)],
		})
	}
	log, err := failures.NewLog(failures.Tsubame2, records)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := TTRSignificanceByCategory(log, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cats) {
		t.Fatalf("%d rows, want %d", len(rows), len(cats))
	}
	for _, r := range rows {
		if r.P != 1 || r.MeanHours != 6 || r.RestMeanHours != 6 {
			t.Errorf("%s: %+v, want P 1 and both means 6", r.Category, r)
		}
	}
}

// TestTTRSignificanceDeterministic is the regression test for the rest
// mean once summed over a map-ordered concatenation: repeated runs on
// one log must agree to the bit.
func TestTTRSignificanceDeterministic(t *testing.T) {
	log := syntheticT3(t)
	first, err := TTRSignificanceByCategory(log, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		rows, err := TTRSignificanceByCategory(log, 2)
		if err != nil {
			t.Fatal(err)
		}
		for j := range rows {
			if math.Float64bits(rows[j].RestMeanHours) != math.Float64bits(first[j].RestMeanHours) ||
				!reflect.DeepEqual(rows[j], first[j]) {
				t.Fatalf("call %d row %d: %+v, first call %+v", i, j, rows[j], first[j])
			}
		}
	}
}

// TestTTRSignificanceViewSharesIndex pins the view entry point to the
// log entry point on a view the RQ battery has already warmed.
func TestTTRSignificanceViewSharesIndex(t *testing.T) {
	log := syntheticT3(t)
	ix := index.New(log)
	if _, err := RunView(ix, Options{Parallelism: 2}); err != nil {
		t.Fatal(err)
	}
	fromView, err := TTRSignificanceView(ix, 10)
	if err != nil {
		t.Fatal(err)
	}
	fromLog, err := TTRSignificanceByCategory(log, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromView, fromLog) {
		t.Errorf("view rows %+v\nlog rows %+v", fromView, fromLog)
	}
}

// genTimedLog draws a log on a whole-day grid from propBase, so records
// land exactly on window starts and ends (windows and steps are whole
// days from the first record), with optional piles of identical
// timestamps; spans range from under one step to many windows.
func genTimedLog(g *testutil.Gen) (*failures.Log, error) {
	n := g.Intn(30)
	span := 1 + g.Intn(120)
	pile := g.Bool()
	records := make([]failures.Failure, n)
	for i := range records {
		day := g.Intn(span)
		if pile && g.Bool() {
			day = span / 2
		}
		records[i] = failures.Failure{
			ID:       i + 1,
			System:   failures.Tsubame2,
			Time:     propBase.Add(time.Duration(day)*24*time.Hour + time.Duration(g.Intn(2))*time.Hour),
			Recovery: time.Hour,
			Category: failures.CatGPU,
		}
	}
	return failures.NewLog(failures.Tsubame2, records)
}

// TestPropertyRollingMTBFMatchesLegacy pins the binary-searched windows
// to the full scan they replaced, deep-equal, across half-open window
// edges, empty and single-record windows, identical timestamps, logs
// shorter than one step, and the rejected non-positive window or step.
func TestPropertyRollingMTBFMatchesLegacy(t *testing.T) {
	testutil.Check(t, 400, func(g *testutil.Gen) error {
		log, err := genTimedLog(g)
		if err != nil {
			return fmt.Errorf("generator produced invalid log: %w", err)
		}
		windowDays, stepDays := g.Intn(40), g.Intn(40)
		want, wantErr := legacyRollingMTBF(log, windowDays, stepDays, 1)
		got, gotErr := RollingMTBF(log, windowDays, stepDays)
		if err := sameError(wantErr, gotErr); err != nil {
			return fmt.Errorf("window %d step %d: %w", windowDays, stepDays, err)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("window %d step %d:\n got %+v\nwant %+v", windowDays, stepDays, got, want)
		}
		return nil
	})
}

// TestRollingMTBFHalfOpenWindow pins the window edges by hand: a record
// at cursor+window belongs to the next window, not this one.
func TestRollingMTBFHalfOpenWindow(t *testing.T) {
	var records []failures.Failure
	for i, day := range []int{0, 5, 10, 10, 20} {
		records = append(records, failures.Failure{
			ID: i + 1, System: failures.Tsubame2, Time: propBase.AddDate(0, 0, day),
			Recovery: time.Hour, Category: failures.CatGPU,
		})
	}
	log, err := failures.NewLog(failures.Tsubame2, records)
	if err != nil {
		t.Fatal(err)
	}
	series, err := RollingMTBF(log, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []WindowMTBF{
		{Start: propBase, Failures: 2, MTBFHours: 5 * 24},
		{Start: propBase.AddDate(0, 0, 10), Failures: 2, MTBFHours: 0},
	}
	if !reflect.DeepEqual(series, want) {
		t.Errorf("series %+v, want %+v", series, want)
	}
	if _, err := RollingMTBF(log, 0, 10); err == nil || errors.Is(err, ErrTooFewRecords) {
		t.Errorf("zero window error = %v, want a positive-window error", err)
	}
}
