package textreport

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/testutil"
)

// legacyFitSamples is the sample assembly fitSamples replaced: one
// Filter copy of the log per fitted category, then its inter-arrival and
// recovery series with the non-positive values dropped.
func legacyFitSamples(log *failures.Log, minCount int) (titles []string, samples [][]float64) {
	titles = []string{
		"System-wide time between failures",
		"System-wide time to recovery",
	}
	samples = [][]float64{
		positiveOnly(log.InterarrivalHours()),
		positiveOnly(log.RecoveryHours()),
	}
	counts := log.ByCategory()
	cats := make([]failures.Category, 0, len(counts))
	for cat, n := range counts {
		if n >= minCount {
			cats = append(cats, cat)
		}
	}
	sort.Slice(cats, func(i, j int) bool {
		if counts[cats[i]] != counts[cats[j]] {
			return counts[cats[i]] > counts[cats[j]]
		}
		return cats[i] < cats[j]
	})
	for _, cat := range cats {
		cat := cat
		sub := log.Filter(func(f failures.Failure) bool { return f.Category == cat })
		titles = append(titles,
			fmt.Sprintf("%s (%d records) time between failures", cat, sub.Len()),
			fmt.Sprintf("%s time to recovery", cat))
		samples = append(samples,
			positiveOnly(sub.InterarrivalHours()),
			positiveOnly(sub.RecoveryHours()))
	}
	return titles, samples
}

func positiveOnly(sample []float64) []float64 {
	positive := sample[:0:0]
	for _, x := range sample {
		if x > 0 {
			positive = append(positive, x)
		}
	}
	return positive
}

// sameFitSamples reports where fitSamples departs from the legacy
// assembly: titles, sample values, or a nil sample where the legacy one
// is empty (or the reverse).
func sameFitSamples(log *failures.Log, minCount int) error {
	wantTitles, wantSamples := legacyFitSamples(log, minCount)
	gotTitles, gotSamples := fitSamples(log, minCount)
	if !reflect.DeepEqual(gotTitles, wantTitles) {
		return fmt.Errorf("minCount %d: titles %q, want %q", minCount, gotTitles, wantTitles)
	}
	if !reflect.DeepEqual(gotSamples, wantSamples) {
		return fmt.Errorf("minCount %d: samples %v, want %v", minCount, gotSamples, wantSamples)
	}
	return nil
}

var fitBase = time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)

// genFitLog grows a log from the tape: up to 40 records over up to five
// interleaved categories, occurrence times from a narrow range (so ties,
// hence zero gaps, are common) and recoveries that are often zero.
func genFitLog(g *testutil.Gen) (*failures.Log, error) {
	cats := failures.Categories(failures.Tsubame3)
	used := 1 + g.Intn(5)
	span := 1 + g.Intn(60)
	records := make([]failures.Failure, g.Intn(40))
	for i := range records {
		rec := time.Duration(0)
		if g.Bool() {
			rec = time.Duration(g.Intn(100)) * 36 * time.Minute
		}
		records[i] = failures.Failure{
			ID:       i + 1,
			System:   failures.Tsubame3,
			Time:     fitBase.Add(time.Duration(g.Intn(span)) * time.Hour),
			Recovery: rec,
			Category: cats[g.Intn(used)],
		}
	}
	return failures.NewLog(failures.Tsubame3, records)
}

// TestPropertyFitSamplesMatchLegacy checks the one-pass assembly against
// the Filter-based one on generated logs, at a minCount drawn from the
// log's own category counts (so categories sit exactly at minCount and
// one below it) as well as 1 and arbitrary values.
func TestPropertyFitSamplesMatchLegacy(t *testing.T) {
	testutil.Check(t, 500, func(g *testutil.Gen) error {
		log, err := genFitLog(g)
		if err != nil {
			return fmt.Errorf("generator produced invalid log: %w", err)
		}
		var counts []int
		for _, n := range log.ByCategory() {
			counts = append(counts, n)
		}
		sort.Ints(counts)
		minCount := 1 + g.Intn(12)
		if len(counts) > 0 {
			switch n := counts[g.Intn(len(counts))]; g.Intn(3) {
			case 0:
				minCount = n
			case 1:
				minCount = n + 1 // that category one record short
			}
		}
		return sameFitSamples(log, minCount)
	})
}

// TestFitSamplesShapes names the shapes the property reaches by chance.
func TestFitSamplesShapes(t *testing.T) {
	at := func(h int) time.Time { return fitBase.Add(time.Duration(h) * time.Hour) }
	rec := func(id, h int, cat failures.Category, recovery time.Duration) failures.Failure {
		return failures.Failure{ID: id, System: failures.Tsubame3, Time: at(h), Recovery: recovery, Category: cat}
	}
	gpu, cpu, lustre := failures.CatGPU, failures.CatCPU, failures.CatLustre
	for name, c := range map[string]struct {
		records  []failures.Failure
		minCount int
	}{
		"empty log":       {nil, 1},
		"single":          {[]failures.Failure{rec(1, 0, gpu, time.Hour)}, 1},
		"interleaved":     {[]failures.Failure{rec(1, 0, gpu, time.Hour), rec(2, 1, cpu, 2*time.Hour), rec(3, 3, gpu, time.Hour), rec(4, 7, cpu, 0), rec(5, 8, gpu, 3*time.Hour)}, 2},
		"tied times":      {[]failures.Failure{rec(1, 5, gpu, time.Hour), rec(2, 5, gpu, time.Hour), rec(3, 5, cpu, time.Hour), rec(4, 9, gpu, time.Hour)}, 1},
		"all tied":        {[]failures.Failure{rec(1, 5, gpu, time.Hour), rec(2, 5, gpu, time.Hour), rec(3, 5, gpu, time.Hour)}, 1},
		"zero recoveries": {[]failures.Failure{rec(1, 0, gpu, 0), rec(2, 2, gpu, 0), rec(3, 4, cpu, 0)}, 1},
		"at and below minCount": {[]failures.Failure{
			rec(1, 0, gpu, time.Hour), rec(2, 1, gpu, time.Hour), rec(3, 2, gpu, time.Hour),
			rec(4, 3, cpu, time.Hour), rec(5, 4, cpu, time.Hour), rec(6, 5, lustre, time.Hour)}, 3},
		"single-record category": {[]failures.Failure{rec(1, 0, gpu, time.Hour), rec(2, 1, gpu, time.Hour), rec(3, 2, lustre, time.Hour)}, 1},
	} {
		log, err := failures.NewLog(failures.Tsubame3, c.records)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, minCount := range []int{c.minCount - 1, c.minCount, c.minCount + 1} {
			if err := sameFitSamples(log, minCount); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}
