package textreport

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/failures"
)

// TestDefaultDigestPeriodHoldsNewestFailure pins the default period to the
// whole UTC days that end with the newest failure's day: the newest
// failure always falls inside [from, from+days), also when it occurred
// exactly at midnight.
func TestDefaultDigestPeriodHoldsNewestFailure(t *testing.T) {
	day := func(s string) time.Time {
		d, err := time.Parse("2006-01-02", s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	tests := []struct {
		name string
		last time.Time
		days int
		want time.Time
	}{
		{"midnight", time.Date(2013, 8, 1, 0, 0, 0, 0, time.UTC), 30, day("2013-07-03")},
		{"mid-day", time.Date(2013, 8, 1, 15, 4, 5, 0, time.UTC), 30, day("2013-07-03")},
		{"last second of the day", time.Date(2013, 8, 1, 23, 59, 59, 0, time.UTC), 1, day("2013-08-01")},
		{"non-UTC zone", time.Date(2013, 8, 1, 1, 0, 0, 0, time.FixedZone("JST", 9*3600)), 7, day("2013-07-25")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			first := tt.last.Add(-90 * 24 * time.Hour)
			log, err := failures.NewLog(failures.Tsubame2, []failures.Failure{
				{ID: 1, System: failures.Tsubame2, Time: first, Recovery: time.Hour, Category: failures.CatNetwork},
				{ID: 2, System: failures.Tsubame2, Time: tt.last, Recovery: time.Hour, Category: failures.CatNetwork},
			})
			if err != nil {
				t.Fatal(err)
			}
			from := DefaultDigestFrom(log, tt.days)
			if !from.Equal(tt.want) {
				t.Errorf("DefaultDigestFrom = %v, want %v", from, tt.want)
			}
			var buf bytes.Buffer
			n, err := Digest(&buf, log, from, tt.days)
			if err != nil {
				t.Fatal(err)
			}
			if n != 1 {
				t.Errorf("default period holds %d records, want the newest one", n)
			}
		})
	}
}
