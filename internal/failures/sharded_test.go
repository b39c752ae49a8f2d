package failures_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/testutil"
)

// validateWidths are the pool widths NewLogSorted's sharded validation
// is compared at: the inline path, an even split, and more workers than
// shards.
var validateWidths = []int{1, 2, 7}

// TestPropertyNewLogSortedShardsAgree draws a sorted log, breaks it at a
// drawn record in one of three ways (a foreign system, an invalid
// record, a time before its predecessor's) or not at all, and requires
// every width and shard size to return the log or the error of one pass
// over all records. Shards of one to three records put the broken record
// on a shard edge in most draws, where its order is checked against the
// shard before.
func TestPropertyNewLogSortedShardsAgree(t *testing.T) {
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	testutil.Check(t, 300, func(g *testutil.Gen) error {
		n := 1 + g.Intn(24)
		records := make([]failures.Failure, n)
		at := base
		for i := range records {
			at = at.Add(time.Duration(g.Intn(3)) * time.Minute) // ties fall back to the ID
			records[i] = failures.Failure{ID: i + 1, System: failures.Tsubame3, Time: at, Recovery: time.Hour, Category: failures.CatGPU}
		}
		k := g.Intn(n)
		switch g.Intn(4) {
		case 1:
			records[k].System = failures.Tsubame2
		case 2:
			records[k].Recovery = -time.Second
		case 3:
			records[k].Time = base.Add(-time.Minute)
		}
		want, wantErr := failures.NewLogSortedSharded(failures.Tsubame3, append([]failures.Failure(nil), records...), 1, n)
		shard := 1 + g.Intn(3)
		for _, width := range validateWidths {
			got, err := failures.NewLogSortedSharded(failures.Tsubame3, append([]failures.Failure(nil), records...), width, shard)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				return fmt.Errorf("width %d, %d-record shards: error %v, one pass %v", width, shard, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				return fmt.Errorf("width %d, %d-record shards: log differs from one pass", width, shard)
			}
		}
		return nil
	})
}

// TestNewLogSortedShardEdges breaks a 12-record log at every record, in
// each of the three ways, with 4-record shards: the error is the one
// pass's at every width, including where the broken record opens a
// shard and is out of order only against the shard before.
func TestNewLogSortedShardEdges(t *testing.T) {
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	valid := make([]failures.Failure, 12)
	for i := range valid {
		valid[i] = failures.Failure{ID: i + 1, System: failures.Tsubame3, Time: base.Add(time.Duration(i) * time.Minute), Recovery: time.Hour, Category: failures.CatGPU}
	}
	breaks := map[string]func(*failures.Failure){
		"system":   func(f *failures.Failure) { f.System = failures.Tsubame2 },
		"invalid":  func(f *failures.Failure) { f.GPUs = []int{4} },
		"order":    func(f *failures.Failure) { f.Time = f.Time.Add(-90 * time.Second) },
		"id order": func(f *failures.Failure) { f.Time, f.ID = f.Time.Add(-time.Minute), 0 },
	}
	for name, breakAt := range breaks {
		for k := range valid {
			records := append([]failures.Failure(nil), valid...)
			breakAt(&records[k])
			_, want := failures.NewLogSortedSharded(failures.Tsubame3, append([]failures.Failure(nil), records...), 1, len(records))
			if want == nil && (name != "order" && name != "id order" || k > 0) {
				t.Fatalf("%s at %d: one pass accepted", name, k)
			}
			for _, width := range validateWidths {
				_, err := failures.NewLogSortedSharded(failures.Tsubame3, append([]failures.Failure(nil), records...), width, 4)
				if fmt.Sprint(err) != fmt.Sprint(want) {
					t.Errorf("%s at %d, width %d: error %v, want %v", name, k, width, err, want)
				}
			}
		}
	}
}
