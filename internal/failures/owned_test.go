package failures

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// TestAscendingUTCIsStrict pins when NewLogOwned adopts its input
// without a sort. A (time, ID) tie must not qualify: the sort is not
// stable, so only it can say how tied records end up.
func TestAscendingUTCIsStrict(t *testing.T) {
	at := time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC)
	rec := func(id int, t time.Time) Failure { return Failure{ID: id, Time: t} }
	for _, c := range []struct {
		name    string
		records []Failure
		want    bool
	}{
		{"ascending times", []Failure{rec(2, at), rec(1, at.Add(time.Second))}, true},
		{"equal times, ascending IDs", []Failure{rec(1, at), rec(2, at)}, true},
		{"tie", []Failure{rec(1, at), rec(1, at)}, false},
		{"descending IDs", []Failure{rec(2, at), rec(1, at)}, false},
		{"descending times", []Failure{rec(1, at.Add(time.Second)), rec(2, at)}, false},
		{"offset zone", []Failure{rec(1, at.In(time.FixedZone("", 3600)))}, false},
		{"local zone", []Failure{rec(1, at.In(time.Local))}, false},
	} {
		if got := ascendingUTC(c.records); got != c.want {
			t.Errorf("%s: ascendingUTC = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestNewLogOwnedMatchesNewLog pins the owned constructor to NewLog on
// both of its paths: ordered UTC input is adopted without a copy, and
// everything else — shuffled records with tied times and tied (time, ID)
// keys, offset zones, an invalid record — gives NewLog's log or error.
func TestNewLogOwnedMatchesNewLog(t *testing.T) {
	jst := time.FixedZone("JST", 9*3600)
	rng := rand.New(rand.NewSource(3))
	shuffled := make([]Failure, 300)
	for i := range shuffled {
		shuffled[i] = Failure{
			ID:       1 + rng.Intn(250), // some (time, ID) keys repeat
			System:   Tsubame2,
			Time:     ts(rng.Intn(40)), // many records share a time
			Category: CatGPU,
			Node:     strconv.Itoa(i), // tells tied records apart
			GPUs:     []int{i % 3},
		}
		if i%7 == 0 {
			shuffled[i].Time = shuffled[i].Time.In(jst)
		}
	}
	ordered := mergeRecords(100, 5)
	SortByTime(ordered)
	offset := append([]Failure(nil), ordered...)
	offset[len(offset)-1].Time = offset[len(offset)-1].Time.In(jst)
	invalid := append([]Failure(nil), ordered...)
	invalid[40].Recovery = -time.Hour

	for name, records := range map[string][]Failure{
		"shuffled with ties": shuffled,
		"ordered UTC":        ordered,
		"ordered, offset":    offset,
		"invalid record":     invalid,
		"empty":              nil,
	} {
		want, wantErr := NewLog(Tsubame2, records)
		owned := append([]Failure(nil), records...)
		got, err := NewLogOwned(Tsubame2, owned)
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Errorf("%s: error %v, NewLog's %v", name, err, wantErr)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: NewLogOwned's log differs from NewLog's", name)
		}
	}

	adopted := append([]Failure(nil), ordered...)
	log, err := NewLogOwned(Tsubame2, adopted)
	if err != nil {
		t.Fatal(err)
	}
	if &log.records[0] != &adopted[0] {
		t.Error("ordered UTC input was copied, not adopted")
	}
}
