package failures

import (
	"math"
	"testing"
	"time"
)

// makeLog builds a small validated log: GPU failures at hours 0, 10, 30
// on two nodes plus a software failure at hour 40.
func makeLog(t *testing.T) *Log {
	t.Helper()
	records := []Failure{
		{ID: 1, System: Tsubame2, Time: ts(0), Recovery: 10 * time.Hour, Category: CatGPU, Node: "n0001", GPUs: []int{1}},
		{ID: 2, System: Tsubame2, Time: ts(10), Recovery: 20 * time.Hour, Category: CatGPU, Node: "n0001", GPUs: []int{0, 1}},
		{ID: 3, System: Tsubame2, Time: ts(30), Recovery: 30 * time.Hour, Category: CatGPU, Node: "n0002", GPUs: []int{2}},
		{ID: 4, System: Tsubame2, Time: ts(40), Recovery: 4 * time.Hour, Category: CatOtherSW, Node: "n0003"},
	}
	log, err := NewLog(Tsubame2, records)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

func TestNewLogValidation(t *testing.T) {
	if _, err := NewLog(System(0), nil); err == nil {
		t.Error("invalid system should fail")
	}
	bad := []Failure{{ID: 1, System: Tsubame3, Time: ts(0), Category: CatGPU}}
	if _, err := NewLog(Tsubame2, bad); err == nil {
		t.Error("cross-system record should fail")
	}
	invalid := []Failure{{ID: 1, System: Tsubame2, Time: ts(0), Category: CatOmniPath}}
	if _, err := NewLog(Tsubame2, invalid); err == nil {
		t.Error("invalid record should fail")
	}
}

func TestNewLogNormalizesTimesToUTC(t *testing.T) {
	tokyo := time.FixedZone("JST", 9*3600)
	records := []Failure{
		{ID: 1, System: Tsubame2, Time: time.Date(2012, 4, 1, 8, 30, 0, 0, tokyo), Category: CatGPU, GPUs: []int{0}},
		{ID: 2, System: Tsubame2, Time: ts(100), Category: CatGPU, GPUs: []int{1}},
	}
	log, err := NewLog(Tsubame2, records)
	if err != nil {
		t.Fatal(err)
	}
	got := log.At(0).Time
	if got.Location() != time.UTC {
		t.Errorf("occurrence time kept location %v, want UTC", got.Location())
	}
	// The instant is preserved: 08:30+09:00 is 23:30 UTC the previous day,
	// so the month-keyed facets see March, not April.
	if !got.Equal(records[0].Time) {
		t.Errorf("normalization changed the instant: %v vs %v", got, records[0].Time)
	}
	if got.Month() != time.March {
		t.Errorf("UTC month = %v, want March", got.Month())
	}
}

func TestNewLogSortsAndCopies(t *testing.T) {
	records := []Failure{
		{ID: 2, System: Tsubame2, Time: ts(10), Category: CatGPU, GPUs: []int{0}},
		{ID: 1, System: Tsubame2, Time: ts(0), Category: CatGPU, GPUs: []int{1}},
	}
	log, err := NewLog(Tsubame2, records)
	if err != nil {
		t.Fatal(err)
	}
	if log.At(0).ID != 1 || log.At(1).ID != 2 {
		t.Error("log not sorted by time")
	}
	// Mutating the input or the Records() copy must not touch the log.
	records[0].ID = 99
	got := log.Records()
	got[0].ID = 77
	if log.At(0).ID != 1 && log.At(1).ID != 2 {
		t.Error("log aliases caller slices")
	}
}

func TestLogWindowAndSpan(t *testing.T) {
	log := makeLog(t)
	start, end, ok := log.Window()
	if !ok || !start.Equal(ts(0)) || !end.Equal(ts(40)) {
		t.Errorf("Window = %v..%v ok=%v", start, end, ok)
	}
	if log.Span() != 40*time.Hour {
		t.Errorf("Span = %v", log.Span())
	}
	empty, _ := NewLog(Tsubame2, nil)
	if _, _, ok := empty.Window(); ok {
		t.Error("empty window should report !ok")
	}
	if empty.Span() != 0 {
		t.Error("empty span should be 0")
	}
}

func TestLogFilterAndGroups(t *testing.T) {
	log := makeLog(t)
	gpu := log.Filter(func(f Failure) bool { return f.Category == CatGPU })
	if gpu.Len() != 3 {
		t.Errorf("GPU sub-log has %d records, want 3", gpu.Len())
	}
	if got := log.ByCategory(); got[CatGPU] != 3 || got[CatOtherSW] != 1 {
		t.Errorf("ByCategory = %v", got)
	}
	if got := log.ByNode(); got["n0001"] != 2 || got["n0002"] != 1 {
		t.Errorf("ByNode = %v", got)
	}
	if log.GPUFailures().Len() != 3 {
		t.Error("GPUFailures should keep GPU-related records")
	}
	if log.SoftwareFailures().Len() != 1 || log.HardwareFailures().Len() != 3 {
		t.Error("software/hardware split wrong")
	}
}

func TestLogByNodeSkipsUnattributed(t *testing.T) {
	records := []Failure{
		{ID: 1, System: Tsubame2, Time: ts(0), Category: CatNetwork}, // no node
		{ID: 2, System: Tsubame2, Time: ts(1), Category: CatGPU, Node: "n0001", GPUs: []int{0}},
	}
	log, err := NewLog(Tsubame2, records)
	if err != nil {
		t.Fatal(err)
	}
	if got := log.ByNode(); len(got) != 1 {
		t.Errorf("ByNode = %v, want only n0001", got)
	}
}

func TestInterarrivalAndMTBF(t *testing.T) {
	log := makeLog(t)
	gaps := log.InterarrivalHours()
	want := []float64{10, 20, 10}
	if len(gaps) != 3 {
		t.Fatalf("gaps = %v", gaps)
	}
	for i := range want {
		if math.Abs(gaps[i]-want[i]) > 1e-9 {
			t.Errorf("gap %d = %v, want %v", i, gaps[i], want[i])
		}
	}
	mtbf, ok := log.MTBFHours()
	if !ok || math.Abs(mtbf-40.0/3) > 1e-9 {
		t.Errorf("MTBF = %v ok=%v, want 13.33", mtbf, ok)
	}
	single, _ := NewLog(Tsubame2, []Failure{{ID: 1, System: Tsubame2, Time: ts(0), Category: CatGPU, GPUs: []int{0}}})
	if _, ok := single.MTBFHours(); ok {
		t.Error("MTBF of single-record log should report !ok")
	}
	if single.InterarrivalHours() != nil {
		t.Error("single-record interarrival should be nil")
	}
}

func TestRecoveryAndMTTR(t *testing.T) {
	log := makeLog(t)
	hours := log.RecoveryHours()
	if len(hours) != 4 {
		t.Fatalf("recovery hours = %v", hours)
	}
	mttr, ok := log.MTTRHours()
	if !ok || math.Abs(mttr-16) > 1e-9 { // (10+20+30+4)/4
		t.Errorf("MTTR = %v ok=%v, want 16", mttr, ok)
	}
	empty, _ := NewLog(Tsubame2, nil)
	if _, ok := empty.MTTRHours(); ok {
		t.Error("MTTR of empty log should report !ok")
	}
}

func TestLogMerge(t *testing.T) {
	log := makeLog(t)
	extra, err := NewLog(Tsubame2, []Failure{
		{ID: 9, System: Tsubame2, Time: ts(5), Category: CatFan, Node: "n0009", Recovery: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := log.Merge(extra)
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 5 {
		t.Errorf("merged length = %d, want 5", merged.Len())
	}
	if merged.At(1).ID != 9 {
		t.Error("merged log not re-sorted by time")
	}
	other, _ := NewLog(Tsubame3, nil)
	if _, err := log.Merge(other); err == nil {
		t.Error("cross-system merge should fail")
	}
	same, err := log.Merge(nil)
	if err != nil || same.Len() != log.Len() {
		t.Errorf("nil merge = %v records, err %v", same.Len(), err)
	}
}

func TestSplitAt(t *testing.T) {
	log := makeLog(t)
	before, after := log.SplitAt(ts(30))
	if before.Len() != 2 || after.Len() != 2 {
		t.Errorf("split sizes = %d/%d, want 2/2", before.Len(), after.Len())
	}
	// The boundary record (t=30) lands in the "after" half.
	if after.At(0).ID != 3 {
		t.Errorf("first after-record = %d, want 3", after.At(0).ID)
	}
	if before.System() != log.System() || after.System() != log.System() {
		t.Error("split halves lost the system")
	}
}

func TestSplitFraction(t *testing.T) {
	log := makeLog(t)
	head, tail := log.SplitFraction(0.5)
	if head.Len() != 2 || tail.Len() != 2 {
		t.Errorf("split sizes = %d/%d, want 2/2", head.Len(), tail.Len())
	}
	all, none := log.SplitFraction(1.5)
	if all.Len() != log.Len() || none.Len() != 0 {
		t.Errorf("clamped split = %d/%d", all.Len(), none.Len())
	}
	none2, all2 := log.SplitFraction(-1)
	if none2.Len() != 0 || all2.Len() != log.Len() {
		t.Errorf("negative split = %d/%d", none2.Len(), all2.Len())
	}
	// Mutating a half must not affect the original.
	recs := head.Records()
	if len(recs) > 0 {
		recs[0].ID = 999
		if log.At(0).ID == 999 {
			t.Error("split aliases parent log")
		}
	}
}

func TestAnonymize(t *testing.T) {
	log := makeLog(t)
	anon, err := Anonymize(log, AnonymizeOptions{Key: "secret"})
	if err != nil {
		t.Fatal(err)
	}
	if anon.Len() != log.Len() {
		t.Fatalf("anonymized length = %d, want %d", anon.Len(), log.Len())
	}
	// Node identities changed but the recurrence structure survives.
	origCounts := map[int]int{}
	for _, c := range log.ByNode() {
		origCounts[c]++
	}
	anonCounts := map[int]int{}
	for node, c := range anon.ByNode() {
		if node[0] != 'x' {
			t.Errorf("unanonymized node id %q", node)
		}
		anonCounts[c]++
	}
	for k, v := range origCounts {
		if anonCounts[k] != v {
			t.Errorf("recurrence histogram changed: %v vs %v", anonCounts, origCounts)
		}
	}
	// Everything else is untouched.
	for i, r := range anon.Records() {
		orig := log.At(i)
		if r.Category != orig.Category || r.Recovery != orig.Recovery || !r.Time.Equal(orig.Time) {
			t.Errorf("record %d mutated beyond the node field", i)
		}
	}
}

func TestAnonymizeDeterministicAndKeyed(t *testing.T) {
	log := makeLog(t)
	a1, err := Anonymize(log, AnonymizeOptions{Key: "k1"})
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Anonymize(log, AnonymizeOptions{Key: "k1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Anonymize(log, AnonymizeOptions{Key: "k2"})
	if err != nil {
		t.Fatal(err)
	}
	same, diff := 0, 0
	for i := range a1.Records() {
		if a1.At(i).Node == a2.At(i).Node {
			same++
		}
		if a1.At(i).Node != b.At(i).Node {
			diff++
		}
	}
	if same != a1.Len() {
		t.Error("same key should give an identical mapping")
	}
	if diff == 0 {
		t.Error("different keys should give different mappings")
	}
}

func TestAnonymizeScrubOptions(t *testing.T) {
	records := []Failure{
		{ID: 1, System: Tsubame3, Time: ts(5).Add(7 * time.Minute), Category: CatSoftware,
			Node: "n0001", SoftwareCause: CauseGPUDriver},
	}
	log, err := NewLog(Tsubame3, records)
	if err != nil {
		t.Fatal(err)
	}
	anon, err := Anonymize(log, AnonymizeOptions{Key: "k", DropSoftwareCauses: true, CoarsenTimes: true})
	if err != nil {
		t.Fatal(err)
	}
	r := anon.At(0)
	if r.SoftwareCause != 0 {
		t.Error("software cause not dropped")
	}
	if r.Time.Hour() != 0 || r.Time.Minute() != 0 {
		t.Errorf("time not coarsened: %v", r.Time)
	}
}

func TestAnonymizeRequiresKey(t *testing.T) {
	log := makeLog(t)
	if _, err := Anonymize(log, AnonymizeOptions{}); err == nil {
		t.Error("empty key should fail")
	}
}
