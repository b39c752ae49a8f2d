package failures

import (
	"context"
	"fmt"
	"time"

	"repro/internal/parallel"
)

// Log is a chronologically ordered failure log for one system. The zero
// value is an empty log; construct populated logs with NewLog so ordering
// and validation invariants hold.
type Log struct {
	system  System
	records []Failure
}

// NewLog builds a validated, time-sorted log from records. All records
// must belong to system. The input slice is copied.
//
// Occurrence times are normalized to UTC: RFC 3339 parsing preserves
// whatever zone offset the input carried, and any facet keyed on a
// calendar field (the monthly seasonality buckets, digest date labels)
// would otherwise depend on the offset the log happened to be exported
// with rather than on the instant of failure. The trace writers already
// emit UTC, so for round-tripped logs this is the identity.
func NewLog(system System, records []Failure) (*Log, error) {
	sorted, err := SortBatch(system, records)
	if err != nil {
		return nil, err
	}
	return &Log{system: system, records: sorted}, nil
}

// NewLogSorted builds a log from records already in ascending (time, ID)
// order with UTC occurrence times — the contract a .tsbc block stream
// certifies, since its writer rejects out-of-order appends and its times
// are decoded as UTC instants. Each record is still validated, and the
// ordering is verified, in one linear pass, sharded over GOMAXPROCS
// workers; unlike NewLog the slice is taken over without a copy or a
// sort, so bulk decoders skip the dominant O(n log n) + O(n)-copy cost.
// The caller must not retain the slice.
func NewLogSorted(system System, records []Failure) (*Log, error) {
	return newLogSorted(system, records, parallel.DefaultParallelism(), validateShard)
}

// validateShard is the number of records one NewLogSorted shard checks.
const validateShard = 32 << 10

// newLogSorted is NewLogSorted with the pool width and the shard size as
// parameters. Each shard checks its records in order, the first one
// against the last record of the shard before, and the error returned
// is the lowest failing shard's first: the one a single pass over all
// records meets first.
func newLogSorted(system System, records []Failure, width, shard int) (*Log, error) {
	if !system.Valid() {
		return nil, fmt.Errorf("failures: invalid system %d", int(system))
	}
	// A log of one shard is checked inline, with none of the pool's
	// allocations.
	var err error
	if len(records) <= shard {
		err = checkSorted(system, records, parallel.Range{Lo: 0, Hi: len(records)})
	} else {
		err = parallel.ForEach(context.Background(), width, parallel.Shards(len(records), (len(records)+shard-1)/shard),
			func(_ context.Context, _ int, r parallel.Range) error { return checkSorted(system, records, r) })
	}
	if err != nil {
		return nil, err
	}
	return &Log{system: system, records: records}, nil
}

// checkSorted validates records[r.Lo:r.Hi] for system and checks each
// is not before the record ahead of it, in or out of the range.
func checkSorted(system System, records []Failure, r parallel.Range) error {
	for i := r.Lo; i < r.Hi; i++ {
		if records[i].System != system {
			return fmt.Errorf("failures: record %d belongs to %v, log is for %v", records[i].ID, records[i].System, system)
		}
		if err := records[i].Validate(); err != nil {
			return err
		}
		if i > 0 && chronoLess(records[i], records[i-1]) {
			return fmt.Errorf("failures: sorted run is unsorted at index %d (record %d)", i, records[i].ID)
		}
	}
	return nil
}

// NewLogOwned builds a log from records the caller gives up: the log
// keeps the slice itself, so the caller must not use it afterwards.
// Records that are all UTC and strictly ascending in (time, ID) — what
// the generator and an ordered trace produce — are adopted after
// NewLogSorted's validation pass. Anything else is validated, normalized
// to UTC and sorted in place, exactly as SortBatch does, minus the copy.
// Either way the log equals NewLog(system, records).
func NewLogOwned(system System, records []Failure) (*Log, error) {
	if ascendingUTC(records) {
		return NewLogSorted(system, records)
	}
	if err := sortInPlace(system, records); err != nil {
		return nil, err
	}
	return &Log{system: system, records: records}, nil
}

// ascendingUTC reports whether every record is UTC and the records are
// strictly ascending in (time, ID): then NewLog would return them
// unchanged, and NewLogSorted can adopt them. Equal keys make it false.
// NewLog's sort is not stable, so for them only the sort itself says
// which order results.
func ascendingUTC(records []Failure) bool {
	for i := range records {
		if records[i].Time.Location() != time.UTC {
			return false
		}
		if i == 0 {
			continue
		}
		prev, cur := &records[i-1], &records[i]
		if !prev.Time.Before(cur.Time) && (!prev.Time.Equal(cur.Time) || prev.ID >= cur.ID) {
			return false
		}
	}
	return true
}

// SortBatch validates records for system, normalizes occurrence times to
// UTC, and returns them as a standalone ascending (time, ID)-sorted run —
// the unit of incremental ingest. The input slice is not mutated. Cost is
// O(b log b) in the batch alone, independent of any log the run is later
// merged into; on error nothing is allocated beyond the batch copy.
//
// A SortBatch run feeds Log.AppendSorted, which merges it into a
// committed log without revalidating or re-sorting the log.
func SortBatch(system System, records []Failure) ([]Failure, error) {
	sorted := append([]Failure(nil), records...)
	if err := sortInPlace(system, sorted); err != nil {
		return nil, err
	}
	return sorted, nil
}

// sortInPlace is SortBatch on a slice it may mutate: validate each
// record for system, normalize its time to UTC, then sort.
func sortInPlace(system System, records []Failure) error {
	if !system.Valid() {
		return fmt.Errorf("failures: invalid system %d", int(system))
	}
	for i := range records {
		if records[i].System != system {
			return fmt.Errorf("failures: record %d belongs to %v, log is for %v", records[i].ID, records[i].System, system)
		}
		if err := records[i].Validate(); err != nil {
			return err
		}
		records[i].Time = records[i].Time.UTC()
	}
	SortByTime(records)
	return nil
}

// AppendSorted merges a SortBatch-produced run into the log, returning a
// new log holding both record sets in canonical (time, ID) order.
// atTail reports whether the run sorted entirely at or after the log's
// last record — the live-stream common case, served by a pure append in
// O(b) amortized instead of an O(n+b) two-run merge. Records equal under
// the ordering keep committed-run records before batch records.
//
// The run must come from SortBatch for the same system: AppendSorted
// checks system membership and sortedness (O(b)) but does not re-run
// per-record validation. The receiver is not mutated, but like append,
// the returned log may share (and, on the tail fast path, extend) the
// receiver's backing array — after a successful AppendSorted, treat the
// receiver as superseded and append only to the returned log. Earlier
// logs in an append lineage keep seeing exactly their own records.
func (l *Log) AppendSorted(sorted []Failure) (merged *Log, atTail bool, err error) {
	for i := range sorted {
		if sorted[i].System != l.system {
			return nil, false, fmt.Errorf("failures: record %d belongs to %v, log is for %v", sorted[i].ID, sorted[i].System, l.system)
		}
		if i > 0 && chronoLess(sorted[i], sorted[i-1]) {
			return nil, false, fmt.Errorf("failures: AppendSorted run is unsorted at index %d (record %d)", i, sorted[i].ID)
		}
	}
	if len(sorted) == 0 {
		return l, true, nil
	}
	n := len(l.records)
	if n == 0 || !chronoLess(sorted[0], l.records[n-1]) {
		return &Log{system: l.system, records: append(l.records, sorted...)}, true, nil
	}
	out := make([]Failure, 0, n+len(sorted))
	i, j := 0, 0
	for i < n && j < len(sorted) {
		if chronoLess(sorted[j], l.records[i]) {
			out = append(out, sorted[j])
			j++
		} else {
			out = append(out, l.records[i])
			i++
		}
	}
	out = append(out, l.records[i:]...)
	out = append(out, sorted[j:]...)
	return &Log{system: l.system, records: out}, false, nil
}

// DropFirst returns the log without its first k records. The returned
// log shares the receiver's backing array (O(1)); the dropped head stays
// referenced until the result is Compacted. k outside [0, Len] is
// clamped.
func (l *Log) DropFirst(k int) *Log {
	if k < 0 {
		k = 0
	}
	if k > len(l.records) {
		k = len(l.records)
	}
	return &Log{system: l.system, records: l.records[k:]}
}

// Compact returns a copy of the log in a fresh, exactly-sized backing
// array, releasing memory shared with predecessors in an append/DropFirst
// lineage (the retention machinery in index.Store compacts periodically
// so eviction actually frees the evicted head).
func (l *Log) Compact() *Log {
	records := make([]Failure, len(l.records))
	copy(records, l.records)
	return &Log{system: l.system, records: records}
}

// System returns the machine generation the log belongs to.
func (l *Log) System() System { return l.system }

// Len returns the number of records.
func (l *Log) Len() int { return len(l.records) }

// Records returns the chronologically ordered records. The returned slice
// is a copy; mutating it does not affect the log.
func (l *Log) Records() []Failure {
	return append([]Failure(nil), l.records...)
}

// At returns record i in chronological order.
func (l *Log) At(i int) Failure { return l.records[i] }

// Ref returns a pointer to record i in chronological order, for hot
// loops that read a record in place instead of copying it. The record
// belongs to the log: callers must not modify it.
func (l *Log) Ref(i int) *Failure { return &l.records[i] }

// Window returns the occurrence times of the first and last records.
// ok is false for an empty log.
func (l *Log) Window() (start, end time.Time, ok bool) {
	if len(l.records) == 0 {
		return time.Time{}, time.Time{}, false
	}
	return l.records[0].Time, l.records[len(l.records)-1].Time, true
}

// Span returns the duration between the first and last failure.
func (l *Log) Span() time.Duration {
	start, end, ok := l.Window()
	if !ok {
		return 0
	}
	return end.Sub(start)
}

// Filter returns a new log containing the records for which keep returns
// true. Ordering is preserved.
func (l *Log) Filter(keep func(Failure) bool) *Log {
	var out []Failure
	for _, r := range l.records {
		if keep(r) {
			out = append(out, r)
		}
	}
	return &Log{system: l.system, records: out}
}

// ByCategory groups record counts per category.
func (l *Log) ByCategory() map[Category]int {
	var counts PerCategory[int]
	for i := range l.records {
		counts[l.records[i].Category]++
	}
	out := make(map[Category]int)
	for c, n := range counts {
		if n > 0 {
			out[Category(c)] = n
		}
	}
	return out
}

// ByNode groups record counts per node, skipping records without node
// attribution.
func (l *Log) ByNode() map[string]int {
	out := make(map[string]int)
	for _, r := range l.records {
		if r.Node != "" {
			out[r.Node]++
		}
	}
	return out
}

// InterarrivalHours returns the time between consecutive failures in
// hours: len(records)-1 values for a log with at least two records.
func (l *Log) InterarrivalHours() []float64 {
	if len(l.records) < 2 {
		return nil
	}
	out := make([]float64, 0, len(l.records)-1)
	for i := 1; i < len(l.records); i++ {
		out = append(out, l.records[i].Time.Sub(l.records[i-1].Time).Hours())
	}
	return out
}

// RecoveryHours returns every record's time to recovery in hours.
func (l *Log) RecoveryHours() []float64 {
	out := make([]float64, len(l.records))
	for i, r := range l.records {
		out[i] = r.Recovery.Hours()
	}
	return out
}

// MTBFHours returns the mean time between failures in hours (the mean
// inter-arrival gap). ok is false when the log has fewer than two records.
func (l *Log) MTBFHours() (float64, bool) {
	gaps := l.InterarrivalHours()
	if len(gaps) == 0 {
		return 0, false
	}
	var sum float64
	for _, g := range gaps {
		sum += g
	}
	return sum / float64(len(gaps)), true
}

// MTTRHours returns the mean time to recovery in hours. ok is false for an
// empty log.
func (l *Log) MTTRHours() (float64, bool) {
	if len(l.records) == 0 {
		return 0, false
	}
	var sum float64
	for _, r := range l.records {
		sum += r.Recovery.Hours()
	}
	return sum / float64(len(l.records)), true
}

// Merge combines l with other (same system) into a new sorted log.
func (l *Log) Merge(other *Log) (*Log, error) {
	if other == nil {
		return NewLog(l.system, l.records)
	}
	if other.system != l.system {
		return nil, fmt.Errorf("failures: cannot merge %v log into %v log", other.system, l.system)
	}
	combined := make([]Failure, 0, len(l.records)+len(other.records))
	combined = append(combined, l.records...)
	combined = append(combined, other.records...)
	return NewLog(l.system, combined)
}

// SplitAt partitions the log into records strictly before t and records
// at or after t — the train/test split used to back-test predictors
// without leakage.
func (l *Log) SplitAt(t time.Time) (before, after *Log) {
	var a, b []Failure
	for _, r := range l.records {
		if r.Time.Before(t) {
			a = append(a, r)
		} else {
			b = append(b, r)
		}
	}
	return &Log{system: l.system, records: a}, &Log{system: l.system, records: b}
}

// SplitFraction splits the log chronologically so the first part holds
// frac of the records (rounded down). frac outside (0, 1) returns the
// whole log on one side.
func (l *Log) SplitFraction(frac float64) (head, tail *Log) {
	n := int(frac * float64(len(l.records)))
	if n < 0 {
		n = 0
	}
	if n > len(l.records) {
		n = len(l.records)
	}
	head = &Log{system: l.system, records: append([]Failure(nil), l.records[:n]...)}
	tail = &Log{system: l.system, records: append([]Failure(nil), l.records[n:]...)}
	return head, tail
}
