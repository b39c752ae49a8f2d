package index

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/failures"
	"repro/internal/obs"
)

// Store is the append-aware form of the index: the substrate of the
// streaming-ingest service (internal/serve). Where a View is built once
// over a finished log, a Store accepts record batches over its lifetime
// and publishes each accepted batch as a new immutable Epoch.
//
// Cost model — amortized linear in the batch, not the log. Append
// validates and sorts only the incoming batch (failures.SortBatch,
// O(b log b)) and merges it into the committed, already-sorted log
// (failures.Log.AppendSorted): a batch landing at the time-tail — the
// live-stream common case — is a pure O(b) amortized append, and an
// interleaving batch costs one O(n+b) two-run merge. No path revalidates
// or re-sorts committed records. The new epoch's View then carries
// forward every facet the previous epoch had materialized, maintained
// from the delta (delta.go) instead of recomputed, while untouched
// facets stay lazy — so an append-only stream pays O(b) per epoch
// regardless of resident log size (BenchmarkPerfServeIngestSteady
// defends this).
//
// Equivalence: none of this is observable. A snapshot taken mid-ingest
// is exactly index.New over the records ingested so far — every facet
// reflect.DeepEqual to the batch build, for every way of splitting a
// stream into batches (store_test.go and store_metamorphic_test.go pin
// this).
//
// Retention: StoreOptions bound the resident log by record count and/or
// record age so unbounded streams run in bounded memory. Eviction drops
// the oldest records and publishes a View equivalent to batch-indexing
// the retained suffix; the backing array is compacted on an amortized
// O(1)-per-record schedule.
//
// Concurrency: Append serializes writers on an internal mutex and
// publishes the new epoch with one atomic pointer store; Snapshot is a
// single atomic load, so readers never block, never see a half-built
// epoch, and keep whatever epoch they hold for as long as they need it.
// Facet memoization inside the epoch's View is already race-free
// (per-facet once), so any number of queries can share one epoch.
type Store struct {
	mu     sync.Mutex // serializes Append
	system failures.System
	opts   StoreOptions
	log    *failures.Log // committed, sorted; superseded by each append
	waste  int           // evicted records still pinned by the backing array
	cur    atomic.Pointer[Epoch]
}

// StoreOptions bound the records a Store keeps resident. Zero values
// mean unlimited. Limits apply to the log, never to readers: epochs
// already snapshotted keep their full view.
type StoreOptions struct {
	// MaxRecords caps the resident record count; each append evicts the
	// oldest records beyond it.
	MaxRecords int
	// MaxAge evicts records older than the newest resident record's
	// occurrence time minus MaxAge. The window is anchored on record
	// (data) time, not wall clock, so a replayed stream evicts
	// identically to a live one. The newest record is never evicted.
	MaxAge time.Duration
}

// Epoch is one immutable published state of a Store: a monotonically
// increasing sequence number and the View over the records resident as
// of that append. Epoch 0 is the empty log.
type Epoch struct {
	seq     uint64
	view    *View
	evicted int
}

// Seq returns the epoch's sequence number. Result caches key on it: two
// reads with the same (query, Seq) may share a cached result.
func (e *Epoch) Seq() uint64 { return e.seq }

// View returns the epoch's immutable index view.
func (e *Epoch) View() *View { return e.view }

// Evicted returns how many records retention evicted while forming this
// epoch.
func (e *Epoch) Evicted() int { return e.evicted }

// NewStoreWithOptions returns an empty store with retention bounds.
func NewStoreWithOptions(system failures.System, opts StoreOptions) (*Store, error) {
	if opts.MaxRecords < 0 {
		return nil, fmt.Errorf("index: negative MaxRecords %d", opts.MaxRecords)
	}
	if opts.MaxAge < 0 {
		return nil, fmt.Errorf("index: negative MaxAge %v", opts.MaxAge)
	}
	empty, err := failures.NewLog(system, nil)
	if err != nil {
		return nil, err
	}
	s := &Store{system: system, opts: opts, log: empty}
	s.cur.Store(&Epoch{seq: 0, view: New(empty)})
	return s, nil
}

// System returns the machine generation the store ingests.
func (s *Store) System() failures.System { return s.system }

// Snapshot returns the current epoch: one atomic load, never blocked by
// concurrent Append calls.
func (s *Store) Snapshot() *Epoch { return s.cur.Load() }

// Append validates records, merges them into the store, applies
// retention, and publishes the result as a new epoch, which it returns.
//
// On validation failure (wrong system, malformed record) the store is
// untouched and the current epoch stays published; the cost of a
// rejected batch is O(b log b) in the batch alone, independent of the
// resident log. Appending an empty batch returns the current epoch
// without advancing it.
func (s *Store) Append(records []failures.Failure) (*Epoch, error) {
	if len(records) == 0 {
		return s.cur.Load(), nil
	}
	defer obs.StartSpan("index/append").End()
	// Validate and sort the batch before taking the lock or reading the
	// log: a malformed batch never touches the store.
	sorted, err := failures.SortBatch(s.system, records)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	log, atTail, err := s.log.AppendSorted(sorted)
	if err != nil {
		return nil, err
	}
	prev := s.cur.Load()
	var view *View
	evict := s.evictCount(log)
	if evict > 0 {
		log = log.DropFirst(evict)
		// DropFirst is O(1) but pins the evicted head until a compaction
		// copies the suffix; compacting when the pinned head outgrows the
		// retained suffix keeps memory ≤ 2x resident and costs amortized
		// O(1) per evicted record.
		s.waste += evict
		if s.waste > log.Len() {
			log = log.Compact()
			s.waste = 0
		}
		// Eviction rebases every chronological facet, so the epoch view is
		// a plain batch index over the retained suffix — the definition of
		// the retention-equivalence contract.
		view = New(log)
		obs.Add("index/evicted_records", int64(evict))
	} else {
		view = nextView(prev.view, log, sorted, atTail)
	}
	s.log = log
	next := &Epoch{seq: prev.seq + 1, view: view, evicted: evict}
	s.cur.Store(next)
	obs.Add("index/appended_records", int64(len(sorted)))
	return next, nil
}

// evictCount returns how many of log's oldest records retention evicts.
// The newest record always survives: MaxRecords ≥ 1 when set, and the
// age window is anchored on the newest record's own time.
func (s *Store) evictCount(log *failures.Log) int {
	n := log.Len()
	if n == 0 {
		return 0
	}
	k := 0
	if s.opts.MaxRecords > 0 && n > s.opts.MaxRecords {
		k = n - s.opts.MaxRecords
	}
	if s.opts.MaxAge > 0 {
		cutoff := log.At(n - 1).Time.Add(-s.opts.MaxAge)
		// First index at or after the cutoff; everything before it has
		// aged out of the window.
		if j := sort.Search(n, func(i int) bool { return !log.At(i).Time.Before(cutoff) }); j > k {
			k = j
		}
	}
	return k
}
