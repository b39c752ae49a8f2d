// Package sim is a discrete-event simulator of cluster failure and repair
// dynamics. It implements the operational-implications experiments of the
// paper: how repair crews, spare provisioning, and proactive recovery
// policies translate failure logs into node downtime and lost capacity.
//
// The engine is an indexed calendar queue (a bucketed time wheel with a
// far-tier overflow) over pooled, closure-free event records, with the
// same deterministic (time, seq) total order as the event heap it
// replaced: runs are exactly reproducible and byte-identical to the heap
// engine's. Time is measured in hours (float64), matching the rest of
// the repository.
package sim

import (
	"math"
	"sort"
)

// Event kinds dispatched by the simulation run loop. Kinds are small
// integers so an event record is four words with no pointers; the
// payload is an index into run-owned state (a process index), not a
// captured closure.
const (
	// evArrival is a failure arrival; arg is the failure-process index.
	evArrival int32 = iota
	// evRepairDone is a repair completion freeing its crew; arg is
	// unused.
	evRepairDone
)

// eventRec is one pooled event record: 32 bytes, no pointers, stored by
// value in the calendar-queue buckets. seq (schedule order) breaks time
// ties deterministically, exactly like the heap engine it replaced.
type eventRec struct {
	time float64
	seq  uint64
	kind int32
	arg  int32
}

// before reports the deterministic (time, seq) total order.
func (e eventRec) before(f eventRec) bool {
	if e.time != f.time {
		return e.time < f.time
	}
	return e.seq < f.seq
}

// Calendar-queue sizing. Bucket counts are powers of two between
// minBuckets and maxBuckets; the queue reindexes when the event
// population grows past growFactor events per bucket or shrinks below
// 1/shrinkFactor, keeping amortized O(1) enqueue/dequeue. See
// docs/SIMULATION.md for the parameter discussion.
const (
	minBuckets   = 16
	maxBuckets   = 1 << 17
	growFactor   = 2
	shrinkFactor = 8
)

// Engine is the discrete-event core: a clock and a time-ordered event
// queue. The zero value is ready to use.
//
// The queue is a two-tier calendar: "near" events live in buckets of
// fixed width covering the window [winStart, winStart+len(buckets)*width),
// "far" events (beyond the window) wait in an unsorted overflow tier.
// Bucket assignment floor((t-winStart)/width) is monotone in t and the
// current bucket is drained in (time, seq) order, so the dispatch order
// is the global (time, seq) order — identical to a binary heap's, without
// per-event allocations or O(log n) sift costs.
type Engine struct {
	now float64
	seq uint64

	// handler dispatches typed events; set once per run by the caller
	// (nil-safe: events without a handler are dropped).
	handler func(kind, arg int32)

	buckets  [][]eventRec // near tier: nb buckets of width hours each
	width    float64      // bucket width in hours
	winStart float64      // time at the lower edge of buckets[0]
	cur      int          // current (lowest non-drained) bucket index
	far      []eventRec   // overflow tier: events at/after the window end
	size     int          // total queued events, both tiers
}

// Now returns the current simulation time in hours.
func (e *Engine) Now() float64 { return e.now }

// Pending returns the number of queued events (events past the Run
// horizon remain queued).
func (e *Engine) Pending() int { return e.size }

// SetHandler installs the typed-event dispatcher used by ScheduleEvent
// kinds. One handler per engine replaces one closure per event.
func (e *Engine) SetHandler(h func(kind, arg int32)) { e.handler = h }

// ScheduleEvent enqueues a typed, closure-free event after delay hours.
// Negative delays schedule "now" (delay 0); events at equal times run in
// schedule order.
func (e *Engine) ScheduleEvent(delay float64, kind, arg int32) {
	if delay < 0 {
		delay = 0
	}
	e.push(eventRec{time: e.now + delay, seq: e.seq, kind: kind, arg: arg})
	e.seq++
}

// Run processes events until the queue drains or the clock passes until.
// Events scheduled exactly at until still run.
func (e *Engine) Run(until float64) {
	for e.size > 0 {
		rec, ok := e.peekPop(until)
		if !ok {
			break
		}
		e.now = rec.time
		if e.handler != nil {
			e.handler(rec.kind, rec.arg)
		}
	}
	if e.now < until {
		e.now = until
	}
}

// push inserts a record into the calendar, growing the bucket array when
// the population outruns it.
func (e *Engine) push(rec eventRec) {
	if len(e.buckets) == 0 {
		e.initBuckets(rec.time)
	}
	e.size++
	if e.size > len(e.buckets)*growFactor && len(e.buckets) < maxBuckets {
		e.reindex(e.size)
	}
	e.place(rec)
}

// place routes a record to its bucket or the far tier. Records below the
// current bucket (possible when the clock lags the drained window edge)
// clamp to the current bucket; the in-bucket (time, seq) scan keeps them
// ordered.
func (e *Engine) place(rec eventRec) {
	// Compare in float space before converting: a distant time over a
	// narrow width can overflow int.
	f := (rec.time - e.winStart) / e.width
	if f >= float64(len(e.buckets)) {
		e.far = append(e.far, rec)
		return
	}
	idx := int(f)
	if idx < e.cur {
		idx = e.cur
	}
	e.buckets[idx] = append(e.buckets[idx], rec)
}

// peekPop removes and returns the globally earliest record if its time
// is at or before until.
func (e *Engine) peekPop(until float64) (eventRec, bool) {
	for {
		// Drain the current bucket by repeated min-scan: buckets are
		// unsorted, but bucket ranges partition time, so the in-bucket
		// minimum is the global minimum.
		b := e.buckets[e.cur]
		if len(b) > 0 {
			min := 0
			for i := 1; i < len(b); i++ {
				if b[i].before(b[min]) {
					min = i
				}
			}
			rec := b[min]
			if rec.time > until {
				return eventRec{}, false
			}
			last := len(b) - 1
			b[min] = b[last]
			e.buckets[e.cur] = b[:last]
			e.size--
			return rec, true
		}
		if e.cur+1 < len(e.buckets) {
			e.cur++
			continue
		}
		// Window exhausted: everything left is in the far tier. Jump the
		// window to the earliest far event and redistribute.
		if len(e.far) == 0 {
			return eventRec{}, false // size bookkeeping says empty
		}
		e.rebase()
	}
}

// rebase re-anchors the window at the earliest far event and reassigns
// the far tier, shrinking the bucket array when the population fell far
// below it.
func (e *Engine) rebase() {
	minT := math.Inf(1)
	for _, rec := range e.far {
		if rec.time < minT {
			minT = rec.time
		}
	}
	if e.size < len(e.buckets)/shrinkFactor && len(e.buckets) > minBuckets {
		e.reindex(e.size)
		return
	}
	for i := range e.buckets {
		e.buckets[i] = e.buckets[i][:0]
	}
	e.cur = 0
	e.winStart = minT
	far := e.far
	e.far = e.far[:0]
	for _, rec := range far {
		e.place(rec)
	}
}

// initBuckets lays out the initial window around the first event.
func (e *Engine) initBuckets(at float64) {
	e.buckets = make([][]eventRec, minBuckets)
	e.width = 1 // hours; reindex adapts it from observed spacing
	e.winStart = at
	e.cur = 0
}

// reindex rebuilds the calendar for the current population: the bucket
// count tracks the live event count (a power of two, ~1 event per bucket
// at growFactor/2 average) and the width is re-estimated from the median
// inter-event gap, the classic calendar-queue sizing rule. Runs on
// population doublings/collapses, so the O(n log n) gap estimate is
// amortized O(log n) per event.
func (e *Engine) reindex(n int) {
	nb := minBuckets
	for nb < n && nb < maxBuckets {
		nb *= 2
	}
	all := make([]eventRec, 0, e.size)
	for _, b := range e.buckets {
		all = append(all, b...)
	}
	all = append(all, e.far...)
	e.width = medianGap(all, e.width)
	if len(e.buckets) != nb {
		e.buckets = make([][]eventRec, nb)
	} else {
		for i := range e.buckets {
			e.buckets[i] = e.buckets[i][:0]
		}
	}
	e.far = e.far[:0]
	e.cur = 0
	e.winStart = e.now
	if len(all) > 0 {
		minT := all[0].time
		for _, rec := range all[1:] {
			if rec.time < minT {
				minT = rec.time
			}
		}
		if minT < e.winStart {
			e.winStart = minT
		}
	}
	for _, rec := range all {
		e.place(rec)
	}
}

// medianGap estimates bucket width as the median positive gap between
// time-sorted events, clamped away from zero; fallback keeps the
// previous width when the sample carries no signal (fewer than two
// events, or all simultaneous).
func medianGap(events []eventRec, fallback float64) float64 {
	if len(events) < 2 {
		return fallback
	}
	times := make([]float64, len(events))
	for i, rec := range events {
		times[i] = rec.time
	}
	sort.Float64s(times)
	gaps := times[:0]
	for i := 1; i < len(times); i++ {
		if g := times[i] - times[i-1]; g > 0 {
			gaps = append(gaps, g)
		}
	}
	if len(gaps) == 0 {
		return fallback
	}
	// gaps is sorted-source differences, not sorted itself; a median by
	// sorting the (already allocated) gap slice is cheap at reindex rate.
	sort.Float64s(gaps)
	w := gaps[len(gaps)/2]
	if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
		return fallback
	}
	return w
}
