// Package failures defines the domain model of the reproduction: the
// failure record schema shared by the synthetic generator, the log
// serializers, and the analysis engine, plus the failure-category
// taxonomies of the Tsubame-2 and Tsubame-3 supercomputers (Table II of the
// paper) and the software root-locus taxonomy (Figure 3).
package failures

import (
	"fmt"
	"sort"
	"time"
)

// System identifies which supercomputer generation a record belongs to.
// It is an 8-bit code, as Category and SoftwareCause are, so the three
// fit together in one word of a Failure.
type System int8

// The two studied systems. Values start at 1 so the zero value is invalid
// and cannot be mistaken for a real system.
const (
	Tsubame2 System = iota + 1
	Tsubame3
)

// String implements fmt.Stringer.
func (s System) String() string {
	switch s {
	case Tsubame2:
		return "Tsubame-2"
	case Tsubame3:
		return "Tsubame-3"
	default:
		return fmt.Sprintf("System(%d)", int(s))
	}
}

// Valid reports whether s is a known system.
func (s System) Valid() bool { return s == Tsubame2 || s == Tsubame3 }

// ParseSystem converts the serialized system name back to a System.
func ParseSystem(name string) (System, error) {
	switch name {
	case "Tsubame-2", "tsubame-2", "tsubame2", "t2":
		return Tsubame2, nil
	case "Tsubame-3", "tsubame-3", "tsubame3", "t3":
		return Tsubame3, nil
	default:
		return 0, fmt.Errorf("failures: unknown system %q", name)
	}
}

// Failure is one record of a failure log. The paper's logs record, for each
// failure, the time of occurrence, the time to recovery, and the category;
// our schema additionally carries the location fields the paper's spatial
// analyses require (node, GPU slots) and the software root locus used by
// Figure 3.
type Failure struct {
	// ID is a log-unique sequence number.
	ID int
	// System is the machine generation the failure occurred on.
	System System
	// Category is the reported failure category (Table II).
	Category Category
	// SoftwareCause is the root locus of a software failure (Figure 3);
	// zero for non-software failures.
	SoftwareCause SoftwareCause
	// Time is the moment of failure occurrence.
	Time time.Time
	// Recovery is the time taken to completely repair the failure and
	// return to normal operational status.
	Recovery time.Duration
	// Node is the identifier of the affected compute node. Empty for
	// system-level failures that are not attributable to a node (rack,
	// network fabric, PBS, ...).
	Node string
	// GPUs lists the GPU slot indices involved, for failures that touch
	// GPUs. The paper's Table III counts the size of this set.
	GPUs []int
}

// Hardware reports whether the failure's category is a hardware category.
func (f Failure) Hardware() bool { return f.Category.Hardware() }

// Software reports whether the failure's category is a software category.
func (f Failure) Software() bool { return f.Category.Software() }

// MultiGPU reports whether the failure involved two or more GPUs on the
// same node simultaneously.
func (f Failure) MultiGPU() bool { return len(f.GPUs) >= 2 }

// RepairEnd returns the moment the repair completed.
func (f Failure) RepairEnd() time.Time { return f.Time.Add(f.Recovery) }

// Validate checks the record's internal consistency against the taxonomy
// of its system.
func (f Failure) Validate() error {
	if !f.System.Valid() {
		return fmt.Errorf("failures: record %d has invalid system %d", f.ID, int(f.System))
	}
	if f.Time.IsZero() {
		return fmt.Errorf("failures: record %d has zero occurrence time", f.ID)
	}
	if f.Recovery < 0 {
		return fmt.Errorf("failures: record %d has negative recovery %v", f.ID, f.Recovery)
	}
	if !f.Category.ValidFor(f.System) {
		return fmt.Errorf("failures: record %d category %q is not in the %v taxonomy", f.ID, f.Category, f.System)
	}
	// Slot lists are at most GPUsPerNode long once the range check holds,
	// so a quadratic scan beats allocating a set per record — Validate runs
	// once per record per ingested batch, and the map dominated its cost.
	maxSlot := GPUsPerNode(f.System)
	for i, g := range f.GPUs {
		if g < 0 || g >= maxSlot {
			return fmt.Errorf("failures: record %d references GPU slot %d outside [0, %d)", f.ID, g, maxSlot)
		}
		for _, prev := range f.GPUs[:i] {
			if prev == g {
				return fmt.Errorf("failures: record %d lists GPU slot %d twice", f.ID, g)
			}
		}
	}
	if f.SoftwareCause != 0 && !f.Software() {
		return fmt.Errorf("failures: record %d has software cause %q but non-software category %q", f.ID, f.SoftwareCause, f.Category)
	}
	if f.SoftwareCause != 0 && !f.SoftwareCause.Valid() {
		return fmt.Errorf("failures: record %d has unknown software cause %q", f.ID, f.SoftwareCause)
	}
	return nil
}

// GPUsPerNode returns the node GPU count of the system (Figure 1: three on
// Tsubame-2, four on Tsubame-3).
func GPUsPerNode(s System) int {
	switch s {
	case Tsubame2:
		return 3
	case Tsubame3:
		return 4
	default:
		return 0
	}
}

// SortByTime orders records chronologically in place, breaking ties by ID
// so the order is deterministic.
func SortByTime(records []Failure) {
	sort.Slice(records, func(i, j int) bool {
		return chronoLess(records[i], records[j])
	})
}

// chronoLess is the canonical log ordering: occurrence time, ties broken
// by ID. SortByTime and Log.AppendSorted share it so a merged log is
// ordered exactly as a from-scratch sort.
func chronoLess(a, b Failure) bool {
	if !a.Time.Equal(b.Time) {
		return a.Time.Before(b.Time)
	}
	return a.ID < b.ID
}
