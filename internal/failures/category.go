package failures

import (
	"fmt"
	"slices"
)

// Category is a reported failure category, coded as an index into
// categoryNames. The taxonomy differs between the two systems (Table II
// of the paper); ValidFor checks membership. The zero code is the empty
// name and belongs to no taxonomy.
//
// Codes are numbered in byte-wise order of their names, so comparing two
// codes orders them exactly as comparing their names would: sorts,
// fmt's map printing and encoding/json's map keys see the same order as
// when categories were strings.
type Category int8

// The categories of both Table II taxonomies, in name order.
const (
	CatBoot Category = iota + 1
	CatCPU
	CatCRC
	CatDisk
	CatDown
	CatFan
	CatGPU
	CatGPUDriver
	CatIB
	CatIPMotherboard
	CatLedFrontPanel
	CatLustre
	CatMemory
	CatNetwork
	CatOmniPath
	CatOtherHW
	CatOtherSW
	CatPBS
	CatPSU
	CatPowerBoard
	CatRack
	CatRibbonCable
	CatSSD
	CatSXM2Board
	CatSXM2Cable
	CatSoftware
	CatSystemBoard
	CatUnknown
	CatVM
)

// categoryNames is the name of each category code.
var categoryNames = [...]string{
	"", "Boot", "CPU", "CRC", "Disk", "Down", "FAN", "GPU", "GPUDriver", "IB",
	"IPMotherboard", "LedFrontPanel", "Lustre", "Memory", "Network",
	"OmniPath", "OtherHW", "OtherSW", "PBS", "PSU", "PowerBoard", "Rack",
	"RibbonCable", "SSD", "SXM2Board", "SXM2Cable", "Software",
	"SystemBoard", "Unknown", "VM",
}

// tsubame2Categories is the Table II taxonomy for Tsubame-2, in the
// paper's order.
var tsubame2Categories = []Category{
	CatBoot, CatCPU, CatDisk, CatDown, CatFan, CatGPU, CatIB, CatMemory,
	CatNetwork, CatOtherHW, CatOtherSW, CatPBS, CatPSU, CatRack, CatSSD,
	CatSystemBoard, CatVM,
}

// tsubame3Categories is the Table II taxonomy for Tsubame-3, in the
// paper's order. CPU, Disk, GPU, and Memory are shared with Tsubame-2.
var tsubame3Categories = []Category{
	CatCPU, CatCRC, CatDisk, CatGPU, CatGPUDriver, CatIPMotherboard,
	CatLedFrontPanel, CatLustre, CatMemory, CatOmniPath, CatPowerBoard,
	CatRibbonCable, CatSoftware, CatSXM2Cable, CatSXM2Board, CatUnknown,
}

// softwareCategories flags, one bit per code, the categories the paper
// treats as software failures; everything else in the taxonomies is
// hardware or infrastructure.
const softwareCategories = 1<<CatOtherSW | 1<<CatPBS | 1<<CatVM | 1<<CatBoot |
	1<<CatGPUDriver | 1<<CatLustre | 1<<CatSoftware | 1<<CatUnknown

// gpuCategories flags the categories that involve GPU cards and therefore
// carry GPU slot information (Figure 5, Table III).
const gpuCategories = 1<<CatGPU | 1<<CatGPUDriver | 1<<CatSXM2Cable | 1<<CatSXM2Board

// taxonomyIndex holds one plus each category's position in each
// system's taxonomy, 0 where the system does not list it.
var taxonomyIndex = func() (t [Tsubame3 + 1]PerCategory[int8]) {
	for s := range t {
		for c := range t[s] {
			t[s][c] = int8(slices.Index(taxonomy(System(s)), Category(c)) + 1)
		}
	}
	return t
}()

// PerCategory holds one T per category code, the zero code included: the
// array form of a map keyed by Category.
type PerCategory[T any] [len(categoryNames)]T

// At returns c's value, or the zero T for a code outside the vocabulary.
func (p *PerCategory[T]) At(c Category) (v T) {
	if c >= 0 && int(c) < len(p) {
		v = p[c]
	}
	return v
}

// SortedCategories returns the keys of m in code order, which is name
// order.
func SortedCategories[V any](m map[Category]V) []Category {
	cats := make([]Category, 0, len(m))
	for c := range m {
		cats = append(cats, c)
	}
	slices.Sort(cats)
	return cats
}

// Categories returns the Table II taxonomy of the system, in the paper's
// order. The returned slice is a copy.
func Categories(s System) []Category {
	return slices.Clone(taxonomy(s))
}

func taxonomy(s System) []Category {
	switch s {
	case Tsubame2:
		return tsubame2Categories
	case Tsubame3:
		return tsubame3Categories
	default:
		return nil
	}
}

// Index returns the category's position in the system's taxonomy (the
// order Categories returns), or -1 when the taxonomy does not list it.
func (c Category) Index(s System) int {
	if !s.Valid() {
		return -1
	}
	return int(taxonomyIndex[s].At(c)) - 1
}

// ValidFor reports whether the category belongs to the system's taxonomy.
func (c Category) ValidFor(s System) bool { return c.Index(s) >= 0 }

// Software reports whether the category is a software category.
func (c Category) Software() bool { return softwareCategories&(uint64(1)<<uint8(c)) != 0 }

// Hardware reports whether the category is a hardware category.
func (c Category) Hardware() bool { return !c.Software() }

// GPURelated reports whether failures of this category involve GPU cards.
func (c Category) GPURelated() bool { return gpuCategories&(uint64(1)<<uint8(c)) != 0 }

// String returns the category's name: "" for the zero code, and a
// Category(n) form for a code outside the vocabulary.
func (c Category) String() string { return codeName(categoryNames[:], "Category", int(c)) }

// MarshalText encodes the category as its name, so JSON and other text
// encodings carry names, not codes.
func (c Category) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText decodes a category name from either taxonomy; the empty
// name is the zero code.
func (c *Category) UnmarshalText(text []byte) error {
	code, ok := slices.BinarySearch(categoryNames[:], string(text))
	if !ok {
		return fmt.Errorf("failures: unknown category %q", text)
	}
	*c = Category(code)
	return nil
}

// ParseCategory validates name against the system taxonomy.
func ParseCategory(s System, name string) (Category, error) {
	if code, ok := slices.BinarySearch(categoryNames[:], name); ok && Category(code).ValidFor(s) {
		return Category(code), nil
	}
	return 0, fmt.Errorf("failures: category %q is not in the %v taxonomy", name, s)
}

// SoftwareCause is the root locus of a software failure, the unit of
// Figure 3's breakdown, coded as an index into causeNames in name order,
// as Category is. The zero code is the empty name: no cause. The paper
// reports 171 software failures on Tsubame-3 with GPU-driver-related
// problems at ~43% and ~20% unknown.
type SoftwareCause int8

// Software root loci (Figure 3's top-16), in name order. The dominant
// loci (GPU driver, unknown, OmniPath driver, GPU Direct, Lustre client,
// kernel panic) are named in the paper's text; the remainder are
// plausible loci chosen to fill the published top-16 histogram shape.
const (
	CauseAuthentication SoftwareCause = iota + 1
	CauseCUDAMismatch
	CauseContainer
	CauseFilesystemMount
	CauseFirmware
	CauseGPUDirect
	CauseGPUDriver
	CauseKernelPanic
	CauseLustreClient
	CauseMPIRuntime
	CauseNFS
	CauseOSUpdate
	CauseOmniPathDriver
	CauseScheduler
	CauseSecurityPatch
	CauseUnknown
)

// causeNames is the name of each cause code.
var causeNames = [...]string{
	"", "Authentication", "CUDAVersionMismatch", "ContainerRuntime",
	"FilesystemMount", "FirmwareMismatch", "GPUDirect", "GPUDriverProblem",
	"KernelPanic", "LustreClient", "MPIRuntime", "NFS", "OSUpdate",
	"OmniPathDriver", "SchedulerDaemon", "SecurityPatch", "UnknownCause",
}

// softwareCauses lists every known root locus, most frequent first (the
// Figure 3 ordering).
var softwareCauses = []SoftwareCause{
	CauseGPUDriver, CauseUnknown, CauseOmniPathDriver, CauseGPUDirect,
	CauseCUDAMismatch, CauseLustreClient, CauseKernelPanic, CauseMPIRuntime,
	CauseScheduler, CauseFilesystemMount, CauseNFS, CauseOSUpdate,
	CauseFirmware, CauseContainer, CauseSecurityPatch, CauseAuthentication,
}

// causeIndex holds each cause's position in softwareCauses, -1 for the
// zero code.
var causeIndex = func() (t [len(causeNames)]int8) {
	for c := range t {
		t[c] = int8(slices.Index(softwareCauses, SoftwareCause(c)))
	}
	return t
}()

// SoftwareCauses returns the known root loci in Figure 3 order. The
// returned slice is a copy.
func SoftwareCauses() []SoftwareCause {
	return slices.Clone(softwareCauses)
}

// Index returns the cause's position in Figure 3 order (the order
// SoftwareCauses returns), or -1 for no cause or an unknown code.
func (c SoftwareCause) Index() int {
	if c < 0 || int(c) >= len(causeNames) {
		return -1
	}
	return int(causeIndex[c])
}

// Valid reports whether the cause is a known root locus.
func (c SoftwareCause) Valid() bool { return c.Index() >= 0 }

// String returns the cause's name: "" for no cause, and a
// SoftwareCause(n) form for a code outside the vocabulary.
func (c SoftwareCause) String() string { return codeName(causeNames[:], "SoftwareCause", int(c)) }

// MarshalText encodes the cause as its name.
func (c SoftwareCause) MarshalText() ([]byte, error) { return []byte(c.String()), nil }

// UnmarshalText decodes a cause name; the empty name is no cause.
func (c *SoftwareCause) UnmarshalText(text []byte) error {
	cause, err := ParseSoftwareCause(string(text))
	*c = cause
	return err
}

// ParseSoftwareCause decodes a root-locus name; the empty name is no
// cause.
func ParseSoftwareCause(name string) (SoftwareCause, error) {
	code, ok := slices.BinarySearch(causeNames[:], name)
	if !ok {
		return 0, fmt.Errorf("failures: unknown software cause %q", name)
	}
	return SoftwareCause(code), nil
}

// codeName returns names[code], or a type(code) form outside the table.
func codeName(names []string, typ string, code int) string {
	if code < 0 || code >= len(names) {
		return fmt.Sprintf("%s(%d)", typ, code)
	}
	return names[code]
}
