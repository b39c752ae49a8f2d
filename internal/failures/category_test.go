package failures

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"unsafe"
)

// TestFailureSize pins the record layout: the three 8-bit codes share
// one word, so a record is 88 bytes, not the 120 it took with string
// categories and causes.
func TestFailureSize(t *testing.T) {
	if got := unsafe.Sizeof(Failure{}); got != 88 {
		t.Errorf("unsafe.Sizeof(Failure{}) = %d, want 88", got)
	}
}

// vocabularies lists every code of both coded vocabularies, the zero
// code included, with its name.
func vocabularies() (cats []Category, causes []SoftwareCause) {
	for c := range categoryNames {
		cats = append(cats, Category(c))
	}
	for c := range causeNames {
		causes = append(causes, SoftwareCause(c))
	}
	return cats, causes
}

// TestCodesOrderAsNames checks, over every pair of codes, that codes
// compare as their names do, which is what keeps sorts and map-key
// orders of the string-typed vocabularies unchanged.
func TestCodesOrderAsNames(t *testing.T) {
	cats, causes := vocabularies()
	for _, a := range cats {
		for _, b := range cats {
			if (a < b) != (a.String() < b.String()) {
				t.Errorf("categories %d (%q) and %d (%q) order unlike their names", a, a, b, b)
			}
		}
	}
	for _, a := range causes {
		for _, b := range causes {
			if (a < b) != (a.String() < b.String()) {
				t.Errorf("causes %d (%q) and %d (%q) order unlike their names", a, a, b, b)
			}
		}
	}
	if Category(0).String() != "" || SoftwareCause(0).String() != "" {
		t.Errorf("zero codes print %q and %q, want empty names", Category(0), SoftwareCause(0))
	}
	if got := Category(99).String(); got != "Category(99)" {
		t.Errorf("out-of-range category prints %q", got)
	}
}

// TestNamesRoundTrip parses every name back to its code, through
// ParseCategory for the system whose taxonomy lists it, through
// ParseSoftwareCause, and through UnmarshalText, and rejects an unknown
// name by name.
func TestNamesRoundTrip(t *testing.T) {
	for _, s := range []System{Tsubame2, Tsubame3} {
		for _, c := range Categories(s) {
			got, err := ParseCategory(s, c.String())
			if err != nil || got != c {
				t.Errorf("ParseCategory(%v, %q) = %v, %v", s, c, got, err)
			}
		}
	}
	cats, causes := vocabularies()
	for _, c := range cats {
		var got Category
		if err := got.UnmarshalText([]byte(c.String())); err != nil || got != c {
			t.Errorf("UnmarshalText(%q) = %v, %v", c, got, err)
		}
	}
	for _, c := range causes {
		got, err := ParseSoftwareCause(c.String())
		if err != nil || got != c {
			t.Errorf("ParseSoftwareCause(%q) = %v, %v", c, got, err)
		}
		var text SoftwareCause
		if err := text.UnmarshalText([]byte(c.String())); err != nil || text != c {
			t.Errorf("UnmarshalText(%q) = %v, %v", c, text, err)
		}
	}
	var cat Category
	var cause SoftwareCause
	for name, err := range map[string]error{
		"ParseCategory":               func() error { _, err := ParseCategory(Tsubame3, "Warp"); return err }(),
		"ParseSoftwareCause":          func() error { _, err := ParseSoftwareCause("Warp"); return err }(),
		"Category.UnmarshalText":      cat.UnmarshalText([]byte("Warp")),
		"SoftwareCause.UnmarshalText": cause.UnmarshalText([]byte("Warp")),
	} {
		if err == nil || !strings.Contains(err.Error(), `"Warp"`) {
			t.Errorf("%s of an unknown name: error %v, want one naming it", name, err)
		}
	}
}

// TestCodesEncodeAsNames compares the JSON of coded vocabularies, as
// slices and as map keys, with the same values typed as strings: the
// bytes every profile, report and manifest carried before the codes.
func TestCodesEncodeAsNames(t *testing.T) {
	cats, causes := vocabularies()
	catNames := make([]string, len(cats))
	catCounts, catOracle := map[Category]int{}, map[string]int{}
	for i, c := range cats {
		catNames[i] = c.String()
		catCounts[c], catOracle[c.String()] = i, i
	}
	causeCounts, causeOracle := map[SoftwareCause]float64{}, map[string]float64{}
	for i, c := range causes {
		causeCounts[c], causeOracle[c.String()] = float64(i)/3, float64(i)/3
	}
	for _, c := range []struct {
		name        string
		coded, want any
	}{
		{"[]Category", cats, catNames},
		{"map[Category]int", catCounts, catOracle},
		{"map[SoftwareCause]float64", causeCounts, causeOracle},
	} {
		got, err := json.Marshal(c.coded)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := json.Marshal(c.want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s encodes as\n%s\nwant\n%s", c.name, got, want)
		}
	}
	var back []Category
	if err := json.Unmarshal([]byte(`["GPU","","VM"]`), &back); err != nil || len(back) != 3 || back[0] != CatGPU || back[1] != 0 || back[2] != CatVM {
		t.Errorf("decoding names: %v, %v", back, err)
	}
}

func TestCategoriesMatchTableII(t *testing.T) {
	t2 := Categories(Tsubame2)
	if len(t2) != 17 {
		t.Errorf("Tsubame-2 taxonomy has %d categories, Table II lists 17", len(t2))
	}
	t3 := Categories(Tsubame3)
	if len(t3) != 16 {
		t.Errorf("Tsubame-3 taxonomy has %d categories, Table II lists 16", len(t3))
	}
	if Categories(System(0)) != nil {
		t.Error("unknown system should have nil taxonomy")
	}
}

func TestCategoriesReturnsCopy(t *testing.T) {
	a := Categories(Tsubame2)
	a[0] = CatVM
	b := Categories(Tsubame2)
	if b[0] == CatVM {
		t.Error("Categories aliases internal state")
	}
}

func TestCategoryValidFor(t *testing.T) {
	tests := []struct {
		cat    Category
		system System
		want   bool
	}{
		{CatGPU, Tsubame2, true},
		{CatGPU, Tsubame3, true},
		{CatFan, Tsubame2, true},
		{CatFan, Tsubame3, false},
		{CatOmniPath, Tsubame3, true},
		{CatOmniPath, Tsubame2, false},
		{CatSXM2Board, Tsubame3, true},
		{Category(99), Tsubame2, false},
		{0, Tsubame2, false},
	}
	for _, tt := range tests {
		if got := tt.cat.ValidFor(tt.system); got != tt.want {
			t.Errorf("%q.ValidFor(%v) = %v, want %v", tt.cat, tt.system, got, tt.want)
		}
	}
}

func TestSoftwareHardwareSplit(t *testing.T) {
	software := []Category{CatOtherSW, CatPBS, CatVM, CatBoot, CatGPUDriver, CatLustre, CatSoftware, CatUnknown}
	for _, c := range software {
		if !c.Software() || c.Hardware() {
			t.Errorf("%q should be software", c)
		}
	}
	hardware := []Category{CatGPU, CatCPU, CatMemory, CatSSD, CatFan, CatPowerBoard, CatSXM2Cable}
	for _, c := range hardware {
		if !c.Hardware() || c.Software() {
			t.Errorf("%q should be hardware", c)
		}
	}
}

func TestGPURelated(t *testing.T) {
	for _, c := range []Category{CatGPU, CatGPUDriver, CatSXM2Cable, CatSXM2Board} {
		if !c.GPURelated() {
			t.Errorf("%q should be GPU-related", c)
		}
	}
	for _, c := range []Category{CatCPU, CatMemory, CatSoftware, CatFan} {
		if c.GPURelated() {
			t.Errorf("%q should not be GPU-related", c)
		}
	}
}

func TestParseCategory(t *testing.T) {
	c, err := ParseCategory(Tsubame2, "GPU")
	if err != nil || c != CatGPU {
		t.Errorf("ParseCategory = %v, %v", c, err)
	}
	if _, err := ParseCategory(Tsubame2, "OmniPath"); err == nil {
		t.Error("cross-taxonomy parse should fail")
	}
	if _, err := ParseCategory(Tsubame3, "Garbage"); err == nil {
		t.Error("unknown category should fail")
	}
}

func TestSoftwareCauses(t *testing.T) {
	causes := SoftwareCauses()
	if len(causes) != 16 {
		t.Errorf("%d software causes, Figure 3 shows a top-16", len(causes))
	}
	if causes[0] != CauseGPUDriver {
		t.Errorf("first cause = %q, Figure 3's dominant locus is the GPU driver", causes[0])
	}
	for _, c := range causes {
		if !c.Valid() {
			t.Errorf("listed cause %q reports invalid", c)
		}
	}
	if SoftwareCause(99).Valid() || SoftwareCause(0).Valid() {
		t.Error("unknown cause should be invalid")
	}
	// Returned slice is a copy.
	causes[0] = CauseNFS
	if SoftwareCauses()[0] == CauseNFS {
		t.Error("SoftwareCauses aliases internal state")
	}
}
