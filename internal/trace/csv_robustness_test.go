package trace

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/synth"
)

const plainCSV = "id,system,time,recovery_hours,category,node,gpus,software_cause\n" +
	"1,Tsubame-2,2012-01-01T00:00:00Z,1.5000,GPU,n0001,0;1,\n" +
	"2,Tsubame-2,2012-01-02T00:00:00Z,0.2500,SSD,n0002,,\n"

// TestReadCSVStripsBOM covers the UTF-8 byte-order mark Excel and
// PowerShell prepend to CSV exports. Pre-fix, encoding/csv folded the BOM
// into the first header column and the header check rejected the file.
func TestReadCSVStripsBOM(t *testing.T) {
	log, err := ReadCSV(strings.NewReader("\uFEFF" + plainCSV))
	if err != nil {
		t.Fatalf("ReadCSV with BOM: %v", err)
	}
	if log.Len() != 2 {
		t.Fatalf("got %d records, want 2", log.Len())
	}
}

// TestReadCSVAcceptsCRLF covers Windows line endings, including a
// CRLF-terminated header row.
func TestReadCSVAcceptsCRLF(t *testing.T) {
	crlf := strings.ReplaceAll(plainCSV, "\n", "\r\n")
	log, err := ReadCSV(strings.NewReader(crlf))
	if err != nil {
		t.Fatalf("ReadCSV with CRLF: %v", err)
	}
	if log.Len() != 2 {
		t.Fatalf("got %d records, want 2", log.Len())
	}
}

// TestReadCSVTrimsFieldPadding covers whitespace-padded fields, which
// hand-edited and spreadsheet-exported files routinely contain. Pre-fix,
// " Tsubame-2" failed system parsing and " 1.5000" failed ParseFloat.
func TestReadCSVTrimsFieldPadding(t *testing.T) {
	padded := "id, system ,time , recovery_hours,category,node,gpus,software_cause\n" +
		" 1 , Tsubame-2 , 2012-01-01T00:00:00Z , 1.5000 , GPU , n0001 , 0;1 , \n" +
		"2,Tsubame-2,2012-01-02T00:00:00Z,0.2500,SSD,\tn0002\t,,\n"
	log, err := ReadCSV(strings.NewReader(padded))
	if err != nil {
		t.Fatalf("ReadCSV with padded fields: %v", err)
	}
	recs := log.Records()
	if recs[0].Node != "n0001" || recs[1].Node != "n0002" {
		t.Errorf("nodes not trimmed: %q, %q", recs[0].Node, recs[1].Node)
	}
	if want := 90 * time.Minute; recs[0].Recovery != want {
		t.Errorf("recovery = %v, want %v", recs[0].Recovery, want)
	}
	if len(recs[0].GPUs) != 2 {
		t.Errorf("GPUs = %v, want two slots", recs[0].GPUs)
	}
}

// TestReadCSVAllToleranceArtifactsAtOnce stacks BOM + CRLF + padding, the
// exact shape of a log edited in a spreadsheet on Windows and saved as
// "CSV UTF-8".
func TestReadCSVAllToleranceArtifactsAtOnce(t *testing.T) {
	in := "\uFEFF" + strings.ReplaceAll(
		"id,system,time,recovery_hours,category,node,gpus,software_cause\n"+
			"1, Tsubame-2 ,2012-01-01T00:00:00Z, 1.5000 ,GPU,n0001,0;1,\n", "\n", "\r\n")
	log, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if log.Len() != 1 {
		t.Fatalf("got %d records, want 1", log.Len())
	}
}

// TestCSVRoundTripByteIdentical is the regression test for the round-trip
// drift bug: the read side used to compute hours*time.Hour in floating
// point, landing off the 0.0001-hour grid, so each Write -> Read -> Write
// cycle shifted recovery durations. Both sides now snap to the canonical
// 360 ms resolution, making the second round trip the identity.
func TestCSVRoundTripByteIdentical(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame3Profile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var first bytes.Buffer
	if err := WriteCSV(&first, log); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteCSV(&second, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("double round trip is not byte-identical")
	}
	// And a third trip for good measure: once canonical, always canonical.
	again, err := ReadCSV(bytes.NewReader(second.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var third bytes.Buffer
	if err := WriteCSV(&third, again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.Bytes(), third.Bytes()) {
		t.Fatal("third round trip drifted")
	}
}

// TestReadCSVCanonicalRecovery pins the exact durations the canonical
// grid produces. The 0.0045 h row is the regression case: the pre-fix
// reader computed 0.0045*time.Hour in floating point and truncated to
// 16199999999 ns — one nanosecond off the 16.2 s grid point — so parsed
// durations did not equal the written ones exactly.
func TestReadCSVCanonicalRecovery(t *testing.T) {
	in := "id,system,time,recovery_hours,category,node,gpus,software_cause\n" +
		"1,Tsubame-2,2012-01-01T00:00:00Z,0.0045,GPU,n0001,0,\n" +
		"2,Tsubame-2,2012-01-02T00:00:00Z,1.5000,GPU,n0001,0,\n" +
		"3,Tsubame-2,2012-01-03T00:00:00Z,55.0000,SSD,n0002,,\n"
	log, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{16200 * time.Millisecond, 90 * time.Minute, 55 * time.Hour}
	for i, r := range log.Records() {
		if r.Recovery != want[i] {
			t.Errorf("record %d recovery = %v, want exactly %v", i, r.Recovery, want[i])
		}
	}
}

// TestReadCSVRejectsOverflowingRecovery guards the grid multiplication
// against int64 overflow on absurd recovery values.
func TestReadCSVRejectsOverflowingRecovery(t *testing.T) {
	in := "id,system,time,recovery_hours,category,node,gpus,software_cause\n" +
		"1,Tsubame-2,2012-01-01T00:00:00Z,1e18,GPU,n0001,0,\n"
	if _, err := ReadCSV(strings.NewReader(in)); err == nil {
		t.Fatal("expected an overflow error")
	}
}

// TestReadCSVRejectsMixedSystems: every record of a log must belong to
// one system; a file that interleaves Tsubame-2 and Tsubame-3 rows is a
// corrupt export and must be rejected, not silently coerced.
func TestReadCSVRejectsMixedSystems(t *testing.T) {
	in := "id,system,time,recovery_hours,category,node,gpus,software_cause\n" +
		"1,Tsubame-2,2012-01-01T00:00:00Z,1.0000,GPU,n0001,0,\n" +
		"2,Tsubame-3,2012-01-02T00:00:00Z,1.0000,GPU,n0002,0,\n"
	_, err := ReadCSV(strings.NewReader(in))
	if err == nil {
		t.Fatal("expected a mixed-system error")
	}
	if !strings.Contains(err.Error(), "belongs to") {
		t.Errorf("error %q does not identify the mixed-system record", err)
	}
}

// TestReadCSVSortsUnsortedInput: rows out of time order are legitimate
// (merged exports, reversed files) and must come back time-sorted.
func TestReadCSVSortsUnsortedInput(t *testing.T) {
	in := "id,system,time,recovery_hours,category,node,gpus,software_cause\n" +
		"3,Tsubame-2,2012-03-01T00:00:00Z,1.0000,GPU,n0003,0,\n" +
		"1,Tsubame-2,2012-01-01T00:00:00Z,1.0000,GPU,n0001,0,\n" +
		"2,Tsubame-2,2012-02-01T00:00:00Z,1.0000,SSD,n0002,,\n"
	log, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadCSV unsorted: %v", err)
	}
	recs := log.Records()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Time.Before(recs[i-1].Time) {
			t.Fatalf("records not time-sorted: %v after %v", recs[i].Time, recs[i-1].Time)
		}
	}
	if recs[0].ID != 1 || recs[1].ID != 2 || recs[2].ID != 3 {
		t.Errorf("sorted order wrong: got IDs %d,%d,%d", recs[0].ID, recs[1].ID, recs[2].ID)
	}
}

// TestReadCSVShuffledTiesMatchNewLog: ReadCSV hands the records it parsed
// to failures.NewLogOwned, which sorts them in place. On a shuffled file
// whose times tie (every record truncated to its day) the log must equal
// NewLog over the same records in file order.
func TestReadCSVShuffledTiesMatchNewLog(t *testing.T) {
	src, err := synth.GenerateSystem(failures.Tsubame2, 7)
	if err != nil {
		t.Fatal(err)
	}
	records := src.Records()
	for i := range records {
		records[i].Time = records[i].Time.Truncate(24 * time.Hour)
	}
	tied, err := failures.NewLog(failures.Tsubame2, records)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, tied); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	lines = lines[:len(lines)-1] // the empty string after the final newline
	rows := lines[1:]
	ordered, err := ReadCSV(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	parsed := ordered.Records()
	rand.New(rand.NewSource(29)).Shuffle(len(rows), func(i, j int) {
		rows[i], rows[j] = rows[j], rows[i]
		parsed[i], parsed[j] = parsed[j], parsed[i]
	})

	got, err := ReadCSV(strings.NewReader(strings.Join(lines, "")))
	if err != nil {
		t.Fatal(err)
	}
	want, err := failures.NewLog(failures.Tsubame2, parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records(), want.Records()) {
		t.Error("ReadCSV of the shuffled file differs from NewLog over its records")
	}
	if !reflect.DeepEqual(got.Records(), ordered.Records()) {
		t.Error("ReadCSV of the shuffled file differs from ReadCSV of the ordered one")
	}
}
