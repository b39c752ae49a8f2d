package trace

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/synth"
)

// adversarialStrings exercises every branch of the JSON and CSV string
// escapers: quotes, backslashes, control characters, HTML-escaped runes,
// invalid UTF-8, the JavaScript line separators, CSV quoting triggers,
// and the Postgres end-of-data marker.
var adversarialStrings = []string{
	"",
	"plain",
	`with "quotes"`,
	`back\slash`,
	"new\nline", "carriage\rreturn", "tab\there",
	"\x00\x01\x1f control",
	"<script>&amp;</script>",
	"\xff\xfe invalid utf8",
	"\u2028line\u2029sep",
	"unicode: héllo wörld 日本語 🚀",
	`\.`,
	"comma,inside",
	" leading space",
	"\u00a0nbsp lead",
	"trailing space ",
	"semi;colons",
	strings.Repeat("x", 300),
	"\"", ",", "\n", "\\",
}

// encodeViaEncodingJSON is the json.Encoder path WriteNDJSON replaced,
// kept in the tests as the reference implementation.
func encodeViaEncodingJSON(t *testing.T, rec jsonRecord) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(rec)
	return buf.Bytes(), err
}

// TestAppendNDJSONRecordMatchesEncodingJSON is the byte-compatibility
// contract of the append-based NDJSON kernel: on every adversarial
// record it must produce exactly the bytes json.Encoder produces for
// the jsonRecord wire struct.
func TestAppendNDJSONRecordMatchesEncodingJSON(t *testing.T) {
	base := time.Date(2013, time.July, 4, 9, 30, 15, 0, time.UTC)
	recs := []jsonRecord{
		{ID: 1, System: "Tsubame-2", Time: base, RecoveryHours: 1.5, Category: "GPU", Node: "n0001", GPUs: []int{0, 2}},
		{ID: -7, System: "Tsubame-3", Time: base.Add(123456789 * time.Nanosecond), RecoveryHours: 0, Category: "Network"},
		{ID: 0, System: "s", Time: base, RecoveryHours: 2.7777777777777777e-13, Category: "c"}, // 1ns: 'e' format
		{ID: 2, System: "s", Time: base, RecoveryHours: 1e-7, Category: "c"},                   // exercises the e-07 -> e-7 cleanup
		{ID: 3, System: "s", Time: base, RecoveryHours: 9.9e20, Category: "c"},
		{ID: 4, System: "s", Time: base, RecoveryHours: 1e21, Category: "c"},
		{ID: 5, System: "s", Time: base, RecoveryHours: 123.45678901234567, Category: "c"},
		{ID: 6, System: "s", Time: time.Date(0, 1, 1, 0, 0, 0, 1, time.UTC), RecoveryHours: 1, Category: "c"},
		{ID: 7, System: "s", Time: base, RecoveryHours: 1, Category: "c", GPUs: []int{3}},
		{ID: 8, System: "s", Time: base, RecoveryHours: 1, Category: "c", GPUs: []int{}}, // len 0: omitted by both
	}
	for _, s := range adversarialStrings {
		recs = append(recs, jsonRecord{
			ID: 9, System: s, Time: base, RecoveryHours: 0.5,
			Category: s, Node: s, SoftwareCause: s,
		})
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		raw := make([]byte, rng.Intn(24))
		for j := range raw {
			raw[j] = byte(rng.Intn(256))
		}
		recs = append(recs, jsonRecord{
			ID: i, System: "sys", Time: base.Add(time.Duration(rng.Int63n(int64(time.Hour)))),
			RecoveryHours: rng.ExpFloat64() * 40, Category: "cat", Node: string(raw),
			SoftwareCause: string(raw),
		})
	}
	for i, rec := range recs {
		want, err := encodeViaEncodingJSON(t, rec)
		if err != nil {
			t.Fatalf("record %d: reference encoder failed: %v", i, err)
		}
		got, err := appendNDJSONRecord(nil, rec)
		if err != nil {
			t.Fatalf("record %d: append encoder failed: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("record %d diverged:\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestAppendNDJSONRecordErrorParity: inputs encoding/json rejects
// (non-finite floats, years outside RFC 3339) must fail in the append
// kernel too rather than emitting invalid JSON.
func TestAppendNDJSONRecordErrorParity(t *testing.T) {
	base := time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	bad := []jsonRecord{
		{ID: 1, System: "s", Time: base, RecoveryHours: math.NaN(), Category: "c"},
		{ID: 2, System: "s", Time: base, RecoveryHours: math.Inf(1), Category: "c"},
		{ID: 3, System: "s", Time: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), RecoveryHours: 1, Category: "c"},
		{ID: 4, System: "s", Time: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), RecoveryHours: 1, Category: "c"},
	}
	for i, rec := range bad {
		if _, refErr := encodeViaEncodingJSON(t, rec); refErr == nil {
			t.Fatalf("record %d: reference encoder unexpectedly accepted %+v", i, rec)
		}
		if _, err := appendNDJSONRecord(nil, rec); err == nil {
			t.Errorf("record %d: append encoder accepted a value encoding/json rejects", i)
		}
	}
}

// TestAppendCSVFieldMatchesEncodingCSV pins the append-based CSV quoting
// to encoding/csv's: every adversarial value, written as each column of
// a three-field row, must render to the same bytes.
func TestAppendCSVFieldMatchesEncodingCSV(t *testing.T) {
	for i, s := range adversarialStrings {
		row := []string{"left", s, "right"}
		var buf bytes.Buffer
		cw := csv.NewWriter(&buf)
		if err := cw.Write(row); err != nil {
			t.Fatalf("field %d: reference writer failed: %v", i, err)
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			t.Fatalf("field %d: reference writer failed: %v", i, err)
		}
		var got []byte
		for j, f := range row {
			if j > 0 {
				got = append(got, ',')
			}
			got = appendCSVField(got, f)
		}
		got = append(got, '\n')
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("field %d (%q) diverged:\n got %q\nwant %q", i, s, got, buf.Bytes())
		}
	}
}

// TestWriteNDJSONGolden pins the canonical NDJSON bytes of the sample
// log, so encoder changes that alter the wire format (not just its
// cost) fail loudly.
func TestWriteNDJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, sampleLog(t)); err != nil {
		t.Fatal(err)
	}
	want := `{"id":1,"system":"Tsubame-2","time":"2012-03-01T12:30:00Z","recovery_hours":1.5,"category":"GPU","node":"n0007","gpus":[0,2]}
{"id":2,"system":"Tsubame-2","time":"2012-03-02T14:30:00Z","recovery_hours":55,"category":"SSD","node":"n0100"}
{"id":3,"system":"Tsubame-2","time":"2012-03-03T14:30:00Z","recovery_hours":3,"category":"OtherSW","node":"n0042","software_cause":"KernelPanic"}
{"id":4,"system":"Tsubame-2","time":"2012-03-04T10:30:00Z","recovery_hours":0,"category":"Network"}
`
	if buf.String() != want {
		t.Errorf("canonical NDJSON diverged:\n got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestWriteCSVGolden pins the canonical CSV bytes of the sample log.
func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleLog(t)); err != nil {
		t.Fatal(err)
	}
	want := `id,system,time,recovery_hours,category,node,gpus,software_cause
1,Tsubame-2,2012-03-01T12:30:00Z,1.5000,GPU,n0007,0;2,
2,Tsubame-2,2012-03-02T14:30:00Z,55.0000,SSD,n0100,,
3,Tsubame-2,2012-03-03T14:30:00Z,3.0000,OtherSW,n0042,,KernelPanic
4,Tsubame-2,2012-03-04T10:30:00Z,0.0000,Network,,,
`
	if buf.String() != want {
		t.Errorf("canonical CSV diverged:\n got:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestNDJSONWriteReadWriteByteIdentical is the generated-pipeline
// round-trip gate: serializing a synthetic log, parsing it back, and
// serializing again must reproduce the bytes exactly — durations
// survive Hours() and its inverse without drift.
func TestNDJSONWriteReadWriteByteIdentical(t *testing.T) {
	for _, p := range []*synth.Profile{synth.Tsubame2Profile(), synth.Tsubame3Profile()} {
		log, err := synth.Generate(p, 7)
		if err != nil {
			t.Fatal(err)
		}
		var first bytes.Buffer
		if err := WriteNDJSON(&first, log); err != nil {
			t.Fatal(err)
		}
		back, err := ReadNDJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if err := WriteNDJSON(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Errorf("%s: NDJSON write -> read -> write is not byte-identical", p.Name)
		}
	}
}

// TestDurationFromHoursInvertsHours: durationFromHours must return a
// duration whose Hours() is bitwise equal to its input for every value
// Hours() can produce, and recover durations below 2^52 ns exactly.
func TestDurationFromHoursInvertsHours(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 20000; i++ {
		var d time.Duration
		switch i % 4 {
		case 0: // the generator's regime: up to ~400 h
			d = time.Duration(rng.Int63n(int64(400 * time.Hour)))
		case 1: // below the exact-product bound
			d = time.Duration(rng.Int63n(1 << 52))
		case 2: // beyond it: binary-search territory
			d = time.Duration(1<<52 + rng.Int63n(math.MaxInt64-1<<52))
		default:
			d = time.Duration(rng.Int63n(1000)) // tiny
		}
		h := d.Hours()
		got, err := durationFromHours(h)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if got.Hours() != h {
			t.Fatalf("d=%d: recovered %d re-serializes to %v, want %v", d, got, got.Hours(), h)
		}
		if d < 1<<52 && got != d {
			t.Fatalf("d=%d below 2^52 recovered as %d", d, got)
		}
	}
	if _, err := durationFromHours(-1); err == nil {
		t.Error("negative hours should fail")
	}
	if _, err := durationFromHours(1e300); err == nil {
		t.Error("overflowing hours should fail")
	}
	if _, err := durationFromHours(math.NaN()); err == nil {
		t.Error("NaN hours should fail")
	}
}

// TestWriteAllocsNotPerRecord is the allocation regression gate of the
// append-based encoders: serializing a ~300-record log must cost a
// near-constant number of allocations, not O(records) — the json.Encoder
// path allocated twice per record.
func TestWriteAllocsNotPerRecord(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame2Profile(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for name, write := range map[string]func(*failures.Log) error{
		"ndjson": func(l *failures.Log) error { return WriteNDJSON(discardWriter{}, l) },
		"csv":    func(l *failures.Log) error { return WriteCSV(discardWriter{}, l) },
	} {
		write(log) // warm the pools
		allocs := testing.AllocsPerRun(20, func() {
			if err := write(log); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 20 {
			t.Errorf("%s: %v allocs per write of %d records, want near-constant", name, allocs, log.Len())
		}
	}
}

// TestReadNDJSONAllocsNotPerRecord is the reader's twin of the gate
// above: decoding 10,140 canonical records must cost allocations per
// chunk (buffers, record slices, arenas, pool batches), not per record.
// The whole-input reader allocated four times a record.
func TestReadNDJSONAllocsNotPerRecord(t *testing.T) {
	log := scaledTsubame3Log(t, 30)
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, log); err != nil {
		t.Fatal(err)
	}
	// A fixed width keeps the chunk count independent of the host.
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := readNDJSON(bytes.NewReader(buf.Bytes()), 4, maxChunk); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(log.Len()) / 50; allocs > limit {
		t.Errorf("%v allocs per read of %d records, want at most %v", allocs, log.Len(), limit)
	}
}

// scaledTsubame3Log generates the Tsubame-3 profile with every count
// and the fleet multiplied by factor (338 records a unit), at seed 3.
func scaledTsubame3Log(t *testing.T, factor int) *failures.Log {
	t.Helper()
	p := synth.Tsubame3Profile()
	for i := range p.Categories {
		p.Categories[i].Count *= factor
	}
	for i := range p.SoftwareCauses {
		p.SoftwareCauses[i].Count *= factor
	}
	p.NodeCount *= factor
	p.SoftwareOnMultiNodes *= factor
	log, err := synth.Generate(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// discardWriter is io.Discard without the fast-path interfaces, so the
// bufio layer actually buffers.
type discardWriter struct{}

func (discardWriter) Write(p []byte) (int, error) { return len(p), nil }

func ExampleWriteNDJSON() {
	// One record, canonical wire form.
	rec := failures.Failure{
		ID: 1, System: failures.Tsubame2,
		Time:     time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC),
		Recovery: 90 * time.Minute,
		Category: failures.CatGPU, Node: "n0001", GPUs: []int{0},
	}
	log, _ := failures.NewLog(failures.Tsubame2, []failures.Failure{rec})
	var buf bytes.Buffer
	_ = WriteNDJSON(&buf, log)
	fmt.Print(buf.String())
	// Output: {"id":1,"system":"Tsubame-2","time":"2012-01-01T00:00:00Z","recovery_hours":1.5,"category":"GPU","node":"n0001","gpus":[0]}
}
