package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/synth"
)

// seedCSV builds a small valid CSV corpus entry.
func seedCSV(t testing.TB) string {
	t.Helper()
	log, err := synth.Generate(synth.Tsubame3Profile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, log); err != nil {
		t.Fatal(err)
	}
	// Keep the corpus small: header plus a handful of rows.
	lines := strings.SplitN(buf.String(), "\n", 6)
	return strings.Join(lines[:5], "\n") + "\n"
}

// FuzzReadCSV asserts the CSV parser never panics and that anything it
// accepts survives a write/read round trip. Run with
// `go test -fuzz=FuzzReadCSV ./internal/trace/` to explore; the seed
// corpus runs under plain `go test`.
func FuzzReadCSV(f *testing.F) {
	f.Add(seedCSV(f))
	f.Add("id,system,time,recovery_hours,category,node,gpus,software_cause\n")
	f.Add("garbage")
	f.Add("")
	f.Add("id,system,time,recovery_hours,category,node,gpus,software_cause\n1,Tsubame-2,2012-01-01T00:00:00Z,1.0,GPU,n0001,0;1,\n")
	f.Fuzz(func(t *testing.T, data string) {
		log, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return // rejects are fine; panics are not
		}
		// Whatever the parser accepts must land on the 360 ms recovery
		// grid: recovery_hours is defined at that resolution, and an
		// off-grid duration would break the canonical-bytes guarantee
		// checked below.
		for _, rec := range log.Records() {
			if rec.Recovery%recoveryUnit != 0 {
				t.Fatalf("record %d recovery %v is off the %v grid", rec.ID, rec.Recovery, recoveryUnit)
			}
		}
		var first bytes.Buffer
		if err := WriteCSV(&first, log); err != nil {
			t.Fatalf("accepted log failed to serialize: %v", err)
		}
		back, err := ReadCSV(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("round trip of accepted log failed: %v", err)
		}
		if back.Len() != log.Len() {
			t.Fatalf("round trip changed record count: %d -> %d", log.Len(), back.Len())
		}
		// WriteCSV emits canonical bytes, so a second round trip must be
		// the identity: same bytes out, no drift in any column.
		var second bytes.Buffer
		if err := WriteCSV(&second, back); err != nil {
			t.Fatalf("second serialization failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("double round trip is not byte-identical:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}

// FuzzReadNDJSON mirrors FuzzReadCSV for the NDJSON parser.
func FuzzReadNDJSON(f *testing.F) {
	log, err := synth.Generate(synth.Tsubame2Profile(), 2)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, log); err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitN(buf.String(), "\n", 4)
	f.Add(strings.Join(lines[:3], "\n") + "\n")
	f.Add(`{"id":1,"system":"Tsubame-2","time":"2012-01-01T00:00:00Z","recovery_hours":1,"category":"GPU","node":"n0001","gpus":[0]}` + "\n")
	f.Add("{not json}")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		log, err := ReadNDJSON(strings.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := WriteNDJSON(&first, log); err != nil {
			t.Fatalf("accepted log failed to serialize: %v", err)
		}
		back, err := ReadNDJSON(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("round trip of accepted log failed: %v", err)
		}
		if back.Len() != log.Len() {
			t.Fatalf("round trip changed record count: %d -> %d", log.Len(), back.Len())
		}
		// WriteNDJSON emits canonical bytes and durationFromHours inverts
		// Hours() exactly, so a second round trip must be the identity.
		var second bytes.Buffer
		if err := WriteNDJSON(&second, back); err != nil {
			t.Fatalf("second serialization failed: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("double round trip is not byte-identical:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}

// FuzzReadNDJSONChunks fuzzes the streaming reader against the
// whole-input reader it replaced: for arbitrary bytes, chunk ceiling and
// parse width, the log, the error text and the trace/ndjson_rows count
// must match refReadNDJSON's.
func FuzzReadNDJSONChunks(f *testing.F) {
	log, err := synth.Generate(synth.Tsubame2Profile(), 2)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, log); err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitN(buf.String(), "\n", 5)
	canonical := strings.Join(lines[:4], "\n") + "\n"
	f.Add(canonical, uint16(40), uint8(1))
	f.Add(strings.Replace(canonical, "\n", "\n\v\n", 1)+"{", uint16(1), uint8(2))
	f.Add(strings.ReplaceAll(canonical, "\n", "\r\n\n"), uint16(100), uint8(3))
	f.Add(canonical+lines[3], uint16(7), uint8(2))
	f.Add("", uint16(0), uint8(0))
	f.Fuzz(func(t *testing.T, data string, ceiling uint16, width uint8) {
		if err := diffReaders([]byte(data), strings.NewReader(data), 1+int(width%3), 1+int(ceiling)); err != nil {
			t.Fatal(err)
		}
	})
}
