package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/failures"
	"repro/internal/synth"
)

// refParseNDJSONRecord is the pre-fast-path implementation of
// ParseNDJSONRecord, kept verbatim as the differential oracle: whatever
// encoding/json decides — value or error — is the contract the fast
// parser must either match or decline into.
func refParseNDJSONRecord(line []byte) (failures.Failure, error) {
	var rec jsonRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return failures.Failure{}, err
	}
	return recordFromWire(rec)
}

// diffLine asserts ParseNDJSONRecord and the oracle agree on line:
// identical Failure on success, identical error text on failure.
func diffLine(t *testing.T, line []byte) {
	t.Helper()
	got, gotErr := ParseNDJSONRecord(line)
	want, wantErr := refParseNDJSONRecord(line)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error divergence on %q:\nfast path: %v\nencoding/json: %v", line, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("error text divergence on %q:\nfast path: %v\nencoding/json: %v", line, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("value divergence on %q:\nfast path: %+v\nencoding/json: %+v", line, got, want)
	}
}

// TestFastParserAcceptsCanonicalLines pins the performance contract: every
// line our own encoder emits, for both systems' full taxonomies, takes the
// fast path (no silent fallback to encoding/json) and decodes identically.
func TestFastParserAcceptsCanonicalLines(t *testing.T) {
	for _, profile := range []*synth.Profile{synth.Tsubame2Profile(), synth.Tsubame3Profile()} {
		log, err := synth.Generate(profile, 42)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, log); err != nil {
			t.Fatal(err)
		}
		for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte{'\n'}) {
			if _, ok := parseNDJSONRecordFast(line, nil); !ok {
				t.Fatalf("canonical line declined the fast path: %q", line)
			}
			diffLine(t, line)
		}
	}
}

// adversarialLines is the corpus of near-canonical input: for each, the
// fast parser must either decode identically to encoding/json or decline
// so the fallback answers. Several exist precisely because a naive scanner
// would accept them with the wrong value.
var adversarialLines = []string{
	// Canonical shapes and omitted optionals.
	`{"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1.5,"category":"GPU","node":"n0001","gpus":[0,2]}`,
	`{"id":2,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":0,"category":"Sys Env"}`,
	`{"id":3,"system":"Tsubame-3","time":"2017-08-01T09:30:00+09:00","recovery_hours":2.25,"category":"Storage"}`,
	// Whitespace, key order, empty array, empty object, empty string.
	` { "id" : 4 , "category" : "GPU" , "system" : "Tsubame-2" , "time" : "2012-02-01T00:00:00Z" , "recovery_hours" : 1 } `,
	`{"gpus":[],"id":5,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	`{"gpus":[ 0 , 1 ],"id":5,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	`{}`,
	`{ }`,
	`{"id":6,"system":"","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":""}`,
	// Number grammar: exponents, fractions, leading zeros, signs, hex.
	`{"id":7,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1e2,"category":"GPU"}`,
	`{"id":8,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1.25E-3,"category":"GPU"}`,
	`{"id":9,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":-0.5,"category":"GPU"}`,
	`{"id":010,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	`{"id":+1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	`{"id":0x1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	`{"id":-0,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":01.5,"category":"GPU"}`,
	`{"id":1.0,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	`{"id":1e1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	`{"id":9223372036854775807,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	`{"id":99999999999999999999,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	// int32 boundary: on 32-bit ints these overflow the field and the
	// fast path must decline to encoding/json, not wrap.
	`{"id":2147483648,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	`{"id":-2147483649,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	`{"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU","gpus":[2147483648]}`,
	`{"recovery_hours":.5,"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","category":"GPU"}`,
	`{"recovery_hours":5.,"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","category":"GPU"}`,
	`{"recovery_hours":1e,"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","category":"GPU"}`,
	// String escapes and non-ASCII: decoded value differs from raw bytes.
	`{"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU","node":"n\u0030001"}`,
	`{"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU","node":"n\\0001"}`,
	`{"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU","node":"ノード"}`,
	`{"id":1,"system":"tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	// Duplicate keys (last wins in encoding/json), unknown keys, null.
	`{"id":1,"id":2,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	`{"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU","extra":true}`,
	`{"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU","gpus":null}`,
	`{"id":null,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	`{"id":1,"system":"Tsubame-2","time":null,"recovery_hours":1,"category":"GPU"}`,
	// Wrong types, nested values, malformed time.
	`{"id":"1","system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	`{"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":"1","category":"GPU"}`,
	`{"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU","gpus":[[0]]}`,
	`{"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU","gpus":[0.5]}`,
	`{"id":1,"system":"Tsubame-2","time":"not a time","recovery_hours":1,"category":"GPU"}`,
	`{"id":1,"system":"Tsubame-2","time":"2012-02-01 00:00:00","recovery_hours":1,"category":"GPU"}`,
	`{"id":1,"system":{"name":"Tsubame-2"},"time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`,
	// Syntax errors, truncation, trailing garbage, wrapper shapes.
	`{"id":1,"system":"Tsubame-2",`,
	`{"id":1 "system":"Tsubame-2"}`,
	`{"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"} trailing`,
	`{"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}{"id":2}`,
	`[{"id":1}]`,
	`null`,
	`42`,
	``,
	`   `,
	"{\"id\":1,\"system\":\"Tsubame-2\",\"time\":\"2012-02-01T00:00:00Z\",\"recovery_hours\":1,\"category\":\"GPU\",\"node\":\"a\tb\"}",
}

// TestFastParserDifferentialCorpus runs the adversarial corpus through
// both paths. ParseNDJSONRecord internally tries fast-then-fallback, so
// agreement here proves every decline lands in encoding/json and every
// acceptance decodes identically.
func TestFastParserDifferentialCorpus(t *testing.T) {
	for _, line := range adversarialLines {
		diffLine(t, []byte(line))
	}
}

// TestFastParserDeclines pins that the fast parser declines — rather than
// misparses — the corpus entries whose decoded value or error can only
// come from encoding/json.
func TestFastParserDeclines(t *testing.T) {
	declined := []string{
		`{"id":010,"category":"GPU"}`,            // leading zero
		`{"id":1,"id":2}`,                        // duplicate key
		`{"extra":1}`,                            // unknown key
		`{"node":"n\u0030001"}`,                  // escape sequence
		`{"node":"ノード"}`,                         // non-ASCII
		`{"id":1} trailing`,                      // trailing garbage
		`{"recovery_hours":.5}`,                  // bare fraction
		`{"gpus":null}`,                          // null value
		`{"id":99999999999999999999}`,            // overflow
		`{"id":1,"system":{"name":"Tsubame-2"}}`, // nested value
	}
	for _, line := range declined {
		if _, ok := parseNDJSONRecordFast([]byte(line), nil); ok {
			t.Errorf("fast parser accepted %q, want decline", line)
		}
	}
}

// TestReadNDJSONFastMatchesDecoder pins the chunked fast path: a
// canonical multi-line stream (blank lines, CRLF, surrounding spaces)
// decodes to the same log as the json.Decoder loop at every chunk size
// and width, and a stream with one non-canonical line declines the fast
// parser in its chunk yet still parses identically.
func TestReadNDJSONFastMatchesDecoder(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame2Profile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, log); err != nil {
		t.Fatal(err)
	}
	canonical := buf.String()
	decorated := "\n" + strings.ReplaceAll(canonical, "\n", "\r\n") + "\n \n"
	// \u0047\u0050\u0055 is "GPU": valid to encoding/json, declines fast.
	fallback := strings.Replace(canonical, `"GPU"`, `"\u0047\u0050\u0055"`, 1)

	for name, in := range map[string]string{
		"canonical": canonical,
		"decorated": decorated,
		"fallback":  fallback,
	} {
		if res := parseChunk([]byte(in), &chunkArena{}); res.declined != (name == "fallback") {
			t.Fatalf("%s: fast parser declined = %v", name, res.declined)
		}
		for _, ceiling := range []int{1, 4 << 10, maxChunk} {
			for _, width := range []int{1, 3} {
				got, err := readNDJSON(strings.NewReader(in), width, ceiling)
				if err != nil {
					t.Fatalf("%s (ceiling %d, width %d): %v", name, ceiling, width, err)
				}
				logsEqual(t, got, log)
				if !reflect.DeepEqual(got.Records(), log.Records()) {
					t.Fatalf("%s (ceiling %d, width %d): records differ from original log", name, ceiling, width)
				}
			}
		}
	}
}

// FuzzParseNDJSONRecord fuzzes the fast/fallback agreement: for arbitrary
// bytes, ParseNDJSONRecord must produce exactly what encoding/json alone
// would — same Failure or same error text.
func FuzzParseNDJSONRecord(f *testing.F) {
	for _, line := range adversarialLines {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, gotErr := ParseNDJSONRecord(line)
		want, wantErr := refParseNDJSONRecord(line)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("error divergence on %q: %v vs %v", line, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("error text divergence on %q: %v vs %v", line, gotErr, wantErr)
			}
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("value divergence on %q:\n%+v\n%+v", line, got, want)
		}
	})
}
