package trace

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/failures"
)

// validLine renders one well-formed Tsubame-2 wire record for fixtures.
func validLine(id int) string {
	return fmt.Sprintf(`{"id":%d,"system":"Tsubame-2","time":"2012-02-0%dT00:00:00Z","recovery_hours":1,"category":"GPU","node":"n0001","gpus":[0]}`, id, id)
}

// TestReadNDJSONErrorNamesTrueLine pins the diagnostics contract: a parse
// error names the file line the offending input sits on, not the count of
// values decoded so far. Blank-line padding used to make the two drift —
// the malformed fixtures below would have been reported as "record 2".
func TestReadNDJSONErrorNamesTrueLine(t *testing.T) {
	cases := []struct {
		name     string
		in       string
		wantLine string
	}{
		{
			// Lines: 1 blank, 2 valid, 3 blank, 4 blank, 5 malformed JSON.
			name:     "syntax error after blank padding",
			in:       "\n" + validLine(1) + "\n\n\n" + `{"id":2,"system":}` + "\n",
			wantLine: "line 5",
		},
		{
			// Lines: 1 valid, 2-3 blank, 4 unknown category.
			name:     "validation error after blank padding",
			in:       validLine(1) + "\n\n\n" + `{"id":2,"system":"Tsubame-2","time":"2012-02-02T00:00:00Z","recovery_hours":1,"category":"Warp"}` + "\n",
			wantLine: "line 4",
		},
		{
			// Lines: 1-2 blank, 3 type error (string recovery_hours).
			name:     "type error after leading blanks",
			in:       "\n\n" + `{"id":1,"system":"Tsubame-2","time":"2012-02-01T00:00:00Z","recovery_hours":"ten","category":"GPU"}` + "\n",
			wantLine: "line 3",
		},
		{
			// Lines: 1-3 valid, 4 type error. encoding/json measures a
			// type error's offset from the end of the previous value;
			// read as a file offset, it used to name line 1.
			name:     "type error after records",
			in:       validLine(1) + "\n" + validLine(2) + "\n" + validLine(3) + "\n" + `{"id":4,"system":"Tsubame-2","time":"2012-02-04T00:00:00Z","recovery_hours":"ten","category":"GPU"}` + "\n",
			wantLine: "line 4:",
		},
		{
			name:     "malformed first line",
			in:       "{nope}\n" + validLine(2) + "\n",
			wantLine: "line 1",
		},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := ReadNDJSON(strings.NewReader(tt.in))
			if err == nil {
				t.Fatal("ReadNDJSON accepted malformed input")
			}
			if !strings.Contains(err.Error(), tt.wantLine) {
				t.Fatalf("error does not name %s:\n%v", tt.wantLine, err)
			}
		})
	}
}

// TestReadNDJSONSkipsBlankLines pins the doc-comment promise that blank
// (and whitespace-only) lines are skipped, wherever they appear.
func TestReadNDJSONSkipsBlankLines(t *testing.T) {
	in := "\n\n" + validLine(1) + "\n \t \n" + validLine(2) + "\n\n"
	log, err := ReadNDJSON(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadNDJSON rejected blank-padded input: %v", err)
	}
	if log.Len() != 2 {
		t.Fatalf("got %d records, want 2", log.Len())
	}
}

// TestParseNDJSONRecord covers the exported per-line kernel the streaming
// ingest path builds on.
func TestParseNDJSONRecord(t *testing.T) {
	rec, err := ParseNDJSONRecord([]byte(validLine(1)))
	if err != nil {
		t.Fatalf("ParseNDJSONRecord: %v", err)
	}
	if rec.ID != 1 || rec.Category != failures.CatGPU || rec.Node != "n0001" {
		t.Fatalf("unexpected record: %+v", rec)
	}
	if _, err := ParseNDJSONRecord([]byte(`{"id":`)); err == nil {
		t.Fatal("ParseNDJSONRecord accepted truncated JSON")
	}
	if _, err := ParseNDJSONRecord([]byte(`{"id":1,"system":"Cray","time":"2012-02-01T00:00:00Z","recovery_hours":1,"category":"GPU"}`)); err == nil {
		t.Fatal("ParseNDJSONRecord accepted an unknown system")
	}
}
