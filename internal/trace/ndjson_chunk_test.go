package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/testutil"
)

// This file checks the streaming NDJSON reader against refReadNDJSON,
// the whole-input reader it replaced: same log, same error text and
// same trace/ndjson_rows count on every input, at every chunk ceiling
// and parse width.

// fillers are the non-record lines genTape puts between records: blank,
// whitespace-only and CRLF lines, and lines bytes.TrimSpace blanks but
// JSON does not (vertical tab, no-break space).
var fillers = []string{"\n", "   \n", "\t\r\n", "\r\n", " \v \n", "\u00a0\n"}

// genTape draws an NDJSON input. Records are mostly in ascending
// (time, ID) order, with ties, out-of-order and offset-zone times, and
// invalid records mixed in; each is rendered canonically or in one of
// the non-canonical forms that decline the fast parser. Everything
// shrinks toward a short canonical tape.
func genTape(g *testutil.Gen) []byte {
	sys := failures.Tsubame2
	if g.Bool() {
		sys = failures.Tsubame3
	}
	cats := failures.Categories(sys)
	causes := failures.SoftwareCauses()
	at := time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC)
	var out []byte
	n := g.Intn(16)
	for i := 0; i < n; i++ {
		for g.Intn(4) == 1 {
			out = append(out, fillers[g.Intn(len(fillers))]...)
		}
		switch g.Intn(8) {
		case 1: // same time as the previous record
		case 2:
			at = at.Add(-time.Hour) // out of order
		default:
			at = at.Add(time.Duration(1+g.Intn(600)) * time.Minute)
		}
		rec := jsonRecord{
			ID:            i + 1,
			System:        sys.String(),
			Time:          at,
			RecoveryHours: float64(g.Intn(100)) / 4,
			Category:      cats[g.Intn(len(cats))].String(),
		}
		if g.Intn(6) == 1 {
			rec.ID = i // with an equal time, a (time, ID) tie
		}
		if g.Intn(10) == 1 {
			rec.Time = at.In(time.FixedZone("", 9*3600))
		}
		if g.Bool() {
			rec.Node = fmt.Sprintf("r%dn%d", g.Intn(40), g.Intn(30))
		}
		if g.Bool() {
			rec.GPUs = []int{}
			for slot, mask := 0, g.Intn(1<<failures.GPUsPerNode(sys)); mask != 0; slot, mask = slot+1, mask>>1 {
				if mask&1 != 0 {
					rec.GPUs = append(rec.GPUs, slot)
				}
			}
		}
		if cat, _ := failures.ParseCategory(sys, rec.Category); cat.Software() && g.Bool() {
			rec.SoftwareCause = causes[g.Intn(len(causes))].String()
		}
		switch g.Intn(16) {
		case 1:
			rec.Category = "Warp"
		case 2:
			rec.GPUs = []int{7}
		}
		out = append(out, renderLine(rec, g.Intn(10))...)
		switch {
		case i == n-1 && g.Bool(): // no final newline
		case g.Intn(4) == 1:
			out = append(out, '\r', '\n')
		default:
			out = append(out, '\n')
		}
	}
	for g.Intn(4) == 1 {
		out = append(out, fillers[g.Intn(len(fillers))]...)
	}
	return out
}

// renderLine renders rec in one of several styles: canonical (most
// draws), keys in another order with an explicit (possibly empty) gpus
// array, a \u escape, a value spanning lines, or a truncated value.
func renderLine(rec jsonRecord, style int) []byte {
	fields := map[string]any{
		"id": rec.ID, "system": rec.System, "time": rec.Time,
		"recovery_hours": rec.RecoveryHours, "category": rec.Category,
	}
	if rec.Node != "" {
		fields["node"] = rec.Node
	}
	if rec.GPUs != nil {
		fields["gpus"] = rec.GPUs
	}
	if rec.SoftwareCause != "" {
		fields["software_cause"] = rec.SoftwareCause
	}
	switch style {
	case 6: // alphabetical keys; encoding/json sorts map keys
		b, _ := json.Marshal(fields)
		return b
	case 7:
		b, _ := appendNDJSONRecord(nil, rec)
		return bytes.Replace(b, []byte(`"system":"T`), []byte(`"system":"\u0054`), 1)
	case 8:
		b, _ := json.MarshalIndent(fields, "", " ")
		return b
	case 9:
		b, _ := appendNDJSONRecord(nil, rec)
		return b[:len(b)/2]
	default:
		b, _ := appendNDJSONRecord(nil, rec)
		return b
	}
}

// readResult is one reader's answer on one input.
type readResult struct {
	log  *failures.Log
	err  string
	rows int64
}

// readCounted runs read with collection on and returns its result and
// the trace/ndjson_rows count it added.
func readCounted(read func() (*failures.Log, error)) readResult {
	was := obs.Enable(true)
	defer obs.Enable(was)
	obs.Reset()
	log, err := read()
	res := readResult{log: log, rows: obs.Take().Counters["trace/ndjson_rows"]}
	if err != nil {
		res.err = err.Error()
	}
	return res
}

// diffReaders compares the streaming reader at one ceiling and width
// (on r, which must yield tape) with the oracle on tape.
func diffReaders(tape []byte, r io.Reader, width, ceiling int) error {
	want := readCounted(func() (*failures.Log, error) { return refReadNDJSON(bytes.NewReader(tape)) })
	got := readCounted(func() (*failures.Log, error) { return readNDJSON(r, width, ceiling) })
	where := fmt.Sprintf("ceiling %d, width %d, input %q", ceiling, width, tape)
	if got.err != want.err {
		return fmt.Errorf("%s: error %q, want %q", where, got.err, want.err)
	}
	if got.rows != want.rows {
		return fmt.Errorf("%s: trace/ndjson_rows %d, want %d", where, got.rows, want.rows)
	}
	if !reflect.DeepEqual(got.log, want.log) {
		return fmt.Errorf("%s: logs differ:\n got %+v\nwant %+v", where, got.log, want.log)
	}
	return nil
}

// TestPropertyReadNDJSONMatchesOracle runs generated tapes through the
// streaming reader at chunk ceilings from one byte up and widths 1–3.
func TestPropertyReadNDJSONMatchesOracle(t *testing.T) {
	testutil.Check(t, 300, func(g *testutil.Gen) error {
		tape := genTape(g)
		small := 1 + g.Intn(48)
		for width := 1; width <= 3; width++ {
			for _, ceiling := range []int{small, maxChunk} {
				if err := diffReaders(tape, bytes.NewReader(tape), width, ceiling); err != nil {
					return err
				}
			}
		}
		// Short reads must not move the chunk boundaries' effect.
		return diffReaders(tape, iotest.HalfReader(bytes.NewReader(tape)), 2, small)
	})
}

// TestReadNDJSONMatchesOracleCases pins inputs whose paths the generator
// reaches only by chance: a non-JSON blank line in an early chunk ahead
// of a declined line in a later one, a read error after valid chunks,
// and a line longer than the ceiling.
func TestReadNDJSONMatchesOracleCases(t *testing.T) {
	line := validLine(1)
	long := `{"node":"` + strings.Repeat("n", 300) + `",` + line[1:]
	for name, tape := range map[string]string{
		"odd blank then decline":   "\v\n" + line + "\n" + `{"id":1,"system":"Tsubame-2"}` + "\n",
		"odd blank, all canonical": line + "\n\u00a0\n" + validLine(2) + "\n",
		"decline then odd blank":   `{"id":1,"system":"Tsubame-2"}` + "\n\v\n",
		"long line":                line + "\n" + long + "\n" + validLine(2),
		"no records":               "\n \r\n\t\n",
		"empty":                    "",
	} {
		for _, ceiling := range []int{1, 7, 64, maxChunk} {
			for width := 1; width <= 3; width++ {
				if err := diffReaders([]byte(tape), strings.NewReader(tape), width, ceiling); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
	failing := io.MultiReader(strings.NewReader(line+"\n"+validLine(2)+"\n"), iotest.ErrReader(io.ErrClosedPipe))
	if _, err := readNDJSON(failing, 2, 8); err == nil || !strings.Contains(err.Error(), "trace: reading input: io: read/write on closed pipe") {
		t.Errorf("read error: got %v", err)
	}
}

// TestReadersBlankLineMemory is the "k × input bytes + c" budget of the
// text readers: 2 MiB of blank lines around one record must not reserve
// a 120-byte record per newline (240 MB), and must decode like the
// record alone. What they do allocate is chunk or slurp buffers (the
// slurp buffer's doubling ladder sums to up to four times the input,
// more when -race makes sync.Pool drop buffers) and records pre-sized at
// one per 32 input bytes (3.75 times the input).
func TestReadersBlankLineMemory(t *testing.T) {
	blanks := strings.Repeat("\n", 1<<20)
	record := validLine(1) + "\n"
	var csvRecord bytes.Buffer
	want, err := ReadNDJSON(strings.NewReader(record))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCSV(&csvRecord, want); err != nil {
		t.Fatal(err)
	}
	header, row, _ := strings.Cut(csvRecord.String(), "\n")
	for _, c := range []struct {
		name  string
		in    string
		read  func(io.Reader) (*failures.Log, error)
		exact bool // NDJSON keeps the recovery exactly, CSV on its grid
	}{
		{"ndjson", blanks + record + blanks, ReadNDJSON, true},
		{"csv", header + "\n" + blanks + row + blanks, ReadCSV, false},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := c.read(strings.NewReader(c.in))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(16*len(c.in)+1<<20); alloc > budget {
			t.Errorf("%s: allocated %d bytes for %d input bytes, want at most %d", c.name, alloc, len(c.in), budget)
		}
		logsEqual(t, got, want)
		if c.exact && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded %+v, want %+v", c.name, got.Records(), want.Records())
		}
	}
}

// TestParseNDJSONRecordAllocs pins the serve ingest kernel's allocations
// per canonical line: the vocabulary strings are interned, so only the
// node name and the GPU slice allocate.
func TestParseNDJSONRecordAllocs(t *testing.T) {
	for _, c := range []struct {
		line string
		max  float64
	}{
		{`{"id":1,"system":"Tsubame-3","time":"2017-09-01T00:00:00Z","recovery_hours":1.5,"category":"GPUDriver","node":"r1n2","software_cause":"GPUDriverProblem"}`, 1},
		{`{"id":1,"system":"Tsubame-3","time":"2017-09-01T00:00:00Z","recovery_hours":1.5,"category":"GPU","node":"r1n2","gpus":[0,2]}`, 2},
	} {
		line := []byte(c.line)
		if _, err := ParseNDJSONRecord(line); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := ParseNDJSONRecord(line); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("%s: %v allocs per line, want at most %v", c.line, allocs, c.max)
		}
	}
}
