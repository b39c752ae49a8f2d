package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/failures"
	"repro/internal/obs"
)

// refReadNDJSON is the whole-input NDJSON reader the chunked one
// replaced, kept verbatim as the differential oracle: slurp everything,
// try the fast line parser on every line, and on any decline decode the
// whole input again through encoding/json. The streaming reader must
// return the same log or the same error text on every input.
//
// Two calls differ from the original. Its fast path calls today's
// parseNDJSONRecordFast without an arena: interning and arenas changed
// how that parser allocates, not which lines it accepts or what they
// decode to, and decode_test.go pins that against encoding/json
// separately. And errorLine now gets the record's start offset: type
// errors used to be placed at the file line holding byte typ.Offset,
// but encoding/json measures that offset from the end of the previous
// value, so a type error past the first few lines was reported near the
// top of the file (TestReadNDJSONErrorNamesTrueLine pins the fix).
func refReadNDJSON(r io.Reader) (*failures.Log, error) {
	defer obs.StartSpan("trace/read-ndjson").End()
	buf, err := slurp(r)
	if err != nil {
		return nil, err
	}
	defer releaseBuf(buf)
	data := buf.Bytes()
	lines := countLines(data)
	obs.Add("trace/ndjson_rows", int64(lines))

	// Canonical one-record-per-line input decodes through the fast line
	// parser; any deviation — including any line that would fail to decode
	// — falls through to the json.Decoder loop below, which tolerates
	// values spanning lines and reports errors with real line numbers.
	if records, ok := refReadNDJSONFast(data, lines); ok {
		if len(records) == 0 {
			return nil, fmt.Errorf("trace: NDJSON contains no records")
		}
		log, err := failures.NewLog(records[0].System, records)
		if err != nil {
			return nil, fmt.Errorf("trace: validating NDJSON log: %w", err)
		}
		return log, nil
	}

	dec := json.NewDecoder(bytes.NewReader(data))
	records := make([]failures.Failure, 0, lines)
	var system failures.System
	for {
		recStart := dec.InputOffset()
		var rec jsonRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: decoding NDJSON line %d: %w", errorLine(data, dec, err, recStart), err)
		}
		f, err := recordFromWire(rec)
		if err != nil {
			return nil, fmt.Errorf("trace: NDJSON line %d: %w", recordLine(data, recStart), err)
		}
		if system == 0 {
			system = f.System
		}
		records = append(records, f)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("trace: NDJSON contains no records")
	}
	log, err := failures.NewLog(system, records)
	if err != nil {
		return nil, fmt.Errorf("trace: validating NDJSON log: %w", err)
	}
	return log, nil
}

// refReadNDJSONFast is the oracle's whole-buffer fast loop, verbatim but
// for its name and the nil arena.
func refReadNDJSONFast(data []byte, capHint int) ([]failures.Failure, bool) {
	records := make([]failures.Failure, 0, capHint)
	for start := 0; start < len(data); {
		end := start
		for end < len(data) && data[end] != '\n' {
			end++
		}
		line := data[start:end]
		start = end + 1
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rec, ok := parseNDJSONRecordFast(line, nil)
		if !ok {
			return nil, false
		}
		f, err := recordFromWire(rec)
		if err != nil {
			return nil, false
		}
		records = append(records, f)
	}
	return records, true
}
