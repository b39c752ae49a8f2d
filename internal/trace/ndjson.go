package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/parallel"
)

// jsonRecord is the NDJSON wire form of one failure record.
type jsonRecord struct {
	ID            int       `json:"id"`
	System        string    `json:"system"`
	Time          time.Time `json:"time"`
	RecoveryHours float64   `json:"recovery_hours"`
	Category      string    `json:"category"`
	Node          string    `json:"node,omitempty"`
	GPUs          []int     `json:"gpus,omitempty"`
	SoftwareCause string    `json:"software_cause,omitempty"`
}

// ndjsonRangeRecords is how many records one WriteNDJSON worker encodes
// per range: about 3 MiB of output. A fresh range buffer is sized at
// ndjsonRecordBytes a record, about a canonical line, so it grows at
// most once or twice.
const (
	ndjsonRangeRecords = 16 << 10
	ndjsonRecordBytes  = 192
)

// WriteNDJSON writes the log as newline-delimited JSON, one record per
// line. Records are rendered by the append-based kernel in encode.go —
// byte-identical to the json.Encoder path it replaced (the differential
// tests assert so) but with zero per-record allocations and no
// reflection. Up to GOMAXPROCS workers encode contiguous record ranges
// into pooled buffers of their own, written in input order; a log that
// fits one range is encoded on the calling goroutine.
func WriteNDJSON(w io.Writer, log *failures.Log) error {
	return writeNDJSON(w, log, parallel.DefaultParallelism(), ndjsonRangeRecords)
}

// writeNDJSON is WriteNDJSON with the encode width and the range size as
// parameters, so tests can cut tiny logs into many ranges.
func writeNDJSON(w io.Writer, log *failures.Log, width, per int) error {
	defer obs.StartSpan("trace/write-ndjson").End()
	bw := getWriter(w)
	defer putWriter(bw)
	err := writeOrdered(bw, log.Len(), width, per, func(_ int, r parallel.Range, b []byte) ([]byte, error) {
		b = slices.Grow(b, (r.Hi-r.Lo)*ndjsonRecordBytes)
		for i := r.Lo; i < r.Hi; i++ {
			rec := log.At(i)
			var err error
			b, err = appendNDJSONRecord(b, jsonRecord{
				ID:            rec.ID,
				System:        rec.System.String(),
				Time:          rec.Time.UTC(),
				RecoveryHours: rec.Recovery.Hours(),
				Category:      rec.Category.String(),
				Node:          rec.Node,
				GPUs:          rec.GPUs,
				SoftwareCause: rec.SoftwareCause.String(),
			})
			if err != nil {
				return b, fmt.Errorf("trace: encoding record %d: %w", rec.ID, err)
			}
		}
		return b, nil
	}, func(r parallel.Range) string { return fmt.Sprintf("trace: writing record %d", log.At(r.Lo).ID) })
	if err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flushing NDJSON: %w", err)
	}
	return nil
}

// ReadNDJSON parses a newline-delimited JSON failure log. Blank lines are
// skipped; the result is validated and time-sorted.
//
// The input streams through newline-aligned chunks (chunkReader), and up
// to GOMAXPROCS chunks parse at once, so memory is bounded by the
// decoded log plus a few chunk buffers rather than by the input file.
// Input that is already UTC and in strictly ascending (time, ID) order —
// everything WriteNDJSON produces — becomes the log without a copy or a
// sort.
//
// Parse errors name the actual file line of the offending input. The
// decoder used to report a "record N" counted over decoded values, which
// drifts from the real line number as soon as the input contains blank
// lines; error positions are now recovered from the decoder's byte
// offset, so the message points at the line an editor would open.
func ReadNDJSON(r io.Reader) (*failures.Log, error) {
	return readNDJSON(r, parallel.DefaultParallelism(), maxChunk)
}

// readNDJSON is ReadNDJSON with the parse width and the chunk ceiling as
// parameters, so tests can cut tiny inputs into many chunks.
//
// Canonical one-record-per-line chunks decode through the fast line
// parser. The first chunk holding a line the fast parser declines —
// including any line that would fail to decode — and everything after
// it falls through to decodeNDJSON, the encoding/json loop, which
// tolerates values spanning lines and reports errors with real line
// numbers. Records of the chunks before it are kept: those chunks hold
// only complete canonical records and blank lines, which the json loop
// would have decoded to the same records.
//
// The one exception is a line bytes.TrimSpace blanks that is not JSON
// whitespace (a lone \v or U+00A0, say). The fast path skips it, but the
// json loop fails on it, so once any line declines, the earliest such
// line is where the json loop would have stopped, and it is decoded in
// place of the rest.
func readNDJSON(r io.Reader, width, ceiling int) (*failures.Log, error) {
	defer obs.StartSpan("trace/read-ndjson").End()
	cr := newChunkReader(r, ceiling)
	width = max(width, 1)
	bufs := make([][]byte, width)
	arenas := make([]chunkArena, width)
	batch := make([][]byte, 0, width)
	results := make([]chunkResult, width)
	parse := func(_ context.Context, i int, chunk []byte) error {
		results[i] = parseChunk(chunk, &arenas[i])
		return nil
	}
	var (
		parts      [][]failures.Failure // records of the accepted chunks
		lines      int                  // lines of the accepted chunks
		lastRecord int                  // line of their last record
		odd        []byte               // the first non-JSON blank line, if any
		oddLine    int                  // its line number
	)
	for eof := false; !eof; {
		batch = batch[:0]
		for len(batch) < width {
			chunk, err := cr.next(bufs[len(batch)])
			if err != nil {
				return nil, err
			}
			if chunk == nil {
				eof = true
				break
			}
			bufs[len(batch)] = chunk
			batch = append(batch, chunk)
		}
		// Chunks of one batch are the same size, so its parses take
		// about the same time. A batch of one chunk is parsed inline,
		// with none of the pool's allocations.
		cr.grow()
		if len(batch) == 1 {
			_ = parse(context.Background(), 0, batch[0])
		} else {
			_ = parallel.ForEach(context.Background(), width, batch, parse)
		}
		for i, res := range results[:len(batch)] {
			if res.declined {
				data, err := cr.rest(batch[i:])
				if err != nil {
					return nil, err
				}
				obs.Add("trace/ndjson_rows", int64(lines+countLines(data)))
				from := lines
				if odd != nil {
					data, from = odd, oddLine-1
				}
				records, err := decodeNDJSON(data, from, lastRecord)
				if err != nil {
					return nil, err
				}
				return logFromParts(append(parts, records), width)
			}
			if odd == nil && res.odd != nil {
				odd, oddLine = res.odd, lines+res.oddLine
			}
			if res.lastRecord > 0 {
				lastRecord = lines + res.lastRecord
			}
			parts = append(parts, res.records)
			lines += res.lines
		}
	}
	obs.Add("trace/ndjson_rows", int64(lines))
	return logFromParts(parts, width)
}

// chunkResult is the fast parse of one chunk. Line numbers count from 1
// within the chunk.
type chunkResult struct {
	records    []failures.Failure
	lines      int
	lastRecord int    // line of the last record, 0 if none
	declined   bool   // some line needs the encoding/json loop
	odd        []byte // copy of the first blank line that is not JSON whitespace
	oddLine    int    // its line
}

// parseChunk decodes a newline-aligned chunk line by line through the
// fast parser, with the variable-length fields cut from arena.
func parseChunk(data []byte, arena *chunkArena) chunkResult {
	res := chunkResult{lines: countLines(data)}
	n := presize(res.lines, len(data))
	records := make([]failures.Failure, 0, n)
	arena.reset(len(data), n)
	for start, line := 0, 1; start < len(data); line++ {
		end := bytes.IndexByte(data[start:], '\n')
		if end < 0 {
			end = len(data)
		} else {
			end += start
		}
		text := data[start:end]
		start = end + 1
		if len(bytes.TrimSpace(text)) == 0 {
			if res.odd == nil && !jsonBlank(text) {
				res.odd, res.oddLine = bytes.Clone(text), line
			}
			continue
		}
		rec, ok := parseNDJSONRecordFast(text, arena)
		if !ok {
			return chunkResult{declined: true}
		}
		f, err := recordFromWire(rec)
		if err != nil {
			return chunkResult{declined: true}
		}
		records = append(records, f)
		res.lastRecord = line
	}
	arena.attach(records)
	res.records = records
	return res
}

// jsonBlank reports whether line is all JSON whitespace.
func jsonBlank(line []byte) bool {
	for _, c := range line {
		if c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			return false
		}
	}
	return true
}

// decodeNDJSON decodes data through encoding/json, one value at a time.
// data starts on a line boundary, after the input's first `from` lines,
// and error messages count lines from the start of the input. before is
// the line of the last record ahead of data (0 if none): truncated input
// is reported where the last decoded value ended, and when that value
// lies ahead of data, the decoder over data alone cannot see it.
func decodeNDJSON(data []byte, from, before int) ([]failures.Failure, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	records := make([]failures.Failure, 0, presize(countLines(data), len(data)))
	for {
		recStart := dec.InputOffset()
		var rec jsonRecord
		if err := dec.Decode(&rec); err == io.EOF {
			return records, nil
		} else if err != nil {
			line := from + errorLine(data, dec, err, recStart)
			if err == io.ErrUnexpectedEOF && dec.InputOffset() == 0 {
				line = max(before, 1)
			}
			return nil, fmt.Errorf("trace: decoding NDJSON line %d: %w", line, err)
		}
		f, err := recordFromWire(rec)
		if err != nil {
			return nil, fmt.Errorf("trace: NDJSON line %d: %w", from+recordLine(data, recStart), err)
		}
		records = append(records, f)
	}
}

// joinShard is the number of records one logFromParts worker copies.
const joinShard = 64 << 10

// logFromParts joins the decoded parts, in input order, into one
// exact-size slice, copying shards of it on up to width workers, and
// hands it to the log, which adopts input already in the log's order and
// sorts anything else in place.
func logFromParts(parts [][]failures.Failure, width int) (*failures.Log, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n == 0 {
		return nil, fmt.Errorf("trace: NDJSON contains no records")
	}
	records := make([]failures.Failure, n)
	// A log of one shard is joined inline, with none of the pool's
	// allocations.
	if n <= joinShard {
		joinParts(records, parts, parallel.Range{Lo: 0, Hi: n})
	} else {
		_ = parallel.ForEach(context.Background(), width, parallel.Shards(n, (n+joinShard-1)/joinShard),
			func(_ context.Context, _ int, r parallel.Range) error {
				joinParts(records, parts, r)
				return nil
			})
	}
	log, err := failures.NewLogOwned(records[0].System, records)
	if err != nil {
		return nil, fmt.Errorf("trace: validating NDJSON log: %w", err)
	}
	return log, nil
}

// joinParts copies records[r.Lo:r.Hi] out of the parts they were
// decoded into.
func joinParts(records []failures.Failure, parts [][]failures.Failure, r parallel.Range) {
	start := 0 // offset of the part at hand
	for _, p := range parts {
		if lo, hi := max(r.Lo, start), min(r.Hi, start+len(p)); lo < hi {
			copy(records[lo:hi], p[lo-start:hi-start])
		}
		if start += len(p); start >= r.Hi {
			return
		}
	}
}

// ParseNDJSONRecord parses one NDJSON wire line into a Failure. It is the
// per-line kernel behind ReadNDJSON, exported for streaming ingest paths
// (internal/serve) that read request bodies line by line under their own
// size limits instead of slurping. Canonical lines take the hand-rolled
// fast parser (decode.go); anything else falls back to encoding/json.
func ParseNDJSONRecord(line []byte) (failures.Failure, error) {
	if rec, ok := parseNDJSONRecordFast(line, nil); ok {
		return recordFromWire(rec)
	}
	var rec jsonRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return failures.Failure{}, err
	}
	return recordFromWire(rec)
}

// recordFromWire converts a decoded wire record into the domain form,
// resolving the enum fields and the exact duration preimage of the
// recovery hours.
func recordFromWire(rec jsonRecord) (failures.Failure, error) {
	sys, err := failures.ParseSystem(rec.System)
	if err != nil {
		return failures.Failure{}, err
	}
	category, err := failures.ParseCategory(sys, rec.Category)
	if err != nil {
		return failures.Failure{}, err
	}
	recovery, err := durationFromHours(rec.RecoveryHours)
	if err != nil {
		return failures.Failure{}, err
	}
	cause, err := failures.ParseSoftwareCause(rec.SoftwareCause)
	if err != nil {
		return failures.Failure{}, err
	}
	return failures.Failure{
		ID:            rec.ID,
		System:        sys,
		Time:          rec.Time,
		Recovery:      recovery,
		Category:      category,
		Node:          rec.Node,
		GPUs:          rec.GPUs,
		SoftwareCause: cause,
	}, nil
}

// lineAt returns the 1-based line number containing byte offset off.
func lineAt(data []byte, off int64) int {
	if off > int64(len(data)) {
		off = int64(len(data))
	}
	return 1 + bytes.Count(data[:off], []byte{'\n'})
}

// errorLine locates an error decoding the value that starts at offset
// recStart: JSON syntax errors carry the stream offset where they
// occurred, type errors an offset from recStart; anything else
// (truncated input, a bad time) is attributed to the decoder's current
// position.
func errorLine(data []byte, dec *json.Decoder, err error, recStart int64) int {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return lineAt(data, syn.Offset)
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		return lineAt(data, recStart+typ.Offset)
	}
	return lineAt(data, dec.InputOffset())
}

// recordLine returns the line on which the record decoded from offset
// recStart begins: the decoder's offset points at the end of the previous
// value, so the record itself starts at the first non-whitespace byte
// after it (skipping the blank lines in between).
func recordLine(data []byte, recStart int64) int {
	i := recStart
	for i < int64(len(data)) {
		switch data[i] {
		case ' ', '\t', '\r', '\n':
			i++
		default:
			return lineAt(data, i+1)
		}
	}
	return lineAt(data, i)
}
