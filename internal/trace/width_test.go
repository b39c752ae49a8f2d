package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/parallel"
	"repro/internal/testutil"
)

// The codecs fan out over GOMAXPROCS: WriteTSBC and WriteNDJSON encode
// ranges on several workers, ReadTSBC decodes runs of blocks on several
// workers. These tests hold every width to the sequential path: the same
// bytes, the same records, and the same error string.

// codecWidths are the pool widths compared: the inline path, an even
// split, and more workers than most tiny inputs have ranges.
var codecWidths = []int{1, 2, 7}

// blockWriterTSBC encodes records with one BlockWriter appending each in
// turn: the sequential reference for writeTSBC. It returns the first
// Append error, if any.
func blockWriterTSBC(system failures.System, records []failures.Failure, capacity int) ([]byte, error) {
	var buf bytes.Buffer
	bw, err := newBlockWriterSize(&buf, system, capacity)
	if err != nil {
		return nil, err
	}
	for _, f := range records {
		if err := bw.Append(f); err != nil {
			return nil, err
		}
	}
	if err := bw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// blockReaderErr reads data through BlockReader to the end and returns
// the first error (nil for a well-framed file).
func blockReaderErr(data []byte) error {
	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		if _, err := br.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// errString renders an error for comparison; nil is "<nil>".
func errString(err error) string { return fmt.Sprint(err) }

// TestPropertyCodecWidthsAgree checks, for arbitrary valid logs on tiny
// blocks and ranges, that writeTSBC at every width writes the bytes one
// BlockWriter writes, readTSBC at every width decodes them to the log,
// and writeNDJSON at every width writes the bytes of one inline range.
func TestPropertyCodecWidthsAgree(t *testing.T) {
	testutil.Check(t, 150, func(g *testutil.Gen) error {
		log, err := genLogOf(g, 40)
		if err != nil {
			return fmt.Errorf("generator produced invalid log: %w", err)
		}
		capacity := 1 + g.Intn(3)
		perRange := 1 + g.Intn(5)
		want, err := blockWriterTSBC(log.System(), log.Records(), capacity)
		if err != nil {
			return fmt.Errorf("BlockWriter: %w", err)
		}
		var wantNDJSON bytes.Buffer
		if err := writeNDJSON(&wantNDJSON, log, 1, log.Len()); err != nil {
			return fmt.Errorf("writeNDJSON inline: %w", err)
		}
		for _, width := range codecWidths {
			var tsbc bytes.Buffer
			if err := writeTSBC(&tsbc, log, width, capacity); err != nil {
				return fmt.Errorf("width %d: writeTSBC: %w", width, err)
			}
			if !bytes.Equal(tsbc.Bytes(), want) {
				return fmt.Errorf("width %d, %d-record blocks: .tsbc differs from BlockWriter's", width, capacity)
			}
			decoded, err := readTSBC(bytes.NewReader(want), width)
			if err != nil {
				return fmt.Errorf("width %d: readTSBC: %w", width, err)
			}
			if err := requireSameLog(log, decoded, fmt.Sprintf("width %d .tsbc decode", width)); err != nil {
				return err
			}
			var nd bytes.Buffer
			if err := writeNDJSON(&nd, log, width, perRange); err != nil {
				return fmt.Errorf("width %d: writeNDJSON: %w", width, err)
			}
			if !bytes.Equal(nd.Bytes(), wantNDJSON.Bytes()) {
				return fmt.Errorf("width %d, %d-record ranges: NDJSON differs from the inline encoding", width, perRange)
			}
		}
		return nil
	})
}

// edgeLog is a valid 20-record Tsubame-3 log, one record a minute.
func edgeLog(t *testing.T) []failures.Failure {
	t.Helper()
	base := time.Date(2018, 3, 1, 0, 0, 0, 0, time.UTC)
	records := make([]failures.Failure, 20)
	for i := range records {
		records[i] = failures.Failure{
			ID: i + 1, System: failures.Tsubame3, Time: base.Add(time.Duration(i) * time.Minute),
			Recovery: time.Hour, Category: failures.CatGPU, Node: fmt.Sprintf("n%04d", i%3), GPUs: []int{i % 4},
		}
	}
	return records
}

// TestWriteTSBCWidthsAgreeOnErrors places a record the writer rejects
// (a category outside the taxonomy, which a log reaches through
// AppendSorted's unvalidated merge) at every position of a log cut into
// 2-record blocks, so on every block edge and every range edge (4
// blocks), and requires writeTSBC at every width to fail with the error
// BlockWriter gives first.
func TestWriteTSBCWidthsAgreeOnErrors(t *testing.T) {
	records := edgeLog(t)
	for k := range records {
		good := append(append([]failures.Failure(nil), records[:k]...), records[k+1:]...)
		base, err := failures.NewLog(failures.Tsubame3, good)
		if err != nil {
			t.Fatal(err)
		}
		bad := records[k]
		bad.Category = failures.CatPBS // a Tsubame-2 category
		log, _, err := base.AppendSorted([]failures.Failure{bad})
		if err != nil {
			t.Fatal(err)
		}
		_, want := blockWriterTSBC(log.System(), log.Records(), 2)
		if want == nil {
			t.Fatalf("record %d: BlockWriter accepted a foreign category", k)
		}
		for _, width := range codecWidths {
			err := writeTSBC(io.Discard, log, width, 2)
			if errString(err) != errString(want) {
				t.Errorf("record %d, width %d: error %q, want %q", k, width, errString(err), want)
			}
		}
	}
}

// TestWriteNDJSONWidthsAgreeOnErrors ends a log with m records the
// NDJSON encoder rejects (year 10000) for every m, so the first of them
// falls on every position of 3-record ranges, and requires writeNDJSON at
// every width to name the first.
func TestWriteNDJSONWidthsAgreeOnErrors(t *testing.T) {
	records := edgeLog(t)
	for m := 1; m <= 7; m++ {
		head, err := failures.NewLog(failures.Tsubame3, records[:len(records)-m])
		if err != nil {
			t.Fatal(err)
		}
		tail := append([]failures.Failure(nil), records[len(records)-m:]...)
		for i := range tail {
			tail[i].Time = time.Date(10000, 1, 1, 0, i, 0, 0, time.UTC)
		}
		log, _, err := head.AppendSorted(tail)
		if err != nil {
			t.Fatal(err)
		}
		want := writeNDJSON(io.Discard, log, 1, log.Len())
		if want == nil {
			t.Fatalf("m=%d: a year-10000 record encoded", m)
		}
		for _, width := range codecWidths {
			err := writeNDJSON(io.Discard, log, width, 3)
			if errString(err) != errString(want) {
				t.Errorf("m=%d, width %d: error %q, want %q", m, width, errString(err), want)
			}
		}
	}
}

// tsbcParts splits a well-framed .tsbc file into its header, each block
// frame's payload (without length prefix and CRC), and the end frame.
func tsbcParts(t *testing.T, data []byte) (header []byte, payloads [][]byte, end []byte) {
	t.Helper()
	r := bytes.NewReader(data)
	if _, err := NewBlockReader(r); err != nil {
		t.Fatal(err)
	}
	header = data[:len(data)-r.Len()]
	rest := data[len(header):]
	for {
		n, k := binary.Uvarint(rest)
		if k <= 0 {
			t.Fatal("malformed frame length")
		}
		if n == 0 {
			return header, payloads, rest
		}
		payloads = append(payloads, rest[k:k+int(n)-4])
		rest = rest[k+int(n):]
	}
}

// joinTSBC reassembles a file from its parts, framing and checksumming
// every payload afresh.
func joinTSBC(header []byte, payloads [][]byte, end []byte) []byte {
	out := append([]byte(nil), header...)
	for _, p := range payloads {
		out = binary.AppendUvarint(out, uint64(len(p)+4))
		out = append(out, p...)
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(p, tsbcCRC))
	}
	return append(out, end...)
}

// TestReadTSBCWidthsAgreeOnErrors corrupts well-checksummed files on
// every block edge and requires readTSBC at every width to fail with
// one error string, the one BlockReader meets first where the failure
// is the decoder's:
//   - an invalid record (a GPU slot past the node's four, which the
//     writer does not check) at every position;
//   - two adjacent blocks swapped, so the records run out of order
//     across their edge;
//   - a column error (a trailing byte) in block k of a file also cut
//     short after block k+1, so the framing error ranks after it, and
//     the cut file with no column error;
//   - column errors in block k and in the last block, so the lower
//     block's wins.
func TestReadTSBCWidthsAgreeOnErrors(t *testing.T) {
	records := edgeLog(t)
	check := func(name string, data []byte, wantReader bool) {
		t.Helper()
		want := errString(mustFail(readTSBC(bytes.NewReader(data), 1)))
		if want == "<nil>" {
			t.Fatalf("%s: accepted", name)
		}
		if wantReader {
			if got := errString(blockReaderErr(data)); got != want {
				t.Errorf("%s: readTSBC error %q, BlockReader's %q", name, want, got)
			}
		}
		for _, width := range codecWidths[1:] {
			if got := errString(mustFail(readTSBC(bytes.NewReader(data), width))); got != want {
				t.Errorf("%s, width %d: error %q, want %q", name, width, got, want)
			}
		}
	}
	for k := range records {
		bad := append([]failures.Failure(nil), records...)
		bad[k].GPUs = []int{9}
		data, err := blockWriterTSBC(failures.Tsubame3, bad, 2)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("invalid record %d", k), data, false)
	}
	data, err := blockWriterTSBC(failures.Tsubame3, records, 2)
	if err != nil {
		t.Fatal(err)
	}
	header, payloads, end := tsbcParts(t, data)
	for k := 0; k+1 < len(payloads); k++ {
		swapped := append([][]byte(nil), payloads...)
		swapped[k], swapped[k+1] = swapped[k+1], swapped[k]
		check(fmt.Sprintf("blocks %d and %d swapped", k, k+1), joinTSBC(header, swapped, end), false)
	}
	for k := 0; k+2 < len(payloads); k++ {
		corrupt := append([][]byte(nil), payloads...)
		corrupt[k] = append(append([]byte(nil), payloads[k]...), 0)
		whole := joinTSBC(header, corrupt[:k+2], end)
		cut := whole[:len(whole)-len(end)]
		check(fmt.Sprintf("column error in block %d, cut after block %d", k, k+1), cut, true)
	}
	for k := 0; k+1 < len(payloads); k++ {
		corrupt := append([][]byte(nil), payloads...)
		corrupt[k] = append(append([]byte(nil), payloads[k]...), 0)
		last := len(payloads) - 1
		corrupt[last] = append(append([]byte(nil), payloads[last]...), 0, 0)
		check(fmt.Sprintf("column errors in blocks %d and %d", k, last), joinTSBC(header, corrupt, end), true)
	}
	cut := joinTSBC(header, payloads[:5], nil)
	check("cut after block 4", cut, true)
}

// mustFail drops readTSBC's log, keeping its error.
func mustFail(_ *failures.Log, err error) error { return err }

// hostileFrame is a .tsbc frame payload with a valid layout up to its
// columns whose stats claim count records in a few bytes.
func hostileFrame(count int) []byte {
	var p []byte
	p = binary.AppendUvarint(p, uint64(count))
	for i := 0; i < 4; i++ { // min/max time seconds and nanoseconds
		p = binary.AppendUvarint(p, 0)
	}
	p = binary.AppendUvarint(p, 0) // min recovery
	p = binary.AppendUvarint(p, 0) // max recovery
	p = binary.AppendUvarint(p, 1) // categories
	p = binary.AppendUvarint(p, 0) // empty node dictionary
	return append(p, make([]byte, 16)...)
}

// TestReadTSBCHostileCountMemory is the "k × input bytes + c" budget of
// the exact-size .tsbc read (TestReadersBlankLineMemory's bound): a
// frame with a valid checksum that claims 65,536 records in a few bytes
// is rejected by name before anything is sized by its count, alone and
// as the first of many such frames.
func TestReadTSBCHostileCountMemory(t *testing.T) {
	data, err := blockWriterTSBC(failures.Tsubame3, edgeLog(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	header, _, end := tsbcParts(t, data)
	for _, frames := range []int{1, 1000} {
		payloads := make([][]byte, frames)
		for i := range payloads {
			payloads[i] = hostileFrame(tsbcMaxBlockRecords)
		}
		in := joinTSBC(header, payloads, end)
		for _, width := range codecWidths {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := readTSBC(bytes.NewReader(in), width)
			runtime.ReadMemStats(&after)
			if err == nil || !bytes.Contains([]byte(err.Error()), []byte("block claims 65536 records")) {
				t.Fatalf("%d frames, width %d: error %v, want the count rejected", frames, width, err)
			}
			if alloc, budget := after.TotalAlloc-before.TotalAlloc, uint64(16*len(in)+1<<20); alloc > budget {
				t.Errorf("%d frames, width %d: allocated %d bytes for %d input bytes, want at most %d", frames, width, alloc, len(in), budget)
			}
		}
		if err := blockReaderErr(in); err == nil || !bytes.Contains([]byte(err.Error()), []byte("block claims 65536 records")) {
			t.Errorf("%d frames: BlockReader error %v, want the count rejected", frames, err)
		}
	}
}

// TestPropertyJoinPartsShards checks the NDJSON reader's parallel join:
// parts of any lengths, empty ones included, copied in shards of any
// size land exactly where one concatenation puts them.
func TestPropertyJoinPartsShards(t *testing.T) {
	testutil.Check(t, 200, func(g *testutil.Gen) error {
		var parts [][]failures.Failure
		var want []failures.Failure
		for p := g.Intn(6); p >= 0; p-- {
			part := make([]failures.Failure, g.Intn(5))
			for i := range part {
				part[i].ID = len(want) + i + 1
			}
			parts = append(parts, part)
			want = append(want, part...)
		}
		if len(want) == 0 {
			return testutil.Skip
		}
		got := make([]failures.Failure, len(want))
		for _, r := range parallel.Shards(len(want), 1+g.Intn(len(want))) {
			joinParts(got, parts, r)
		}
		for i := range want {
			if got[i].ID != want[i].ID {
				return fmt.Errorf("record %d has ID %d, want %d", i, got[i].ID, want[i].ID)
			}
		}
		return nil
	})
}
