package trace

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/synth"
)

// tsbcTestLog generates a canonical synthetic log.
func tsbcTestLog(t testing.TB, system failures.System, seed int64) *failures.Log {
	t.Helper()
	profile, err := synth.ProfileFor(system)
	if err != nil {
		t.Fatal(err)
	}
	log, err := synth.Generate(profile, seed)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestTSBCRoundTripByteIdentical is the differential contract of the
// format: NDJSON -> tsbc -> NDJSON must be byte-identical on canonical
// profiles of both systems. Recovery is carried as exact nanoseconds and
// times as epoch sec+nsec, so the NDJSON re-encode reproduces the exact
// float and timestamp strings.
func TestTSBCRoundTripByteIdentical(t *testing.T) {
	for _, system := range []failures.System{failures.Tsubame2, failures.Tsubame3} {
		for _, seed := range []int64{1, 42, 1234} {
			t.Run(fmt.Sprintf("%v/seed%d", system, seed), func(t *testing.T) {
				log := tsbcTestLog(t, system, seed)
				var ndjson1 bytes.Buffer
				if err := WriteNDJSON(&ndjson1, log); err != nil {
					t.Fatal(err)
				}
				var tsbc bytes.Buffer
				if err := WriteTSBC(&tsbc, log); err != nil {
					t.Fatal(err)
				}
				back, err := ReadTSBC(bytes.NewReader(tsbc.Bytes()))
				if err != nil {
					t.Fatal(err)
				}
				var ndjson2 bytes.Buffer
				if err := WriteNDJSON(&ndjson2, back); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ndjson1.Bytes(), ndjson2.Bytes()) {
					t.Fatalf("NDJSON -> tsbc -> NDJSON not byte-identical (%d vs %d bytes)",
						ndjson1.Len(), ndjson2.Len())
				}
				if tsbc.Len() >= ndjson1.Len() {
					t.Errorf("tsbc (%d bytes) not smaller than NDJSON (%d bytes)", tsbc.Len(), ndjson1.Len())
				}
			})
		}
	}
}

// TestTSBCAdversarialRecords round-trips hand-built edge-case records:
// sub-second timestamps, zero recoveries, empty and set optional fields,
// duplicate timestamps with ID ties, and maximal GPU lists.
func TestTSBCAdversarialRecords(t *testing.T) {
	base := time.Date(2013, 7, 1, 12, 0, 0, 0, time.UTC)
	records := []failures.Failure{
		{ID: 1, System: failures.Tsubame2, Time: base, Recovery: 0, Category: failures.CatGPU, Node: "n0001", GPUs: []int{0, 1, 2}},
		{ID: 2, System: failures.Tsubame2, Time: base.Add(time.Nanosecond), Recovery: 360 * time.Millisecond, Category: failures.CatGPU, GPUs: []int{2}},
		{ID: 3, System: failures.Tsubame2, Time: base.Add(time.Second), Recovery: 1000 * time.Hour, Category: failures.CatPBS, SoftwareCause: failures.CauseScheduler},
		{ID: 4, System: failures.Tsubame2, Time: base.Add(time.Second), Recovery: time.Hour, Category: failures.CatVM, SoftwareCause: failures.CauseKernelPanic},
		{ID: 5, System: failures.Tsubame2, Time: base.Add(2 * time.Second).Add(123456789 * time.Nanosecond), Recovery: time.Minute, Category: failures.CatDisk, Node: "n0100"},
	}
	log, err := failures.NewLog(failures.Tsubame2, records)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTSBC(&buf, log); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTSBC(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WriteNDJSON(&a, log); err != nil {
		t.Fatal(err)
	}
	if err := WriteNDJSON(&b, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("adversarial round trip not byte-identical:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestTSBCBlockBoundaries drives a tiny block capacity so multi-block
// behavior (flushes, per-block dictionaries, delta restarts, stats) is
// exercised with a handful of records.
func TestTSBCBlockBoundaries(t *testing.T) {
	log := tsbcTestLog(t, failures.Tsubame3, 7)
	for _, capacity := range []int{1, 3, 7, log.Len(), tsbcBlockRecords} {
		var buf bytes.Buffer
		bw, err := newBlockWriterSize(&buf, log.System(), capacity)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < log.Len(); i++ {
			if err := bw.Append(log.At(i)); err != nil {
				t.Fatalf("capacity %d: append %d: %v", capacity, i, err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}

		br, err := NewBlockReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		wantBlocks := (log.Len() + capacity - 1) / capacity
		var blocks, total int
		var prev time.Time
		for {
			blk, err := br.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("capacity %d: block %d: %v", capacity, blocks, err)
			}
			stats := blk.Stats()
			if stats.Count != blk.Len() || blk.Len() == 0 {
				t.Fatalf("capacity %d: stats count %d vs len %d", capacity, stats.Count, blk.Len())
			}
			if blocks > 0 && stats.MinTime.Before(prev) {
				t.Fatalf("capacity %d: block %d window regressed", capacity, blocks)
			}
			for i := 0; i < blk.Len(); i++ {
				got, want := blk.Record(i), log.At(total+i)
				if got.Time.Before(stats.MinTime) || got.Time.After(stats.MaxTime) {
					t.Fatalf("record %d outside block window", got.ID)
				}
				if got.Recovery < stats.MinRecovery || got.Recovery > stats.MaxRecovery {
					t.Fatalf("record %d outside recovery bounds", got.ID)
				}
				if got.ID != want.ID || !got.Time.Equal(want.Time) || got.Category != want.Category {
					t.Fatalf("capacity %d: record %d mismatch: %+v vs %+v", capacity, total+i, got, want)
				}
			}
			prev = stats.MaxTime
			total += blk.Len()
			blocks++
		}
		if blocks != wantBlocks || total != log.Len() || br.Total() != log.Len() {
			t.Fatalf("capacity %d: %d blocks/%d records (Total %d), want %d/%d",
				capacity, blocks, total, br.Total(), wantBlocks, log.Len())
		}
	}
}

// TestTSBCWriterRejects pins the writer's invariants: wrong system,
// foreign category, unknown cause, out-of-order appends, append after
// Close.
func TestTSBCWriterRejects(t *testing.T) {
	base := time.Date(2017, 9, 1, 0, 0, 0, 0, time.UTC)
	ok := failures.Failure{ID: 1, System: failures.Tsubame3, Time: base, Recovery: time.Hour, Category: failures.CatGPU}
	var buf bytes.Buffer
	bw, err := newBlockWriterSize(&buf, failures.Tsubame3, tsbcBlockRecords)
	if err != nil {
		t.Fatal(err)
	}
	if err := bw.Append(ok); err != nil {
		t.Fatal(err)
	}
	wrongSystem := ok
	wrongSystem.System = failures.Tsubame2
	if err := bw.Append(wrongSystem); err == nil {
		t.Error("wrong-system append should fail")
	}
	foreignCat := ok
	foreignCat.ID, foreignCat.Time = 2, base.Add(time.Hour)
	foreignCat.Category = failures.CatPBS // Tsubame2 taxonomy
	if err := bw.Append(foreignCat); err == nil {
		t.Error("foreign-category append should fail")
	}
	badCause := ok
	badCause.ID, badCause.Time = 2, base.Add(time.Hour)
	badCause.SoftwareCause = failures.SoftwareCause(99) // outside the vocabulary
	if err := bw.Append(badCause); err == nil {
		t.Error("unknown-cause append should fail")
	}
	older := ok
	older.ID, older.Time = 2, base.Add(-time.Hour)
	if err := bw.Append(older); err == nil {
		t.Error("out-of-order append should fail")
	}
	tieBreak := ok
	tieBreak.ID = 0 // same time, smaller ID: also out of order
	if err := bw.Append(tieBreak); err == nil {
		t.Error("ID-regressing append at equal time should fail")
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bw.Append(ok); err == nil {
		t.Error("append after Close should fail")
	}
}

// corruptAt returns a copy of data with one byte flipped.
func corruptAt(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0xFF
	return out
}

// TestTSBCCorruptionDetected asserts every corruption class errors
// instead of returning wrong records: bad magic, bad version, bad
// system, dictionary tampering, block bit flips (CRC), truncations at
// every prefix length, and a lying end-frame total.
func TestTSBCCorruptionDetected(t *testing.T) {
	log := tsbcTestLog(t, failures.Tsubame2, 42)
	var buf bytes.Buffer
	if err := WriteTSBC(&buf, log); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	readAll := func(data []byte) error {
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
	if err := readAll(data); err != nil {
		t.Fatalf("pristine trace failed: %v", err)
	}

	// Header field corruptions.
	for _, i := range []int{0, 1, 2, 3, 4, 5} {
		if err := readAll(corruptAt(data, i)); err == nil {
			t.Errorf("corrupt header byte %d accepted", i)
		}
	}
	// Every byte of the first KiB flipped one at a time: the dictionary
	// and first block region. Reserved flag bytes (6, 7) are the only
	// bytes a version-1 reader may legitimately ignore.
	for i := 8; i < 1024 && i < len(data); i++ {
		if err := readAll(corruptAt(data, i)); err == nil {
			t.Errorf("corrupt byte %d accepted", i)
		}
	}
	// Truncations: every prefix must error, never hang or succeed.
	for i := 0; i < len(data)-1; i += 97 {
		if err := readAll(data[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	// End-frame total tampering: the tail is uvarint 0, uvarint total,
	// magic. Flip the last pre-magic byte (part of the total).
	tampered := corruptAt(data, len(data)-5)
	if err := readAll(tampered); err == nil {
		t.Error("tampered end-frame total accepted")
	}
}

// TestTSBCPredicatePushdown checks filtered reads return exactly the
// matching records while decoding fewer blocks.
func TestTSBCPredicatePushdown(t *testing.T) {
	log := tsbcTestLog(t, failures.Tsubame2, 42)
	var buf bytes.Buffer
	bw, err := newBlockWriterSize(&buf, log.System(), 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < log.Len(); i++ {
		if err := bw.Append(log.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}

	start, end, _ := log.Window()
	mid := start.Add(end.Sub(start) / 2)
	quarter := start.Add(end.Sub(start) / 4)
	cases := []struct {
		name   string
		filter *BlockFilter
		keep   func(failures.Failure) bool
	}{
		{"time range", &BlockFilter{From: quarter, To: mid}, func(f failures.Failure) bool {
			return !f.Time.Before(quarter) && f.Time.Before(mid)
		}},
		{"category", &BlockFilter{Categories: []failures.Category{failures.CatGPU}}, func(f failures.Failure) bool {
			return f.Category == failures.CatGPU
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			br, err := NewBlockReader(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if err := br.SetFilter(tc.filter); err != nil {
				t.Fatal(err)
			}
			want := map[int]bool{}
			for i := 0; i < log.Len(); i++ {
				if f := log.At(i); tc.keep(f) {
					want[f.ID] = true
				}
			}
			got := map[int]bool{}
			var blocks int
			for {
				blk, err := br.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				blocks++
				for i := 0; i < blk.Len(); i++ {
					if f := blk.Record(i); tc.keep(f) {
						got[f.ID] = true
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("filtered read matched %d records, want %d", len(got), len(want))
			}
			totalBlocks := (log.Len() + 63) / 64
			if blocks >= totalBlocks {
				t.Errorf("filter decoded all %d blocks — no pushdown", blocks)
			}
		})
	}

	br, err := NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := br.SetFilter(&BlockFilter{Categories: []failures.Category{failures.CatLustre}}); err == nil {
		t.Error("foreign-taxonomy filter category should fail")
	}
}

// TestReadTSBCStats checks the O(blocks) skim agrees with the log.
func TestReadTSBCStats(t *testing.T) {
	log := tsbcTestLog(t, failures.Tsubame3, 42)
	var buf bytes.Buffer
	bw, err := newBlockWriterSize(&buf, log.System(), 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < log.Len(); i++ {
		if err := bw.Append(log.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	stats, err := ReadTSBCStats(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	start, end, _ := log.Window()
	wantBlocks := (log.Len() + 99) / 100
	if stats.System != log.System() || stats.Records != log.Len() || stats.Blocks != wantBlocks {
		t.Errorf("stats = %+v, want system %v, %d records, %d blocks", stats, log.System(), log.Len(), wantBlocks)
	}
	if !stats.Start.Equal(start) || !stats.End.Equal(end) {
		t.Errorf("stats window %v..%v, want %v..%v", stats.Start, stats.End, start, end)
	}
}

// TestTSBCEmptyLog pins the empty-trace contract: writable, stats-able,
// but ReadTSBC errors like the other readers on empty input.
func TestTSBCEmptyLog(t *testing.T) {
	empty, err := failures.NewLog(failures.Tsubame2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTSBC(&buf, empty); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadTSBC(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("empty tsbc should fail full decode")
	}
	stats, err := ReadTSBCStats(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Records != 0 || stats.Blocks != 0 {
		t.Errorf("empty trace stats = %+v", stats)
	}
}

// TestReadTSBCAllocsNotPerRecord pins the bulk decoder's allocation
// budget, as TestReadNDJSONAllocsNotPerRecord does the NDJSON one's: a
// block's node dictionary decodes into one string, so a read allocates
// per block, not per record or per node.
func TestReadTSBCAllocsNotPerRecord(t *testing.T) {
	log := scaledTsubame3Log(t, 30)
	var buf bytes.Buffer
	if err := WriteTSBC(&buf, log); err != nil {
		t.Fatal(err)
	}
	// A fixed width keeps the allocation count independent of the host.
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := readTSBC(bytes.NewReader(buf.Bytes()), 4); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(log.Len()) / 50; allocs > limit {
		t.Errorf("%v allocs per read of %d records, want at most %v", allocs, log.Len(), limit)
	}
}

// TestTSBCNodesOutliveNext pins the Block contract that node strings,
// unlike GPU slices, stay valid after the reader moves on: nodes kept
// from every block of a many-block file still match the log once the
// whole file is read.
func TestTSBCNodesOutliveNext(t *testing.T) {
	log := tsbcTestLog(t, failures.Tsubame2, 7)
	var buf bytes.Buffer
	bw, err := newBlockWriterSize(&buf, log.System(), 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < log.Len(); i++ {
		if err := bw.Append(log.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	br, err := NewBlockReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var nodes []string
	for {
		blk, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < blk.Len(); i++ {
			nodes = append(nodes, blk.Record(i).Node)
		}
	}
	if len(nodes) != log.Len() {
		t.Fatalf("read %d records, want %d", len(nodes), log.Len())
	}
	for i, node := range nodes {
		if node != log.At(i).Node {
			t.Fatalf("record %d: node %q after the read, want %q", i, node, log.At(i).Node)
		}
	}
}

// readTSBCStream is ReadTSBC as one BlockReader pass: every block
// decoded in turn and its records copied out, then the empty check and
// the log's validation. It is the sequential oracle of the parallel
// decode.
func readTSBCStream(data []byte) (*failures.Log, error) {
	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var records []failures.Failure
	for {
		blk, err := br.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		for i := 0; i < blk.Len(); i++ {
			f := blk.Record(i)
			f.GPUs = append([]int(nil), f.GPUs...)
			records = append(records, f)
		}
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("trace: tsbc contains no records")
	}
	log, err := failures.NewLogSorted(br.System(), records)
	if err != nil {
		return nil, fmt.Errorf("trace: validating tsbc log: %w", err)
	}
	return log, nil
}

// FuzzReadTSBC asserts the binary reader never panics and never
// over-allocates on adversarial input: corrupt headers, truncated
// blocks, and forged dictionaries must all error. Every input decodes
// alike at widths 1 and 3 and through one BlockReader pass: the same
// records or the same error. Anything the reader accepts must survive a
// re-encode/re-read round trip.
func FuzzReadTSBC(f *testing.F) {
	for _, system := range []failures.System{failures.Tsubame2, failures.Tsubame3} {
		log := tsbcTestLog(f, system, 1)
		head, _ := log.SplitFraction(0.02) // keep the corpus entries small
		var buf bytes.Buffer
		bw, err := newBlockWriterSize(&buf, system, 4)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i < head.Len(); i++ {
			if err := bw.Append(head.At(i)); err != nil {
				f.Fatal(err)
			}
		}
		if err := bw.Close(); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(tsbcMagic))
	f.Add([]byte("TSBC\x01\x01\x00\x00"))
	f.Add([]byte{})
	f.Add([]byte("garbage that is not a trace"))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := readTSBCStream(data)
		for _, width := range []int{1, 3} {
			got, err := readTSBC(bytes.NewReader(data), width)
			if errString(err) != errString(wantErr) {
				t.Fatalf("width %d: error %q, BlockReader pass %q", width, errString(err), errString(wantErr))
			}
			if err == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("width %d: records differ from the BlockReader pass", width)
			}
		}
		if wantErr != nil {
			return // rejects are fine; panics and runaway allocation are not
		}
		log := want
		var out bytes.Buffer
		if err := WriteTSBC(&out, log); err != nil {
			t.Fatalf("accepted log failed to re-encode: %v", err)
		}
		back, err := ReadTSBC(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip of accepted trace failed: %v", err)
		}
		if back.Len() != log.Len() {
			t.Fatalf("round trip changed record count: %d -> %d", log.Len(), back.Len())
		}
	})
}

// Append encodes one record into the current block, flushing a full
// block to the underlying writer first: the one-record-at-a-time writer
// whose output WriteTSBC's parallel block encoding must match byte for
// byte. Records must arrive in canonical
// log order and belong to the writer's system with taxonomy-valid
// category, software cause, and GPU slots (a validated failures.Log
// satisfies all of this by construction).
func (bw *BlockWriter) Append(f failures.Failure) error {
	if bw.closed {
		return fmt.Errorf("trace: tsbc: append after Close")
	}
	if err := bw.enc.add(&f, &bw.last); err != nil {
		return err
	}
	bw.total++
	if bw.enc.full() {
		return bw.flushBlock()
	}
	return nil
}
