// The .tsbc ("TSuBame Columnar") binary trace format: the 100M-record
// data plane of docs/TRACE-FORMAT.md. A file is a self-describing header
// (magic, version, system, category/cause dictionaries) followed by
// fixed-capacity blocks of up to tsbcBlockRecords records, each framed by
// a byte-length prefix and a CRC so readers can skip, resynchronize, and
// detect corruption without decoding. Every block carries count/min/max
// statistics (time window, recovery range, category bitmask) for
// predicate pushdown, then per-field column arenas: delta-encoded record
// IDs and timestamps, raw recovery durations, and dictionary indices for
// the categorical fields. BlockWriter and BlockReader never hold more
// than one block in memory, which is what makes the constant-memory
// streaming analyses (textreport.StreamDigest) possible.
//
// Files are canonically chronologically ordered: the block encoder rejects
// out-of-order records, so block time windows are disjoint and ascending
// and a reader can stop as soon as a block starts past its time bound.
package trace

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
	"time"

	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/parallel"
)

const (
	// tsbcMagic opens every .tsbc file; tsbcTail closes it, after the
	// end frame, so truncation is always detectable.
	tsbcMagic = "TSBC"
	tsbcTail  = "CBST"

	// tsbcVersion is the format version this package writes and the only
	// one it accepts.
	tsbcVersion = 1

	// tsbcBlockRecords is the writer's block capacity. Readers accept up
	// to tsbcMaxBlockRecords per block for forward compatibility, but
	// never more — the bound is what caps a streaming consumer's memory.
	tsbcBlockRecords    = 8192
	tsbcMaxBlockRecords = 1 << 16

	// tsbcMaxFrameBytes bounds a single block frame. A frame holding
	// tsbcMaxBlockRecords of worst-case records stays far below this;
	// anything larger is corruption, rejected before buffering.
	tsbcMaxFrameBytes = 1 << 26

	// tsbcMaxDictEntries and tsbcMaxDictString clamp the header
	// dictionaries, so a corrupt count cannot pre-size a huge table
	// (the PR-8 ingest lesson: never trust a length field further than
	// the bytes backing it).
	tsbcMaxDictEntries = 1024
	tsbcMaxDictString  = 4096

	// tsbcMaxGPUs bounds one record's GPU slot list. Valid records carry
	// at most GPUsPerNode (4); the slack tolerates future topologies.
	tsbcMaxGPUs = 64
)

// tsbcCRC is the block checksum polynomial (Castagnoli, hardware-
// accelerated on amd64/arm64).
var tsbcCRC = crc32.MakeTable(crc32.Castagnoli)

// zigzag maps signed to unsigned so small negative values stay small in
// varint form; unzigzag inverts it.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// BlockStats is the per-block summary carried in every block frame:
// enough for a reader to decide whether any record in the block can
// match a time-range or category predicate without decoding the columns.
type BlockStats struct {
	// Count is the number of records in the block (1..tsbcMaxBlockRecords).
	Count int
	// MinTime and MaxTime bound the block's occurrence times (UTC).
	// Files are chronologically sorted, so windows ascend across blocks.
	MinTime, MaxTime time.Time
	// MinRecovery and MaxRecovery bound the block's recovery durations.
	MinRecovery, MaxRecovery time.Duration
	// Categories is a bitmask over the header category dictionary: bit i
	// set means at least one record of category dictionary[i] is present.
	Categories uint64
}

// overlaps reports whether the block can contain a record matching the
// filter. Zero filter times mean unbounded on that side; To is exclusive
// (the digest convention: records at or after To are out of period).
func (s BlockStats) overlaps(f *BlockFilter) bool {
	if f == nil {
		return true
	}
	if !f.From.IsZero() && s.MaxTime.Before(f.From) {
		return false
	}
	if !f.To.IsZero() && !s.MinTime.Before(f.To) {
		return false
	}
	if f.mask != 0 && s.Categories&f.mask == 0 {
		return false
	}
	return true
}

// BlockFilter is a predicate-pushdown filter for BlockReader: blocks
// whose statistics cannot match are skipped without decoding their
// columns. Set via BlockReader.SetFilter.
type BlockFilter struct {
	// From (inclusive) and To (exclusive) bound occurrence times; zero
	// values leave that side unbounded.
	From, To time.Time
	// Categories restricts to blocks containing at least one of the
	// listed categories; nil means all.
	Categories []failures.Category

	mask uint64
}

// blockEncoder is the state of one block under construction: column
// arenas, the node dictionary, statistics and frame assembly. Delta
// bases and the node dictionary restart in every block, so encoders
// working on different blocks of one file share nothing. The file's
// category and software-cause dictionaries are the system's taxonomy
// and Figure 3's causes, so a code's dictionary index is its position
// there (Category.Index, SoftwareCause.Index).
type blockEncoder struct {
	system   failures.System
	cols     [8][]byte // id, tsec, tnsec, recovery, cat, node, gpus, cause
	nodeIdx  map[string]int
	nodes    []string
	count    int
	capacity int
	stats    BlockStats
	prevID   int64
	prevSec  int64
	head     []byte // stats and node dictionary scratch of appendFrame
}

func newBlockEncoder(system failures.System, capacity int) *blockEncoder {
	return &blockEncoder{system: system, nodeIdx: make(map[string]int), capacity: capacity}
}

// lastRecord is a writer's order state: the time and ID of the record
// accepted last, which the next record must not precede.
type lastRecord struct {
	time time.Time
	id   int
	set  bool
}

// BlockWriter streams a failure log into the .tsbc format, holding at
// most one block of column arenas in memory: one block encoder plus the
// order state across blocks. Records must arrive in canonical log order
// (occurrence time, ties by ID) and belong to the writer's system;
// Close flushes the final partial block and the end frame. BlockWriter
// does not close the underlying writer.
type BlockWriter struct {
	w      io.Writer
	enc    *blockEncoder
	last   lastRecord
	total  uint64
	closed bool
	frame  []byte // frame assembly scratch
}

// Column indices into blockEncoder.cols.
const (
	colID = iota
	colTimeSec
	colTimeNsec
	colRecovery
	colCategory
	colNode
	colGPUs
	colCause
)

// newBlockWriterSize writes the .tsbc header for system to w and returns
// a writer whose blocks hold capacity records (tsbcBlockRecords in the
// program; tests use small blocks to exercise multi-block files
// cheaply). The category and software-cause dictionaries are the
// system's full taxonomy, so any valid record of the system is
// encodable.
func newBlockWriterSize(w io.Writer, system failures.System, capacity int) (*BlockWriter, error) {
	if !system.Valid() {
		return nil, fmt.Errorf("trace: tsbc: invalid system %d", int(system))
	}
	if capacity < 1 || capacity > tsbcMaxBlockRecords {
		return nil, fmt.Errorf("trace: tsbc: block capacity %d outside [1, %d]", capacity, tsbcMaxBlockRecords)
	}
	cats := failures.Categories(system)
	if len(cats) > 64 {
		return nil, fmt.Errorf("trace: tsbc: %v taxonomy has %d categories, format supports 64", system, len(cats))
	}
	causes := failures.SoftwareCauses()
	hdr := make([]byte, 0, 512)
	hdr = append(hdr, tsbcMagic...)
	hdr = append(hdr, tsbcVersion, byte(system), 0, 0) // version, system, flags (reserved)
	hdr = appendDict(hdr, len(cats), func(i int) string { return cats[i].String() })
	hdr = appendDict(hdr, len(causes), func(i int) string { return causes[i].String() })
	if _, err := w.Write(hdr); err != nil {
		return nil, fmt.Errorf("trace: tsbc: writing header: %w", err)
	}
	return &BlockWriter{w: w, enc: newBlockEncoder(system, capacity)}, nil
}

// appendDict encodes a string dictionary: entry count, then each entry
// length-prefixed.
func appendDict(b []byte, n int, at func(int) string) []byte {
	b = binary.AppendUvarint(b, uint64(n))
	for i := 0; i < n; i++ {
		s := at(i)
		b = binary.AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// add checks f against the dictionaries and the order state last, then
// encodes it into the block and advances last. f is read in place, never
// retained.
func (e *blockEncoder) add(f *failures.Failure, last *lastRecord) error {
	if f.System != e.system {
		return fmt.Errorf("trace: tsbc: record %d belongs to %v, trace is for %v", f.ID, f.System, e.system)
	}
	catIdx := f.Category.Index(e.system)
	if catIdx < 0 {
		return fmt.Errorf("trace: tsbc: record %d category %q is not in the %v taxonomy", f.ID, f.Category, e.system)
	}
	causeIdx := 0
	if f.SoftwareCause != 0 {
		i := f.SoftwareCause.Index()
		if i < 0 {
			return fmt.Errorf("trace: tsbc: record %d has unknown software cause %q", f.ID, f.SoftwareCause)
		}
		causeIdx = i + 1
	}
	if len(f.GPUs) > tsbcMaxGPUs {
		return fmt.Errorf("trace: tsbc: record %d lists %d GPU slots, format supports %d", f.ID, len(f.GPUs), tsbcMaxGPUs)
	}
	t := f.Time.UTC()
	if last.set && (t.Before(last.time) || (t.Equal(last.time) && f.ID < last.id)) {
		return fmt.Errorf("trace: tsbc: record %d out of order (time %v after record %d at %v)", f.ID, t, last.id, last.time)
	}
	*last = lastRecord{time: t, id: f.ID, set: true}

	sec, nsec := t.Unix(), int64(t.Nanosecond())
	e.cols[colID] = binary.AppendUvarint(e.cols[colID], zigzag(int64(f.ID)-e.prevID))
	e.cols[colTimeSec] = binary.AppendUvarint(e.cols[colTimeSec], zigzag(sec-e.prevSec))
	e.cols[colTimeNsec] = binary.AppendUvarint(e.cols[colTimeNsec], uint64(nsec))
	e.cols[colRecovery] = binary.AppendUvarint(e.cols[colRecovery], zigzag(int64(f.Recovery)))
	e.cols[colCategory] = binary.AppendUvarint(e.cols[colCategory], uint64(catIdx))
	nodeRef := 0
	if f.Node != "" {
		i, ok := e.nodeIdx[f.Node]
		if !ok {
			i = len(e.nodes)
			e.nodeIdx[f.Node] = i
			e.nodes = append(e.nodes, f.Node)
		}
		nodeRef = i + 1
	}
	e.cols[colNode] = binary.AppendUvarint(e.cols[colNode], uint64(nodeRef))
	e.cols[colGPUs] = binary.AppendUvarint(e.cols[colGPUs], uint64(len(f.GPUs)))
	for _, g := range f.GPUs {
		e.cols[colGPUs] = binary.AppendUvarint(e.cols[colGPUs], zigzag(int64(g)))
	}
	e.cols[colCause] = binary.AppendUvarint(e.cols[colCause], uint64(causeIdx))
	e.prevID, e.prevSec = int64(f.ID), sec

	if e.count == 0 {
		e.stats = BlockStats{MinTime: t, MaxTime: t, MinRecovery: f.Recovery, MaxRecovery: f.Recovery}
	} else {
		// Appends are chronological, so MaxTime only moves forward.
		e.stats.MaxTime = t
		if f.Recovery < e.stats.MinRecovery {
			e.stats.MinRecovery = f.Recovery
		}
		if f.Recovery > e.stats.MaxRecovery {
			e.stats.MaxRecovery = f.Recovery
		}
	}
	e.stats.Categories |= 1 << uint(catIdx)
	e.count++
	e.stats.Count = e.count
	return nil
}

// full reports whether the block holds its capacity of records.
func (e *blockEncoder) full() bool { return e.count >= e.capacity }

// appendFrame appends the block's length-prefixed frame (stats, node
// dictionary, column arenas, CRC) to dst and empties the encoder for the
// next block.
func (e *blockEncoder) appendFrame(dst []byte) []byte {
	h := e.head[:0]
	h = binary.AppendUvarint(h, uint64(e.count))
	h = binary.AppendUvarint(h, zigzag(e.stats.MinTime.Unix()))
	h = binary.AppendUvarint(h, uint64(e.stats.MinTime.Nanosecond()))
	h = binary.AppendUvarint(h, zigzag(e.stats.MaxTime.Unix()))
	h = binary.AppendUvarint(h, uint64(e.stats.MaxTime.Nanosecond()))
	h = binary.AppendUvarint(h, zigzag(int64(e.stats.MinRecovery)))
	h = binary.AppendUvarint(h, zigzag(int64(e.stats.MaxRecovery)))
	h = binary.AppendUvarint(h, e.stats.Categories)
	h = appendDict(h, len(e.nodes), func(i int) string { return e.nodes[i] })
	e.head = h
	size := len(h) + 4
	for _, col := range e.cols {
		size += len(col)
	}
	dst = binary.AppendUvarint(dst, uint64(size))
	start := len(dst)
	dst = append(dst, h...)
	for _, col := range e.cols {
		dst = append(dst, col...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], tsbcCRC))

	for i := range e.cols {
		e.cols[i] = e.cols[i][:0]
	}
	e.nodes = e.nodes[:0]
	clear(e.nodeIdx)
	e.count = 0
	e.prevID, e.prevSec = 0, 0
	e.stats = BlockStats{}
	return dst
}

// flushBlock writes the current block's frame, if it holds any record.
func (bw *BlockWriter) flushBlock() error {
	if bw.enc.count == 0 {
		return nil
	}
	bw.frame = bw.enc.appendFrame(bw.frame[:0])
	if _, err := bw.w.Write(bw.frame); err != nil {
		return fmt.Errorf("trace: tsbc: writing block frame: %w", err)
	}
	obs.Add("trace/tsbc_blocks", 1)
	return nil
}

// Close flushes the final partial block and writes the end frame (a zero
// frame length, the total record count, and the tail magic). The
// underlying writer is not closed. Close is idempotent in effect but
// must be called exactly once before the file is complete.
func (bw *BlockWriter) Close() error {
	if bw.closed {
		return nil
	}
	if err := bw.flushBlock(); err != nil {
		return err
	}
	bw.closed = true
	end := make([]byte, 0, 2*binary.MaxVarintLen64+4)
	end = binary.AppendUvarint(end, 0)
	end = binary.AppendUvarint(end, bw.total)
	end = append(end, tsbcTail...)
	if _, err := bw.w.Write(end); err != nil {
		return fmt.Errorf("trace: tsbc: writing end frame: %w", err)
	}
	return nil
}

// tsbcRangeBlocks is how many blocks one WriteTSBC worker encodes per
// range: 32,768 records, about half a MiB of frames.
const tsbcRangeBlocks = 4

// WriteTSBC writes the log to w in the .tsbc columnar format. The log's
// canonical ordering and validation invariants make every record
// encodable, so the only errors are I/O.
func WriteTSBC(w io.Writer, log *failures.Log) error {
	return writeTSBC(w, log, parallel.DefaultParallelism(), tsbcBlockRecords)
}

// writeTSBC is WriteTSBC with the encode width and the block capacity as
// parameters, so tests can compare widths on tiny blocks. Workers encode
// ranges of whole blocks, each with a block encoder of its own and an
// order check seeded from the record just before its range, and the
// frames are written in input order: blocks share no state, so the file
// is byte-identical to what one BlockWriter appending every record
// writes, and an invalid record fails with the error BlockWriter gives
// it first.
func writeTSBC(w io.Writer, log *failures.Log, width, capacity int) error {
	defer obs.StartSpan("trace/write-tsbc").End()
	bw := getWriter(w)
	defer putWriter(bw)
	tw, err := newBlockWriterSize(bw, log.System(), capacity)
	if err != nil {
		return err
	}
	n := log.Len()
	blocks := (n + capacity - 1) / capacity
	encoders := make([]*blockEncoder, max(width, 1))
	encoders[0] = tw.enc
	err = writeOrdered(bw, blocks, width, tsbcRangeBlocks, func(worker int, r parallel.Range, dst []byte) ([]byte, error) {
		enc := encoders[worker]
		if enc == nil {
			enc = newBlockEncoder(tw.enc.system, capacity)
			encoders[worker] = enc
		}
		lo, hi := r.Lo*capacity, min(r.Hi*capacity, n)
		var last lastRecord
		if lo > 0 {
			prev := log.Ref(lo - 1)
			last = lastRecord{time: prev.Time.UTC(), id: prev.ID, set: true}
		}
		for i := lo; i < hi; i++ {
			if err := enc.add(log.Ref(i), &last); err != nil {
				return dst, err
			}
			if enc.full() || i == hi-1 {
				dst = enc.appendFrame(dst)
			}
		}
		return dst, nil
	}, func(parallel.Range) string { return "trace: tsbc: writing block frame" })
	if err != nil {
		return err
	}
	obs.Add("trace/tsbc_blocks", int64(blocks))
	tw.total = uint64(n)
	if err := tw.Close(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: tsbc: flushing: %w", err)
	}
	return nil
}

// Block is one decoded .tsbc block. The arenas backing its records are
// owned by the BlockReader and reused on the next Next call: a record's
// GPUs slice (and the Block itself) must not be retained across Next —
// copy what outlives the block. Node strings are safe to retain: they
// are substrings of one string per block, never reused.
type Block struct {
	stats BlockStats

	ids      []int
	timeSec  []int64
	timeNsec []int32
	recovery []time.Duration
	cats     []failures.Category
	nodeIdx  []int32
	causes   []failures.SoftwareCause
	gpuOff   []int32 // len count+1: record i's slots are gpuArena[gpuOff[i]:gpuOff[i+1]]
	gpuArena []int
	nodes    []string // per-block node dictionary (index 0 = empty)

	catDict   []failures.Category
	causeDict []failures.SoftwareCause // index 0 = no cause
	system    failures.System
}

// Stats returns the block's summary statistics.
func (b *Block) Stats() BlockStats { return b.stats }

// Len returns the number of records in the block.
func (b *Block) Len() int { return b.stats.Count }

// Record materializes record i of the block. The returned Failure's
// GPUs slice aliases the block arena — valid until the reader's next
// Next call; copy it to retain.
func (b *Block) Record(i int) failures.Failure {
	var gpus []int
	if lo, hi := b.gpuOff[i], b.gpuOff[i+1]; hi > lo {
		gpus = b.gpuArena[lo:hi:hi]
	}
	var node string
	if n := b.nodeIdx[i]; n > 0 {
		node = b.nodes[n-1]
	}
	return failures.Failure{
		ID:            b.ids[i],
		System:        b.system,
		Time:          time.Unix(b.timeSec[i], int64(b.timeNsec[i])).UTC(),
		Recovery:      b.recovery[i],
		Category:      b.cats[i],
		Node:          node,
		GPUs:          gpus,
		SoftwareCause: b.causes[i],
	}
}

// copyRecords copies every record of the block into dst, which holds
// exactly Len records. The GPU arena is copied once for the whole block,
// so the records stay valid after the block's arenas are reused.
func (b *Block) copyRecords(dst []failures.Failure) {
	arena := append([]int(nil), b.gpuArena...)
	for i := range dst {
		dst[i] = b.Record(i)
		if lo, hi := b.gpuOff[i], b.gpuOff[i+1]; hi > lo {
			dst[i].GPUs = arena[lo:hi:hi]
		}
	}
}

// BlockReader streams a .tsbc file one block at a time in constant
// memory: block arenas are reused across Next calls, so peak memory is
// bounded by the largest block, not the file. Construct with
// NewBlockReader (which parses and validates the header), then call Next
// until io.EOF.
type BlockReader struct {
	r         io.Reader
	block     Block // also holds the system and the header dictionaries
	frame     []byte
	total     uint64
	filter    *BlockFilter
	statsOnly bool
	done      bool
}

// NewBlockReader parses the .tsbc header from r: magic, version, system,
// and the category/cause dictionaries, each entry validated against the
// system's taxonomy so a corrupt or forged dictionary fails here rather
// than materializing invalid records later.
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: tsbc: reading header: %w", err)
	}
	if string(hdr[:4]) != tsbcMagic {
		return nil, fmt.Errorf("trace: tsbc: bad magic %q", hdr[:4])
	}
	if hdr[4] != tsbcVersion {
		return nil, fmt.Errorf("trace: tsbc: unsupported version %d (want %d)", hdr[4], tsbcVersion)
	}
	system := failures.System(hdr[5])
	if !system.Valid() {
		return nil, fmt.Errorf("trace: tsbc: invalid system %d", hdr[5])
	}
	br := &BlockReader{r: r, block: Block{system: system}}
	catNames, err := readDict(r)
	if err != nil {
		return nil, fmt.Errorf("trace: tsbc: category dictionary: %w", err)
	}
	if len(catNames) == 0 || len(catNames) > 64 {
		return nil, fmt.Errorf("trace: tsbc: category dictionary has %d entries (want 1..64)", len(catNames))
	}
	br.block.catDict = make([]failures.Category, len(catNames))
	for i, name := range catNames {
		if br.block.catDict[i], err = failures.ParseCategory(system, name); err != nil {
			return nil, fmt.Errorf("trace: tsbc: category dictionary: %w", err)
		}
	}
	causeNames, err := readDict(r)
	if err != nil {
		return nil, fmt.Errorf("trace: tsbc: cause dictionary: %w", err)
	}
	br.block.causeDict = make([]failures.SoftwareCause, 1+len(causeNames))
	for i, name := range causeNames {
		cause, err := failures.ParseSoftwareCause(name)
		if err != nil || !cause.Valid() {
			return nil, fmt.Errorf("trace: tsbc: cause dictionary: unknown software cause %q", name)
		}
		br.block.causeDict[1+i] = cause
	}
	return br, nil
}

// readDict decodes a header dictionary from a stream, clamping entry
// counts and string lengths before allocating.
func readDict(r io.Reader) ([]string, error) {
	rb := byteReaderFor(r)
	n, err := binary.ReadUvarint(rb)
	if err != nil {
		return nil, fmt.Errorf("reading entry count: %w", err)
	}
	if n > tsbcMaxDictEntries {
		return nil, fmt.Errorf("%d entries exceeds limit %d", n, tsbcMaxDictEntries)
	}
	out := make([]string, 0, n)
	var buf []byte
	for i := uint64(0); i < n; i++ {
		l, err := binary.ReadUvarint(rb)
		if err != nil {
			return nil, fmt.Errorf("reading entry %d length: %w", i, err)
		}
		if l > tsbcMaxDictString {
			return nil, fmt.Errorf("entry %d length %d exceeds limit %d", i, l, tsbcMaxDictString)
		}
		buf = slices.Grow(buf[:0], int(l))[:l]
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("reading entry %d: %w", i, err)
		}
		out = append(out, string(buf))
	}
	return out, nil
}

// byteReaderFor adapts r for binary.ReadUvarint without buffering ahead
// (the varints in the header are read byte by byte, so the stream
// position stays exact for the fixed-width reads between them).
func byteReaderFor(r io.Reader) io.ByteReader {
	if rb, ok := r.(io.ByteReader); ok {
		return rb
	}
	return singleByteReader{r}
}

type singleByteReader struct{ r io.Reader }

func (s singleByteReader) ReadByte() (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(s.r, b[:])
	return b[0], err
}

// System returns the system the trace belongs to.
func (br *BlockReader) System() failures.System { return br.block.system }

// Total returns the record count declared by the end frame; valid only
// after Next has returned io.EOF.
func (br *BlockReader) Total() int { return int(br.total) }

// SetFilter installs a predicate-pushdown filter: Next skips (reads but
// does not decode) every block whose statistics cannot match. A nil
// filter restores full reads. Unknown categories for the trace's system
// are an error.
func (br *BlockReader) SetFilter(f *BlockFilter) error {
	if f == nil {
		br.filter = nil
		return nil
	}
	f.mask = 0
	for _, want := range f.Categories {
		i := slices.Index(br.block.catDict, want)
		if i < 0 {
			return fmt.Errorf("trace: tsbc: filter category %q is not in the trace dictionary", want)
		}
		f.mask |= 1 << uint(i)
	}
	br.filter = f
	return nil
}

// Next decodes and returns the next block matching the filter (all
// blocks when no filter is set). The returned *Block and its arenas are
// reused by the following Next call. At end of file Next verifies the
// end frame (record total, tail magic) and returns io.EOF.
func (br *BlockReader) Next() (*Block, error) {
	for {
		blk, skipped, err := br.next()
		if err != nil {
			return nil, err
		}
		if skipped {
			continue
		}
		return blk, nil
	}
}

// next reads one frame: the end frame (io.EOF), a filtered-out block
// (skipped=true), or a decoded block.
func (br *BlockReader) next() (blk *Block, skipped bool, err error) {
	var d frameDecoder
	br.frame, d, br.block.stats, err = br.nextFrame(br.frame)
	if err != nil {
		return nil, false, err
	}
	if br.statsOnly || !br.block.stats.overlaps(br.filter) {
		return nil, true, nil
	}
	if err := d.columns(&br.block); err != nil {
		return nil, false, err
	}
	obs.Add("trace/tsbc_rows", int64(br.block.stats.Count))
	return &br.block, false, nil
}

// nextFrame reads the next frame into buf's storage, verifies its
// checksum and decodes its statistics, returning the frame and a
// decoder positioned at its node dictionary. At the end frame it
// verifies the record total and the tail magic and returns io.EOF.
func (br *BlockReader) nextFrame(buf []byte) (frame []byte, d frameDecoder, stats BlockStats, err error) {
	if br.done {
		return buf, d, stats, io.EOF
	}
	rb := byteReaderFor(br.r)
	frameLen, err := binary.ReadUvarint(rb)
	if err != nil {
		if err == io.EOF {
			return buf, d, stats, fmt.Errorf("trace: tsbc: truncated before end frame")
		}
		return buf, d, stats, fmt.Errorf("trace: tsbc: reading frame length: %w", err)
	}
	if frameLen == 0 {
		total, err := binary.ReadUvarint(rb)
		if err != nil {
			return buf, d, stats, fmt.Errorf("trace: tsbc: reading end frame: %w", err)
		}
		var tail [4]byte
		if _, err := io.ReadFull(br.r, tail[:]); err != nil {
			return buf, d, stats, fmt.Errorf("trace: tsbc: reading tail magic: %w", err)
		}
		if string(tail[:]) != tsbcTail {
			return buf, d, stats, fmt.Errorf("trace: tsbc: bad tail magic %q", tail[:])
		}
		if total != br.total {
			return buf, d, stats, fmt.Errorf("trace: tsbc: end frame declares %d records, read %d", total, br.total)
		}
		br.done = true
		return buf, d, stats, io.EOF
	}
	if frameLen > tsbcMaxFrameBytes {
		return buf, d, stats, fmt.Errorf("trace: tsbc: block frame of %d bytes exceeds limit %d", frameLen, tsbcMaxFrameBytes)
	}
	// Grow the frame buffer only as bytes actually arrive: a corrupt
	// length cannot allocate more than the input backs.
	frame, err = readFrame(br.r, buf, int(frameLen))
	if err != nil {
		return frame, d, stats, err
	}
	if len(frame) < 4 {
		return frame, d, stats, fmt.Errorf("trace: tsbc: block frame of %d bytes has no checksum", len(frame))
	}
	payload, sum := frame[:len(frame)-4], binary.LittleEndian.Uint32(frame[len(frame)-4:])
	if got := crc32.Checksum(payload, tsbcCRC); got != sum {
		return frame, d, stats, fmt.Errorf("trace: tsbc: block checksum mismatch (got %08x, want %08x)", got, sum)
	}
	d = frameDecoder{buf: payload}
	if stats, err = d.stats(); err != nil {
		return frame, d, stats, err
	}
	br.total += uint64(stats.Count)
	return frame, d, stats, nil
}

// readFrame fills a reused buffer with exactly n bytes from r, growing
// it in bounded steps so a lying length prefix cannot over-allocate.
func readFrame(r io.Reader, buf []byte, n int) ([]byte, error) {
	const step = 1 << 20
	buf = buf[:0]
	for len(buf) < n {
		chunk := n - len(buf)
		if chunk > step {
			chunk = step
		}
		at := len(buf)
		buf = append(buf, make([]byte, chunk)...)
		if _, err := io.ReadFull(r, buf[at:]); err != nil {
			return buf, fmt.Errorf("trace: tsbc: truncated block (want %d bytes): %w", n, err)
		}
	}
	return buf, nil
}

// frameDecoder decodes a block frame from its in-memory payload.
type frameDecoder struct {
	buf []byte
	pos int
}

func (d *frameDecoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.pos:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: tsbc: malformed varint at frame offset %d", d.pos)
	}
	d.pos += n
	return v, nil
}

func (d *frameDecoder) varint() (int64, error) {
	u, err := d.uvarint()
	return unzigzag(u), err
}

// stats decodes the block statistics at the head of the frame.
func (d *frameDecoder) stats() (BlockStats, error) {
	var s BlockStats
	count, err := d.uvarint()
	if err != nil {
		return s, err
	}
	if count == 0 || count > tsbcMaxBlockRecords {
		return s, fmt.Errorf("trace: tsbc: block record count %d outside [1, %d]", count, tsbcMaxBlockRecords)
	}
	s.Count = int(count)
	read := func(dst *time.Time) error {
		sec, err := d.varint()
		if err != nil {
			return err
		}
		nsec, err := d.uvarint()
		if err != nil {
			return err
		}
		if nsec >= 1e9 {
			return fmt.Errorf("trace: tsbc: block stat nanoseconds %d out of range", nsec)
		}
		*dst = time.Unix(sec, int64(nsec)).UTC()
		return nil
	}
	if err := read(&s.MinTime); err != nil {
		return s, err
	}
	if err := read(&s.MaxTime); err != nil {
		return s, err
	}
	minRec, err := d.varint()
	if err != nil {
		return s, err
	}
	maxRec, err := d.varint()
	if err != nil {
		return s, err
	}
	s.MinRecovery, s.MaxRecovery = time.Duration(minRec), time.Duration(maxRec)
	if s.Categories, err = d.uvarint(); err != nil {
		return s, err
	}
	// Every record takes at least one byte in each of the eight columns,
	// so a count the rest of the frame cannot hold is corruption, rejected
	// before any reader sizes arenas or records by it.
	if rest := len(d.buf) - d.pos; s.Count > rest/8 {
		return s, fmt.Errorf("trace: tsbc: block claims %d records, more than its %d remaining bytes can hold", s.Count, rest)
	}
	return s, nil
}

// columns decodes the node dictionary and every column arena into the
// reused block.
func (d *frameDecoder) columns(b *Block) error {
	count := b.stats.Count
	var err error
	if b.nodes, err = d.dict(b.nodes, count); err != nil {
		return fmt.Errorf("trace: tsbc: node dictionary: %w", err)
	}

	b.ids = grow(b.ids, count)
	var prevID int64
	for i := range b.ids {
		delta, err := d.varint()
		if err != nil {
			return err
		}
		prevID += delta
		id := int(prevID)
		if int64(id) != prevID {
			return fmt.Errorf("trace: tsbc: record ID %d does not fit in int", prevID)
		}
		b.ids[i] = id
	}
	b.timeSec = grow(b.timeSec, count)
	var prevSec int64
	for i := range b.timeSec {
		delta, err := d.varint()
		if err != nil {
			return err
		}
		prevSec += delta
		b.timeSec[i] = prevSec
	}
	b.timeNsec = grow(b.timeNsec, count)
	for i := range b.timeNsec {
		v, err := d.uvarint()
		if err != nil {
			return err
		}
		if v >= 1e9 {
			return fmt.Errorf("trace: tsbc: record nanoseconds %d out of range", v)
		}
		b.timeNsec[i] = int32(v)
	}
	b.recovery = grow(b.recovery, count)
	for i := range b.recovery {
		v, err := d.varint()
		if err != nil {
			return err
		}
		b.recovery[i] = time.Duration(v)
	}
	b.cats = grow(b.cats, count)
	for i := range b.cats {
		v, err := d.uvarint()
		if err != nil {
			return err
		}
		if v >= uint64(len(b.catDict)) {
			return fmt.Errorf("trace: tsbc: category index %d outside dictionary of %d", v, len(b.catDict))
		}
		b.cats[i] = b.catDict[v]
	}
	b.nodeIdx = grow(b.nodeIdx, count)
	for i := range b.nodeIdx {
		v, err := d.uvarint()
		if err != nil {
			return err
		}
		if v > uint64(len(b.nodes)) {
			return fmt.Errorf("trace: tsbc: node index %d outside dictionary of %d", v, len(b.nodes))
		}
		b.nodeIdx[i] = int32(v)
	}
	b.gpuOff = grow(b.gpuOff, count+1)
	b.gpuArena = b.gpuArena[:0]
	b.gpuOff[0] = 0
	for i := 0; i < count; i++ {
		n, err := d.uvarint()
		if err != nil {
			return err
		}
		if n > tsbcMaxGPUs {
			return fmt.Errorf("trace: tsbc: record lists %d GPU slots, limit %d", n, tsbcMaxGPUs)
		}
		for j := uint64(0); j < n; j++ {
			slot, err := d.varint()
			if err != nil {
				return err
			}
			b.gpuArena = append(b.gpuArena, int(slot))
		}
		b.gpuOff[i+1] = int32(len(b.gpuArena))
	}
	b.causes = grow(b.causes, count)
	for i := range b.causes {
		v, err := d.uvarint()
		if err != nil {
			return err
		}
		if v >= uint64(len(b.causeDict)) {
			return fmt.Errorf("trace: tsbc: cause index %d outside dictionary of %d", v, len(b.causeDict)-1)
		}
		b.causes[i] = b.causeDict[v]
	}
	if d.pos != len(d.buf) {
		return fmt.Errorf("trace: tsbc: %d trailing bytes after block columns", len(d.buf)-d.pos)
	}
	return nil
}

// dict decodes a per-block dictionary with at most maxEntries entries
// into dst's storage. The entries are substrings of one string holding
// the dictionary's bytes, so a block allocates once for them however
// many there are, and they stay valid after dst is reused.
func (d *frameDecoder) dict(dst []string, maxEntries int) ([]string, error) {
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(maxEntries) {
		return nil, fmt.Errorf("%d entries exceeds block record count %d", n, maxEntries)
	}
	start := d.pos
	for i := uint64(0); i < n; i++ {
		l, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if l > uint64(len(d.buf)-d.pos) {
			return nil, fmt.Errorf("entry %d length %d exceeds remaining frame", i, l)
		}
		d.pos += int(l)
	}
	// Every entry has a length prefix, so the checked bytes hold exactly
	// n of them.
	all, dst := string(d.buf[start:d.pos]), slices.Grow(dst[:0], int(n))
	for at := 0; at < len(all); {
		l, w := binary.Uvarint(d.buf[start+at:])
		at += w
		dst = append(dst, all[at:at+int(l)])
		at += int(l)
	}
	return dst, nil
}

// grow returns s resized to n, reusing capacity.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// ReadTSBC fully decodes a .tsbc trace into a validated, time-sorted
// log — the batch entry point the analyze pipeline uses; streaming
// consumers should drive a BlockReader instead. Matches the other
// readers' contract: empty traces are an error.
func ReadTSBC(r io.Reader) (*failures.Log, error) {
	return readTSBC(r, parallel.DefaultParallelism())
}

// tsbcFrame is one block frame ReadTSBC has read and checked: a decoder
// positioned at its node dictionary, its statistics, and the index of
// its first record in the log.
type tsbcFrame struct {
	d     frameDecoder
	stats BlockStats
	at    int
}

// readTSBC is ReadTSBC with the decode width as a parameter. It reads
// every frame first (the file's own bytes), checking each checksum and
// decoding each frame's statistics, whose record counts are bounded by
// the frame's bytes. Then it allocates the records once, at their exact
// total, and decodes the blocks in parallel, each worker filling the
// disjoint windows of its own contiguous run of blocks. The error for a
// corrupt file is the one BlockReader meets first: a column error of the
// lowest failing block, else the framing error that stopped the read.
func readTSBC(r io.Reader, width int) (*failures.Log, error) {
	defer obs.StartSpan("trace/read-tsbc").End()
	br, err := NewBlockReader(r)
	if err != nil {
		return nil, err
	}
	var (
		frames  []tsbcFrame
		n       int
		framing error
	)
	for {
		_, d, stats, err := br.nextFrame(nil)
		if err == io.EOF {
			break
		}
		if err != nil {
			framing = err
			break
		}
		frames = append(frames, tsbcFrame{d: d, stats: stats, at: n})
		n += stats.Count
	}
	// After a framing error the blocks before it are still decoded, for
	// their column errors rank first, but into no records.
	var records []failures.Failure
	if framing == nil {
		records = make([]failures.Failure, n)
	}
	shards := parallel.Shards(len(frames), width)
	err = parallel.ForEach(context.Background(), width, shards, func(_ context.Context, _ int, sh parallel.Range) error {
		blk := br.block // the dictionaries, with arenas of its own
		for _, f := range frames[sh.Lo:sh.Hi] {
			blk.stats = f.stats
			if err := f.d.columns(&blk); err != nil {
				return err
			}
			if records != nil {
				blk.copyRecords(records[f.at : f.at+f.stats.Count])
				obs.Add("trace/tsbc_rows", int64(f.stats.Count))
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if framing != nil {
		return nil, framing
	}
	if n == 0 {
		return nil, fmt.Errorf("trace: tsbc contains no records")
	}
	// The writer enforces (time, ID) order and the decoder emits UTC
	// instants, so the sorted constructor applies: one validation pass,
	// no copy, no re-sort.
	log, err := failures.NewLogSorted(br.System(), records)
	if err != nil {
		return nil, fmt.Errorf("trace: validating tsbc log: %w", err)
	}
	return log, nil
}

// TSBCStats summarizes a .tsbc trace from its header and block
// statistics alone: no column is decoded, so skimming a file costs
// O(blocks) decode work regardless of record count. This is how the
// streaming digest finds the log's time window (for the default period)
// before its single full pass.
type TSBCStats struct {
	System     failures.System
	Records    int
	Blocks     int
	Start, End time.Time
}

// ReadTSBCStats skims r (a complete .tsbc stream), verifying block
// checksums and the end frame, and returns the trace summary.
func ReadTSBCStats(r io.Reader) (TSBCStats, error) {
	defer obs.StartSpan("trace/scan-tsbc").End()
	br, err := NewBlockReader(r)
	if err != nil {
		return TSBCStats{}, err
	}
	br.statsOnly = true
	out := TSBCStats{System: br.System()}
	for {
		// statsOnly makes next skip column decode for every block, so
		// the loop costs O(blocks) regardless of record count.
		if _, _, err := br.next(); err == io.EOF {
			break
		} else if err != nil {
			return TSBCStats{}, err
		}
		stats := br.block.stats
		if out.Blocks == 0 {
			out.Start = stats.MinTime
		}
		out.End = stats.MaxTime
		out.Blocks++
		out.Records += stats.Count
	}
	return out, nil
}
