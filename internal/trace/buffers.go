package trace

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/parallel"
)

// readPool recycles the slurp buffers of the readers. Logs at the scale
// this package handles (hundreds of thousands of rows) make the read
// buffer by far the largest transient allocation of a load; pooling it
// means a process ingesting many traces (the CLI's compare path, test
// suites, simulation sweeps) allocates it once per concurrent reader
// rather than once per call.
var readPool = sync.Pool{
	New: func() any { return new(bytes.Buffer) },
}

// slurp reads all of r into a pooled buffer. The caller must hand the
// buffer back via releaseBuf once every byte parsed from it has been
// copied out (encoding/csv re-allocates field strings per row).
func slurp(r io.Reader) (*bytes.Buffer, error) {
	buf, ok := readPool.Get().(*bytes.Buffer)
	if !ok {
		buf = new(bytes.Buffer) // unreachable: the pool's New is the only producer
	}
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		releaseBuf(buf)
		return nil, fmt.Errorf("trace: reading input: %w", err)
	}
	return buf, nil
}

// releaseBuf returns a slurp buffer to the pool. Buffers that grew
// beyond maxPooledBuf are dropped so one huge trace cannot pin its
// worth of memory for the life of the process.
func releaseBuf(buf *bytes.Buffer) {
	const maxPooledBuf = 16 << 20
	if buf.Cap() <= maxPooledBuf {
		readPool.Put(buf)
	}
}

// countLines cheaply estimates the record count of a slurped input: the
// number of newlines, plus one for a final unterminated line. Readers
// use it to pre-size their record slices, replacing the append growth
// ladder (log2(n) re-copies of the record slice) with one allocation.
func countLines(data []byte) int {
	n := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		n++
	}
	return n
}

// minRecordBytes bounds a text record's size from below: a valid record
// holds at least a 20-byte RFC 3339 time, a system and a category name,
// and the delimiters between them, so no valid CSV row or NDJSON line is
// shorter.
const minRecordBytes = 32

// presize is the record-slice pre-size for size bytes of input holding
// lines lines. The byte bound keeps input without records — a file of
// blank lines — from reserving a record per newline, many times the
// input's own size.
func presize(lines, size int) int {
	return min(lines, size/minRecordBytes+1)
}

// Chunk sizes of chunkReader: small inputs, tests and fuzzing pay for a
// small first buffer, and large inputs settle at a few MiB per chunk.
const (
	minChunk = 64 << 10
	maxChunk = 4 << 20
)

// chunkReader cuts a stream into newline-aligned chunks. Each chunk ends
// at the last '\n' its buffer holds and the partial line after it is
// carried into the next chunk; only the final chunk may end without a
// newline. Chunk sizes start at minChunk (or the ceiling, if smaller) and
// double at each grow call up to the ceiling. A line longer than the
// current size grows its buffer until the line fits, so memory stays
// bounded by the input.
type chunkReader struct {
	r       io.Reader
	size    int
	ceiling int
	carry   []byte
	eof     bool
}

func newChunkReader(r io.Reader, ceiling int) *chunkReader {
	ceiling = max(ceiling, 1)
	return &chunkReader{r: r, size: min(minChunk, ceiling), ceiling: ceiling}
}

// next reads the next chunk into buf's storage, growing it as needed,
// and returns it; nil means the input is exhausted.
func (c *chunkReader) next(buf []byte) ([]byte, error) {
	buf = append(buf[:0], c.carry...)
	c.carry = c.carry[:0]
	size := c.size
	for !c.eof {
		for size <= len(buf) {
			size *= 2
		}
		if cap(buf) < size {
			// As the arenas do, reserve for the doublings to come.
			buf = slices.Grow(buf, max(size, min(4*size, c.ceiling))-len(buf))
		}
		n, err := io.ReadFull(c.r, buf[len(buf):size])
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			c.eof = true
		case err != nil:
			return nil, fmt.Errorf("trace: reading input: %w", err)
		default:
			if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
				c.carry = append(c.carry, buf[i+1:]...)
				return buf[:i+1], nil
			}
		}
	}
	if len(buf) == 0 {
		return nil, nil
	}
	return buf, nil
}

// grow doubles the size of the chunks to come, up to the ceiling.
func (c *chunkReader) grow() { c.size = min(2*c.size, c.ceiling) }

// rest returns the given chunks, the carried partial line and the unread
// input as one slice.
func (c *chunkReader) rest(chunks [][]byte) ([]byte, error) {
	var buf bytes.Buffer
	for _, chunk := range chunks {
		buf.Write(chunk)
	}
	buf.Write(c.carry)
	if !c.eof {
		if _, err := buf.ReadFrom(c.r); err != nil {
			return nil, fmt.Errorf("trace: reading input: %w", err)
		}
	}
	return buf.Bytes(), nil
}

// utf8BOM is the byte-order mark Excel and PowerShell prepend to CSV
// exports.
var utf8BOM = []byte{0xEF, 0xBB, 0xBF}

// writerPool recycles the buffered writers of the write paths, so a
// process serializing many traces (the generator's per-seed outputs)
// reuses one 64 KiB staging buffer per concurrent writer.
var writerPool = sync.Pool{
	New: func() any { return bufio.NewWriterSize(io.Discard, 64<<10) },
}

// getWriter borrows a pooled buffered writer aimed at w.
func getWriter(w io.Writer) *bufio.Writer {
	bw, ok := writerPool.Get().(*bufio.Writer)
	if !ok {
		bw = bufio.NewWriterSize(io.Discard, 64<<10) // unreachable: pool New is the only producer
	}
	bw.Reset(w)
	return bw
}

// putWriter returns a buffered writer to the pool. The caller must have
// flushed it; re-aiming at io.Discard drops the reference to the
// caller's writer (and any unflushed bytes from an errored write).
func putWriter(bw *bufio.Writer) {
	bw.Reset(io.Discard)
	writerPool.Put(bw)
}

// linePool recycles the per-record scratch slices the append-based
// encoders build each output line in.
var linePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}

// getLine borrows a pooled scratch slice (length 0).
func getLine() *[]byte {
	line, ok := linePool.Get().(*[]byte)
	if !ok {
		b := make([]byte, 0, 1024) // unreachable: pool New is the only producer
		line = &b
	}
	return line
}

// putLine returns a scratch slice to the pool, dropping ones that grew
// past a single pathological record's worth of bytes.
func putLine(b *[]byte) {
	const maxPooledLine = 1 << 20
	if cap(*b) <= maxPooledLine {
		linePool.Put(b)
	}
}

// rangePool recycles the per-worker output buffers of writeOrdered.
var rangePool = sync.Pool{
	New: func() any { return new([]byte) },
}

// writeOrdered encodes units [0, n) on up to width workers and writes
// their bytes to w in unit order. It works in rounds. A round cuts the
// next units into up to width ranges of per units, and encode(s, r, dst)
// appends range s's bytes to dst, a pooled buffer of worker s alone.
// The round's buffers are written in order before the next round, so
// memory holds at most width ranges of output, whatever n is. The error
// is the first in unit order: encode's for the lowest failing range, or
// a write error prefixed with name(r). A round of one range runs on the
// calling goroutine.
func writeOrdered(w io.Writer, n, width, per int, encode func(worker int, r parallel.Range, dst []byte) ([]byte, error), name func(r parallel.Range) string) error {
	width = max(width, 1)
	bufs := make([]*[]byte, 0, min(width, (n+per-1)/per))
	defer func() {
		const maxPooledRange = 16 << 20
		for _, b := range bufs {
			if cap(*b) <= maxPooledRange {
				rangePool.Put(b)
			}
		}
	}()
	ranges := make([]parallel.Range, 0, cap(bufs))
	encodeRange := func(_ context.Context, s int, r parallel.Range) error {
		b, err := encode(s, r, (*bufs[s])[:0])
		*bufs[s] = b
		return err
	}
	for lo := 0; lo < n; {
		ranges = ranges[:0]
		for len(ranges) < width && lo < n {
			hi := min(lo+per, n)
			ranges = append(ranges, parallel.Range{Lo: lo, Hi: hi})
			lo = hi
		}
		for len(bufs) < len(ranges) {
			b, ok := rangePool.Get().(*[]byte)
			if !ok {
				b = new([]byte) // unreachable: the pool's New is the only producer
			}
			bufs = append(bufs, b)
		}
		var err error
		if len(ranges) == 1 {
			err = encodeRange(context.Background(), 0, ranges[0])
		} else {
			err = parallel.ForEach(context.Background(), width, ranges, encodeRange)
		}
		if err != nil {
			return err
		}
		for s, r := range ranges {
			if _, err := w.Write(*bufs[s]); err != nil {
				return fmt.Errorf("%s: %w", name(r), err)
			}
		}
	}
	return nil
}
