// Package cli holds the small shared helpers of the command-line tools:
// system-name parsing, log loading (synthetic or from file, with format
// detection), and output-file plumbing. Keeping them here makes the
// behaviour uniform across tools and testable.
package cli

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"repro/internal/failures"
	"repro/internal/synth"
	"repro/internal/trace"
)

// ParseSystem accepts the user-facing spellings of the two systems.
func ParseSystem(name string) (failures.System, error) {
	switch strings.ToLower(name) {
	case "t2", "tsubame2", "tsubame-2":
		return failures.Tsubame2, nil
	case "t3", "tsubame3", "tsubame-3":
		return failures.Tsubame3, nil
	default:
		return 0, fmt.Errorf("unknown system %q (want t2 or t3)", name)
	}
}

// ErrUnknownFormat is returned when format auto-detection cannot
// recognize the input as any supported trace format. Tools treat it as
// a usage error (exit 2, via FatalLoad): the fix is the user naming a
// format, not a retry.
var ErrUnknownFormat = errors.New("cli: unrecognizable input format (want csv, ndjson, or tsbc)")

// DetectFormat picks the serialization format: an explicit value wins,
// otherwise ("" or "auto") a recognized filename extension decides, and
// anything else stays "auto" — readers then sniff the leading bytes
// (SniffFormat) instead of assuming CSV.
func DetectFormat(explicit, filename string) string {
	if explicit != "" && explicit != "auto" {
		return explicit
	}
	switch {
	case strings.HasSuffix(filename, ".ndjson") || strings.HasSuffix(filename, ".jsonl"):
		return "ndjson"
	case strings.HasSuffix(filename, ".tsbc"):
		return "tsbc"
	case strings.HasSuffix(filename, ".csv"):
		return "csv"
	default:
		return "auto"
	}
}

// sniffLen is how many leading bytes SniffFormat examines: enough for
// the .tsbc magic, a BOM, or the first CSV/NDJSON line prefix.
const sniffLen = 4096

// utf8BOM is tolerated (and skipped) by the text readers, so the
// sniffer skips it too.
var utf8BOM = []byte{0xEF, 0xBB, 0xBF}

// SniffFormat identifies a trace format from its leading bytes: the
// .tsbc magic, a leading '{' for NDJSON, or a comma in the first line
// for CSV (the header row always has one). Unrecognizable input —
// including empty input — is ErrUnknownFormat.
func SniffFormat(prefix []byte) (string, error) {
	p := bytes.TrimPrefix(prefix, utf8BOM)
	if bytes.HasPrefix(p, []byte("TSBC")) {
		return "tsbc", nil
	}
	p = bytes.TrimLeft(p, " \t\r\n")
	if len(p) == 0 {
		return "", ErrUnknownFormat
	}
	if p[0] == '{' {
		return "ndjson", nil
	}
	line := p
	if i := bytes.IndexByte(p, '\n'); i >= 0 {
		line = p[:i]
	}
	if bytes.IndexByte(line, ',') >= 0 {
		return "csv", nil
	}
	return "", ErrUnknownFormat
}

// ReadLog parses a failure log from r in the given format ("csv",
// "ndjson", "tsbc", or "auto"/"" to sniff the content).
func ReadLog(r io.Reader, format string) (*failures.Log, error) {
	log, _, err := ReadLogDetect(r, format)
	return log, err
}

// ReadLogDetect is ReadLog returning the format actually used — with
// "auto" that is the sniffed one, which tools like tsubame-anonymize
// reuse for symmetric output.
func ReadLogDetect(r io.Reader, format string) (*failures.Log, string, error) {
	if format == "" || format == "auto" {
		br := bufio.NewReader(r)
		prefix, err := br.Peek(sniffLen)
		if err != nil && err != io.EOF {
			return nil, "", fmt.Errorf("cli: sniffing format: %w", err)
		}
		format, err = SniffFormat(prefix)
		if err != nil {
			return nil, "", err
		}
		r = br
	}
	var log *failures.Log
	var err error
	switch format {
	case "csv":
		log, err = trace.ReadCSV(r)
	case "ndjson":
		log, err = trace.ReadNDJSON(r)
	case "tsbc":
		log, err = trace.ReadTSBC(r)
	default:
		return nil, "", fmt.Errorf("unknown format %q (want auto, csv, ndjson, or tsbc)", format)
	}
	return log, format, err
}

// WriteLog serializes a log to w in the given format. "auto" is a read-
// side concept; writers must name one.
func WriteLog(w io.Writer, log *failures.Log, format string) error {
	switch format {
	case "csv":
		return trace.WriteCSV(w, log)
	case "ndjson":
		return trace.WriteNDJSON(w, log)
	case "tsbc":
		return trace.WriteTSBC(w, log)
	default:
		return fmt.Errorf("unknown format %q (want csv, ndjson, or tsbc)", format)
	}
}

// FatalLoad prints a log-loading error via the standard logger (mains
// set the tool prefix) and exits: status 2 when the error is
// usage-class — unrecognizable input the user fixes by naming a format
// — and 1 for ordinary I/O or parse failures.
func FatalLoad(err error) {
	log.Print(err)
	if errors.Is(err, ErrUnknownFormat) {
		os.Exit(2)
	}
	os.Exit(1)
}

// LoadLog returns the log the tool should operate on: the file at path
// (format-detected) when given, otherwise the synthetic log of the named
// system.
func LoadLog(path, systemName string, seed int64) (*failures.Log, error) {
	if path == "" {
		sys, err := ParseSystem(systemName)
		if err != nil {
			return nil, err
		}
		return synth.GenerateSystem(sys, seed)
	}
	return LoadLogFile(path)
}

// openMaybeGzip wraps r with a gzip reader when the filename says so.
func openMaybeGzip(r io.Reader, filename string) (io.Reader, func() error, error) {
	if !strings.HasSuffix(filename, ".gz") {
		return r, func() error { return nil }, nil
	}
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, nil, fmt.Errorf("cli: opening gzip stream: %w", err)
	}
	return zr, zr.Close, nil
}

// LoadLogFile reads a log from a path with transparent gzip decompression
// (".gz" suffix) and format detection on the remaining extension.
func LoadLogFile(path string) (*failures.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	inner := strings.TrimSuffix(path, ".gz")
	r, closeFn, err := openMaybeGzip(f, path)
	if err != nil {
		return nil, err
	}
	log, err := ReadLog(r, DetectFormat("", inner))
	if cerr := closeFn(); err == nil && cerr != nil {
		return nil, cerr
	}
	return log, err
}

// OpenLog opens a trace file with transparent gzip decompression and
// format resolution (extension first, then content sniffing), returning
// a reader positioned at the first log byte, the resolved format, and a
// close function. Callers that want a streaming path — tsubame-digest
// feeding a .tsbc trace to a BlockReader instead of materializing the
// log — need the format before deciding how to read; everything else
// can keep using LoadLogFile.
func OpenLog(path string) (r io.Reader, format string, closeFn func() error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", nil, err
	}
	inner := strings.TrimSuffix(path, ".gz")
	zr, closeGzip, err := openMaybeGzip(f, path)
	if err != nil {
		f.Close()
		return nil, "", nil, err
	}
	closeFn = func() error {
		cerr := closeGzip()
		if ferr := f.Close(); cerr == nil {
			cerr = ferr
		}
		return cerr
	}
	format = DetectFormat("", inner)
	br := bufio.NewReader(zr)
	if format == "auto" {
		prefix, perr := br.Peek(sniffLen)
		if perr != nil && perr != io.EOF {
			closeFn()
			return nil, "", nil, fmt.Errorf("cli: sniffing format: %w", perr)
		}
		format, err = SniffFormat(prefix)
		if err != nil {
			closeFn()
			return nil, "", nil, err
		}
	}
	return br, format, closeFn, nil
}

// WriteLogFile writes a log to a path with transparent gzip compression
// (".gz" suffix) and format detection on the remaining extension.
func WriteLogFile(path string, log *failures.Log) error {
	format := DetectFormat("", strings.TrimSuffix(path, ".gz"))
	if format == "auto" {
		// Writers need a concrete format; unrecognized extensions keep
		// the historical CSV default.
		format = "csv"
	}
	return WriteLogFileFormat(path, log, format)
}

// WriteLogFileFormat is WriteLogFile with the format chosen by the
// caller — tsubame-convert resolves it from -format/-out before writing,
// and it may legitimately disagree with the extension.
func WriteLogFileFormat(path string, log *failures.Log, format string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var w io.Writer = f
	var zw *gzip.Writer
	if strings.HasSuffix(path, ".gz") {
		zw = gzip.NewWriter(f)
		w = zw
	}
	err = WriteLog(w, log, format)
	if zw != nil {
		if cerr := zw.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
