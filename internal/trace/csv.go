// Package trace serializes failure logs to and from portable formats (CSV
// and NDJSON) so analyses can run over externally supplied logs — the real
// Tsubame logs, were they available, would be converted to this schema.
package trace

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/failures"
	"repro/internal/obs"
)

// csvHeader is the canonical column order of the CSV schema.
var csvHeader = []string{"id", "system", "time", "recovery_hours", "category", "node", "gpus", "software_cause"}

// recoveryUnit is the canonical resolution of the recovery_hours column:
// 0.0001 h = 360 ms. Both WriteCSV and ReadCSV round to this grid, so a
// Write -> Read -> Write cycle is byte-identical — previously the read
// side computed hours*time.Hour in floating point and landed off-grid,
// so every round trip drifted the stored duration.
const recoveryUnit = 360 * time.Millisecond

// canonicalRecovery snaps a duration to the recovery grid.
func canonicalRecovery(d time.Duration) time.Duration {
	return time.Duration(math.Round(float64(d)/float64(recoveryUnit))) * recoveryUnit
}

// WriteCSV writes the log to w in the canonical CSV schema, one row per
// record plus a header row. Times are RFC 3339 in UTC; recovery is decimal
// hours; GPU slots are semicolon-separated.
//
// Rows are rendered by the append-based kernel in encode.go —
// byte-identical to the encoding/csv path it replaced (quoting rules
// and all; the differential tests assert so) but with zero per-record
// allocations: ints, times, and hours append straight into a pooled
// line buffer instead of materializing a []string row.
func WriteCSV(w io.Writer, log *failures.Log) error {
	defer obs.StartSpan("trace/write-csv").End()
	bw := getWriter(w)
	defer putWriter(bw)
	if _, err := bw.WriteString("id,system,time,recovery_hours,category,node,gpus,software_cause\n"); err != nil {
		return fmt.Errorf("trace: writing CSV header: %w", err)
	}
	line := getLine()
	defer putLine(line)
	b := (*line)[:0]
	for i, n := 0, log.Len(); i < n; i++ {
		r := log.At(i)
		b = strconv.AppendInt(b[:0], int64(r.ID), 10)
		b = append(b, ',')
		b = appendCSVField(b, r.System.String())
		b = append(b, ',')
		b = r.Time.UTC().AppendFormat(b, time.RFC3339) // never needs quoting
		b = append(b, ',')
		b = appendRecovery(b, r.Recovery)
		b = append(b, ',')
		b = appendCSVField(b, r.Category.String())
		b = append(b, ',')
		b = appendCSVField(b, r.Node)
		b = append(b, ',')
		for j, g := range r.GPUs { // digits and semicolons: never quoted
			if j > 0 {
				b = append(b, ';')
			}
			b = strconv.AppendInt(b, int64(g), 10)
		}
		b = append(b, ',')
		b = appendCSVField(b, r.SoftwareCause.String())
		b = append(b, '\n')
		if _, err := bw.Write(b); err != nil {
			return fmt.Errorf("trace: writing record %d: %w", r.ID, err)
		}
	}
	*line = b
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flushing CSV: %w", err)
	}
	return nil
}

// ReadCSV parses a failure log in the canonical CSV schema. All records
// must belong to the same system; the log is validated and time-sorted.
//
// The reader is tolerant of the artifacts spreadsheet exports introduce:
// a leading UTF-8 byte-order mark, CRLF line endings, and whitespace
// padding around field values.
//
// The input is slurped into a pooled buffer and the record slice is
// pre-sized from its line count (bounded by its size, see presize), so
// a load performs one input read and one record-slice allocation,
// which the log keeps (failures.NewLogOwned), regardless of log size.
func ReadCSV(r io.Reader) (*failures.Log, error) {
	defer obs.StartSpan("trace/read-csv").End()
	buf, err := slurp(r)
	if err != nil {
		return nil, err
	}
	defer releaseBuf(buf)
	data := bytes.TrimPrefix(buf.Bytes(), utf8BOM)

	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = len(csvHeader)
	// Row slices are reused across Read calls; parseRow only keeps the
	// field strings, which encoding/csv allocates fresh per row.
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading CSV header: %w", err)
	}
	for i, col := range csvHeader {
		if strings.TrimSpace(header[i]) != col {
			return nil, fmt.Errorf("trace: CSV column %d is %q, want %q", i, header[i], col)
		}
	}
	lines := countLines(data)
	if lines > 0 {
		lines-- // header
	}
	obs.Add("trace/csv_rows", int64(lines))
	records := make([]failures.Failure, 0, presize(lines, len(data)))
	var system failures.System
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: reading CSV line %d: %w", line, err)
		}
		rec, err := parseRow(row)
		if err != nil {
			return nil, fmt.Errorf("trace: CSV line %d: %w", line, err)
		}
		if system == 0 {
			system = rec.System
		}
		records = append(records, rec)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("trace: CSV contains no records")
	}
	log, err := failures.NewLogOwned(system, records)
	if err != nil {
		return nil, fmt.Errorf("trace: validating CSV log: %w", err)
	}
	return log, nil
}

func parseRow(row []string) (failures.Failure, error) {
	for i, field := range row {
		row[i] = strings.TrimSpace(field)
	}
	id, err := strconv.Atoi(row[0])
	if err != nil {
		return failures.Failure{}, fmt.Errorf("bad id %q: %w", row[0], err)
	}
	system, err := failures.ParseSystem(row[1])
	if err != nil {
		return failures.Failure{}, err
	}
	t, err := time.Parse(time.RFC3339, row[2])
	if err != nil {
		return failures.Failure{}, fmt.Errorf("bad time %q: %w", row[2], err)
	}
	hours, err := strconv.ParseFloat(row[3], 64)
	if err != nil {
		return failures.Failure{}, fmt.Errorf("bad recovery_hours %q: %w", row[3], err)
	}
	if hours < 0 {
		return failures.Failure{}, fmt.Errorf("negative recovery_hours %v", hours)
	}
	grid := math.Round(hours * 1e4)
	if grid > float64(math.MaxInt64/int64(recoveryUnit)) {
		return failures.Failure{}, fmt.Errorf("recovery_hours %v overflows the duration range", hours)
	}
	category, err := failures.ParseCategory(system, row[4])
	if err != nil {
		return failures.Failure{}, err
	}
	gpus, err := splitGPUs(row[6])
	if err != nil {
		return failures.Failure{}, err
	}
	cause, err := failures.ParseSoftwareCause(row[7])
	if err != nil {
		return failures.Failure{}, err
	}
	return failures.Failure{
		ID:            id,
		System:        system,
		Time:          t,
		Recovery:      time.Duration(grid) * recoveryUnit,
		Category:      category,
		Node:          row[5],
		GPUs:          gpus,
		SoftwareCause: cause,
	}, nil
}

func splitGPUs(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ";")
	gpus := make([]int, len(parts))
	for i, p := range parts {
		g, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("bad gpus field %q: %w", s, err)
		}
		gpus[i] = g
	}
	return gpus, nil
}
