package trace

import (
	"bytes"
	"fmt"
	"time"

	"testing"

	"repro/internal/failures"
	"repro/internal/testutil"
)

// This file ports the wire-format round-trip properties onto the
// shrinking harness: instead of fixed calibrated fixtures, the log is
// grown from the harness's choice sequence, so a failing round trip
// comes back as a minimal log — typically one record with one
// interesting field — rather than a 2000-record generator dump.

// genLog draws a small arbitrary-but-valid failure log. Every dimension
// shrinks toward the trivial log: zero records, epoch-adjacent times,
// zero recoveries, no node/GPU/cause annotations.
func genLog(g *testutil.Gen) (*failures.Log, error) { return genLogOf(g, 7) }

// genLogOf is genLog with up to maxRecords records.
func genLogOf(g *testutil.Gen, maxRecords int) (*failures.Log, error) {
	sys := failures.Tsubame2
	if g.Bool() {
		sys = failures.Tsubame3
	}
	cats := failures.Categories(sys)
	causes := failures.SoftwareCauses()
	base := time.Date(2016, time.January, 1, 0, 0, 0, 0, time.UTC)
	// The readers reject empty streams by contract (the shrinker found
	// this immediately), so logs have at least one record.
	n := 1 + g.Intn(maxRecords)
	records := make([]failures.Failure, 0, n)
	for i := 0; i < n; i++ {
		f := failures.Failure{
			ID:     i + 1,
			System: sys,
			// Nanosecond-granular offsets within a year exercise the
			// formats' time precision.
			Time:     base.Add(time.Duration(g.Uint64(uint64(365 * 24 * time.Hour)))),
			Recovery: time.Duration(g.Uint64(uint64(30 * 24 * time.Hour))),
			Category: cats[g.Intn(len(cats))],
		}
		if g.Bool() {
			f.Node = fmt.Sprintf("r%dn%d", g.Intn(40), g.Intn(30))
		}
		// A bitmask over the node's slots yields a unique, ascending,
		// possibly empty GPU set.
		mask := g.Intn(1 << failures.GPUsPerNode(sys))
		for slot := 0; mask != 0; slot, mask = slot+1, mask>>1 {
			if mask&1 != 0 {
				f.GPUs = append(f.GPUs, slot)
			}
		}
		if f.Category.Software() && g.Bool() {
			f.SoftwareCause = causes[g.Intn(len(causes))]
		}
		records = append(records, f)
	}
	return failures.NewLog(sys, records)
}

// requireSameLog is RequireEqualLogs as a property error.
func requireSameLog(want, got *failures.Log, context string) error {
	if want.System() != got.System() {
		return fmt.Errorf("%s: system %v != %v", context, got.System(), want.System())
	}
	w, g := want.Records(), got.Records()
	if len(w) != len(g) {
		return fmt.Errorf("%s: %d records, want %d", context, len(g), len(w))
	}
	for i := range w {
		if fmt.Sprintf("%+v", w[i]) != fmt.Sprintf("%+v", g[i]) {
			return fmt.Errorf("%s: record %d differs:\n got %+v\nwant %+v", context, i, g[i], w[i])
		}
	}
	return nil
}

// TestPropertyNDJSONRoundTrip checks decode(encode(log)) == log for
// arbitrary valid logs on the lossless NDJSON format, with shrinking.
func TestPropertyNDJSONRoundTrip(t *testing.T) {
	testutil.Check(t, 150, func(g *testutil.Gen) error {
		log, err := genLog(g)
		if err != nil {
			return fmt.Errorf("generator produced invalid log: %w", err)
		}
		var buf bytes.Buffer
		if err := WriteNDJSON(&buf, log); err != nil {
			return fmt.Errorf("WriteNDJSON: %w", err)
		}
		decoded, err := ReadNDJSON(&buf)
		if err != nil {
			return fmt.Errorf("ReadNDJSON: %w", err)
		}
		return requireSameLog(log, decoded, "NDJSON round trip")
	})
}

// TestPropertyTSBCRoundTrip checks the columnar .tsbc format is equally
// lossless, and its re-encoding byte-stable, for arbitrary valid logs.
func TestPropertyTSBCRoundTrip(t *testing.T) {
	testutil.Check(t, 150, func(g *testutil.Gen) error {
		log, err := genLog(g)
		if err != nil {
			return fmt.Errorf("generator produced invalid log: %w", err)
		}
		var buf bytes.Buffer
		if err := WriteTSBC(&buf, log); err != nil {
			return fmt.Errorf("WriteTSBC: %w", err)
		}
		first := append([]byte(nil), buf.Bytes()...)
		decoded, err := ReadTSBC(&buf)
		if err != nil {
			return fmt.Errorf("ReadTSBC: %w", err)
		}
		if err := requireSameLog(log, decoded, ".tsbc round trip"); err != nil {
			return err
		}
		var again bytes.Buffer
		if err := WriteTSBC(&again, decoded); err != nil {
			return fmt.Errorf("re-encode: %w", err)
		}
		if !bytes.Equal(first, again.Bytes()) {
			return fmt.Errorf(".tsbc re-encoding of a decoded log is not byte-stable")
		}
		return nil
	})
}
