// Package testutil holds metamorphic-testing helpers shared by the test
// suites: canonical log fixtures, deterministic record permutation, and
// deep-equality assertions. Metamorphic tests check relations that must
// hold between transformed inputs — analysis invariant under record
// permutation, logs surviving merge/split and serialization round-trips —
// which catches order- and representation-dependence that example-based
// tests miss.
package testutil

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/failures"
	"repro/internal/synth"
)

// MustGenerate returns the calibrated synthetic log of a system, failing
// the test on error. Generation is pure in (system, seed), so fixtures
// are reproducible across packages.
func MustGenerate(tb testing.TB, sys failures.System, seed int64) *failures.Log {
	tb.Helper()
	log, err := synth.GenerateSystem(sys, seed)
	if err != nil {
		tb.Fatalf("testutil: GenerateSystem(%v, %d): %v", sys, seed, err)
	}
	return log
}

// Permuted rebuilds a log from a deterministic shuffle of its records.
// NewLog re-canonicalizes ordering, so the result must be observationally
// identical to the original — the premise every permutation-invariance
// test checks.
func Permuted(tb testing.TB, log *failures.Log, seed int64) *failures.Log {
	tb.Helper()
	records := log.Records()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(records), func(i, j int) {
		records[i], records[j] = records[j], records[i]
	})
	out, err := failures.NewLog(log.System(), records)
	if err != nil {
		tb.Fatalf("testutil: NewLog on permuted records: %v", err)
	}
	return out
}

// RequireEqualLogs fails unless the two logs hold identical record
// sequences.
func RequireEqualLogs(tb testing.TB, want, got *failures.Log, context string) {
	tb.Helper()
	if want.System() != got.System() {
		tb.Fatalf("%s: system %v != %v", context, got.System(), want.System())
	}
	w, g := want.Records(), got.Records()
	if len(w) != len(g) {
		tb.Fatalf("%s: %d records, want %d", context, len(g), len(w))
	}
	for i := range w {
		if !reflect.DeepEqual(w[i], g[i]) {
			tb.Fatalf("%s: record %d differs:\n got %+v\nwant %+v", context, i, g[i], w[i])
		}
	}
}

// RequireDeepEqual fails unless got and want are deeply equal; the
// assertion behind "same input, same analysis" metamorphic relations.
func RequireDeepEqual(tb testing.TB, want, got any, context string) {
	tb.Helper()
	if !reflect.DeepEqual(want, got) {
		tb.Fatalf("%s: results differ:\n got %+v\nwant %+v", context, got, want)
	}
}
