// Black-box tests of the columnar data plane: tsubame-convert's lossless
// round trip, the streaming .tsbc digest's byte parity with the batch
// path, and the exit-2 contract on unrecognizable input. TestConvertSmoke
// is the CI convert-smoke gate (make convert-smoke).
package e2e

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/synth"
)

// TestTSBCPipeline drives the README's two-step workflow through the
// columnar format: generate straight to .tsbc, then require the digest
// and the analysis battery to match the CSV path byte for byte.
func TestTSBCPipeline(t *testing.T) {
	dir := t.TempDir()
	tsbc := filepath.Join(dir, "t3.tsbc")
	csv := filepath.Join(dir, "t3.csv")
	for _, out := range []string{tsbc, csv} {
		if _, stderr, code := run(t, "tsubame-gen", "-system", "t3", "-seed", "7", "-out", out); code != 0 {
			t.Fatalf("gen %s exited %d: %s", out, code, stderr)
		}
	}

	batch, stderr, code := run(t, "tsubame-digest", "-in", csv, "-days", "30", "-quantiles")
	if code != 0 {
		t.Fatalf("batch digest exited %d: %s", code, stderr)
	}
	stream, stderr, code := run(t, "tsubame-digest", "-in", tsbc, "-days", "30", "-quantiles")
	if code != 0 {
		t.Fatalf("streaming digest exited %d: %s", code, stderr)
	}
	if stream != batch {
		t.Fatalf("streaming .tsbc digest diverged from batch CSV digest\nfirst divergence: %s",
			firstDiff(batch, stream))
	}
	if !strings.Contains(stream, "Recovery quantiles:") {
		t.Fatalf("-quantiles digest is missing the quantile line:\n%s", stream)
	}

	analyzeTSBC, stderr, code := run(t, "tsubame-analyze", "-in", tsbc, "-parallel", "1")
	if code != 0 {
		t.Fatalf("analyze .tsbc exited %d: %s", code, stderr)
	}
	analyzeCSV, stderr, code := run(t, "tsubame-analyze", "-in", csv, "-parallel", "1")
	if code != 0 {
		t.Fatalf("analyze csv exited %d: %s", code, stderr)
	}
	if analyzeTSBC != analyzeCSV {
		t.Fatalf("analyze over .tsbc diverged from csv\nfirst divergence: %s",
			firstDiff(analyzeCSV, analyzeTSBC))
	}
}

// TestReportInputFormats pins tsubame-report's one input path: the
// CSV, NDJSON and .tsbc forms of the same two logs print the same
// report. The NDJSON and .tsbc files are converted from the CSV ones, so
// they hold the CSV's recoveries, snapped to its grid.
func TestReportInputFormats(t *testing.T) {
	dir := t.TempDir()
	paths := map[string][2]string{}
	for _, format := range []string{"csv", "ndjson", "tsbc"} {
		paths[format] = [2]string{filepath.Join(dir, "t2."+format), filepath.Join(dir, "t3."+format)}
	}
	for i, system := range []string{"t2", "t3"} {
		if _, stderr, code := run(t, "tsubame-gen", "-system", system, "-seed", "42", "-out", paths["csv"][i]); code != 0 {
			t.Fatalf("gen %s exited %d: %s", system, code, stderr)
		}
		for _, format := range []string{"ndjson", "tsbc"} {
			if _, stderr, code := run(t, "tsubame-convert", "-in", paths["csv"][i], "-out", paths[format][i]); code != 0 {
				t.Fatalf("convert %s to %s exited %d: %s", system, format, code, stderr)
			}
		}
	}
	want, stderr, code := run(t, "tsubame-report", "-t2", paths["csv"][0], "-t3", paths["csv"][1])
	if code != 0 {
		t.Fatalf("report on csv exited %d: %s", code, stderr)
	}
	if !strings.HasPrefix(want, "Table I.") {
		t.Fatalf("report on csv lacks Table I:\n%s", want)
	}
	for _, format := range []string{"ndjson", "tsbc"} {
		got, stderr, code := run(t, "tsubame-report", "-t2", paths[format][0], "-t3", paths[format][1])
		if code != 0 {
			t.Fatalf("report on %s exited %d: %s", format, code, stderr)
		}
		if got != want {
			t.Errorf("report on %s differs from report on csv\nfirst divergence: %s", format, firstDiff(want, got))
		}
	}
}

// TestConvertRoundTrip pins losslessness on the committed seed-42 trace:
// NDJSON -> .tsbc -> NDJSON must reproduce the input byte for byte, and
// the format override (-format against a mismatched extension) must win.
func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tsbc := filepath.Join(dir, "trace.tsbc")
	back := filepath.Join(dir, "back.ndjson")
	if _, stderr, code := run(t, "tsubame-convert", "-in", "testdata/t2-seed42.ndjson", "-out", tsbc); code != 0 {
		t.Fatalf("convert to tsbc exited %d: %s", code, stderr)
	}
	if _, stderr, code := run(t, "tsubame-convert", "-in", tsbc, "-out", back); code != 0 {
		t.Fatalf("convert back exited %d: %s", code, stderr)
	}
	orig, err := os.ReadFile("testdata/t2-seed42.ndjson")
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, got) {
		t.Fatalf("NDJSON -> tsbc -> NDJSON round trip is not byte-identical\nfirst divergence: %s",
			firstDiff(string(orig), string(got)))
	}

	// -format overrides the output extension.
	odd := filepath.Join(dir, "odd.csv")
	if _, stderr, code := run(t, "tsubame-convert", "-in", tsbc, "-out", odd, "-format", "ndjson"); code != 0 {
		t.Fatalf("convert with -format override exited %d: %s", code, stderr)
	}
	overridden, err := os.ReadFile(odd)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, overridden) {
		t.Fatal("-format ndjson into a .csv path did not produce NDJSON")
	}
}

// TestUnrecognizableInputExitTwo pins the sniffing contract: input that
// is none of csv/ndjson/tsbc is a usage error (exit 2), distinct from
// the exit-1 I/O and parse failures.
func TestUnrecognizableInputExitTwo(t *testing.T) {
	junk := filepath.Join(t.TempDir(), "junk.bin")
	if err := os.WriteFile(junk, []byte("neither a header row nor json nor magic\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tool string
		args []string
	}{
		{"tsubame-analyze", []string{"-in", junk}},
		{"tsubame-digest", []string{"-in", junk}},
		{"tsubame-convert", []string{"-in", junk, "-format", "csv"}},
	} {
		stdout, stderr, code := run(t, c.tool, c.args...)
		if code != 2 {
			t.Errorf("%s on unrecognizable input exited %d, want 2\nstdout: %s\nstderr: %s",
				c.tool, code, stdout, stderr)
		}
		if !strings.Contains(stderr, "unrecognizable input format") {
			t.Errorf("%s stderr does not name the problem:\n%s", c.tool, stderr)
		}
	}
}

// convertSmokeScale multiplies the Tsubame-3 profile's exact counts to
// the 100k-record trace the convert-smoke gate runs on (338 x 296 =
// 100,048 records, the same sizing as the tier-1 perf benchmarks).
const convertSmokeScale = 296

// TestConvertSmoke is the blocking convert-smoke CI gate: a 100k-record
// trace through NDJSON -> .tsbc -> NDJSON must be byte-identical, at
// GOMAXPROCS=1 and at GOMAXPROCS=4 alike, the NDJSON and .tsbc files of
// the two widths must be identical, and the streaming .tsbc digest must
// match the batch digest byte for byte.
// With CONVERT_SMOKE_DIR set, intermediates are written there and kept,
// so a failing CI run uploads them as the diff artifact.
func TestConvertSmoke(t *testing.T) {
	dir := os.Getenv("CONVERT_SMOKE_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	// The scaled profile is built with the synth package: the CLI's
	// -profile flag is the supported path for operator-scale traces.
	p := synth.Tsubame3Profile()
	for i := range p.Categories {
		p.Categories[i].Count *= convertSmokeScale
	}
	for i := range p.SoftwareCauses {
		p.SoftwareCauses[i].Count *= convertSmokeScale
	}
	p.NodeCount *= convertSmokeScale
	p.SoftwareOnMultiNodes *= convertSmokeScale
	profilePath := filepath.Join(dir, "profile.json")
	pf, err := os.Create(profilePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := synth.WriteProfile(pf, p); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}

	// The round trip runs at two pool widths: the codecs fan out over
	// GOMAXPROCS, and every file must come out the same at both.
	var ndjson, tsbc string
	for _, width := range []string{"1", "4"} {
		env := []string{"GOMAXPROCS=" + width}
		w := func(name string) string { return filepath.Join(dir, "w"+width+"-"+name) }
		if _, stderr, code := runEnv(t, env, "tsubame-gen", "-profile", profilePath, "-seed", "42", "-format", "ndjson", "-out", w("big.ndjson")); code != 0 {
			t.Fatalf("GOMAXPROCS=%s: gen exited %d: %s", width, code, stderr)
		}
		if _, stderr, code := runEnv(t, env, "tsubame-convert", "-in", w("big.ndjson"), "-out", w("big.tsbc")); code != 0 {
			t.Fatalf("GOMAXPROCS=%s: convert to tsbc exited %d: %s", width, code, stderr)
		}
		if _, stderr, code := runEnv(t, env, "tsubame-convert", "-in", w("big.tsbc"), "-out", w("back.ndjson")); code != 0 {
			t.Fatalf("GOMAXPROCS=%s: convert back exited %d: %s", width, code, stderr)
		}
		orig, err := os.ReadFile(w("big.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(w("back.ndjson"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(orig, got) {
			t.Fatalf("GOMAXPROCS=%s: 100k-record NDJSON -> tsbc -> NDJSON round trip is not byte-identical (intermediates in %s)\nfirst divergence: %s",
				width, dir, firstDiff(string(orig), string(got)))
		}
		tsbcInfo, err := os.Stat(w("big.tsbc"))
		if err != nil {
			t.Fatal(err)
		}
		if tsbcInfo.Size() >= int64(len(orig)) {
			t.Errorf("tsbc (%d bytes) is not smaller than NDJSON (%d bytes)", tsbcInfo.Size(), len(orig))
		}
		if ndjson == "" {
			ndjson, tsbc = w("big.ndjson"), w("big.tsbc")
			continue
		}
		for _, pair := range [][2]string{{ndjson, w("big.ndjson")}, {tsbc, w("big.tsbc")}} {
			a, err := os.ReadFile(pair[0])
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(pair[1])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("%s and %s differ: the output depends on GOMAXPROCS (intermediates in %s)", pair[0], pair[1], dir)
			}
		}
	}

	csv := filepath.Join(dir, "big.csv")
	if _, stderr, code := run(t, "tsubame-convert", "-in", ndjson, "-out", csv); code != 0 {
		t.Fatalf("convert to csv exited %d: %s", code, stderr)
	}
	batch, stderr, code := run(t, "tsubame-digest", "-in", csv, "-days", "30", "-quantiles")
	if code != 0 {
		t.Fatalf("batch digest exited %d: %s", code, stderr)
	}
	stream, stderr, code := run(t, "tsubame-digest", "-in", tsbc, "-days", "30", "-quantiles")
	if code != 0 {
		t.Fatalf("streaming digest exited %d: %s", code, stderr)
	}
	if stream != batch {
		streamPath := filepath.Join(dir, "digest_stream.txt")
		batchPath := filepath.Join(dir, "digest_batch.txt")
		os.WriteFile(streamPath, []byte(stream), 0o644)
		os.WriteFile(batchPath, []byte(batch), 0o644)
		t.Fatalf("streaming digest diverged from batch digest (outputs in %s)\nfirst divergence: %s",
			dir, firstDiff(batch, stream))
	}
}
