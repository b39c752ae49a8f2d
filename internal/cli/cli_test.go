package cli

import (
	"bytes"
	"compress/gzip"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/failures"
	"repro/internal/synth"
	"repro/internal/trace"
)

func TestParseSystem(t *testing.T) {
	tests := []struct {
		in      string
		want    failures.System
		wantErr bool
	}{
		{"t2", failures.Tsubame2, false},
		{"T2", failures.Tsubame2, false},
		{"tsubame-3", failures.Tsubame3, false},
		{"Tsubame3", failures.Tsubame3, false},
		{"t4", 0, true},
		{"", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseSystem(tt.in)
		if (err != nil) != tt.wantErr || got != tt.want {
			t.Errorf("ParseSystem(%q) = %v, %v", tt.in, got, err)
		}
	}
}

func TestDetectFormat(t *testing.T) {
	tests := []struct {
		explicit, filename, want string
	}{
		{"ndjson", "x.csv", "ndjson"}, // explicit wins
		{"auto", "log.csv", "csv"},    // auto still honors the extension
		{"", "log.ndjson", "ndjson"},
		{"", "log.jsonl", "ndjson"},
		{"", "log.csv", "csv"},
		{"", "log.tsbc", "tsbc"},
		{"", "stdin", "auto"}, // unrecognized names sniff instead of assuming CSV
		{"", "trace.dat", "auto"},
	}
	for _, tt := range tests {
		if got := DetectFormat(tt.explicit, tt.filename); got != tt.want {
			t.Errorf("DetectFormat(%q, %q) = %q, want %q", tt.explicit, tt.filename, got, tt.want)
		}
	}
}

func TestReadWriteLogFormats(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame3Profile(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"csv", "ndjson", "tsbc"} {
		var buf bytes.Buffer
		if err := WriteLog(&buf, log, format); err != nil {
			t.Fatalf("%s write: %v", format, err)
		}
		encoded := append([]byte(nil), buf.Bytes()...)
		back, err := ReadLog(&buf, format)
		if err != nil {
			t.Fatalf("%s read: %v", format, err)
		}
		if back.Len() != log.Len() {
			t.Errorf("%s round trip lost records: %d vs %d", format, back.Len(), log.Len())
		}
		// Auto-detection must land on the same format and records.
		auto, detected, err := ReadLogDetect(bytes.NewReader(encoded), "auto")
		if err != nil {
			t.Fatalf("auto read of %s: %v", format, err)
		}
		if detected != format {
			t.Errorf("auto read of %s detected %q", format, detected)
		}
		if auto.Len() != log.Len() {
			t.Errorf("auto read of %s lost records: %d vs %d", format, auto.Len(), log.Len())
		}
	}
	var buf bytes.Buffer
	if err := WriteLog(&buf, log, "xml"); err == nil {
		t.Error("unknown write format should fail")
	}
	if err := WriteLog(&buf, log, "auto"); err == nil {
		t.Error("auto is not a write format")
	}
	if _, err := ReadLog(&buf, "xml"); err == nil {
		t.Error("unknown read format should fail")
	}
}

func TestSniffFormat(t *testing.T) {
	tests := []struct {
		name   string
		prefix string
		want   string
		ok     bool
	}{
		{"tsbc magic", "TSBC\x01\x01\x00\x00", "tsbc", true},
		{"ndjson", `{"id":1,"system":"TSUBAME2.5"}`, "ndjson", true},
		{"ndjson leading space", "\n {\"id\":1}", "ndjson", true},
		{"csv header", "id,system,time,recovery_hours,category\n1,...", "csv", true},
		{"csv with BOM", "\xef\xbb\xbfid,system\n", "csv", true},
		{"empty", "", "", false},
		{"whitespace only", " \n\t", "", false},
		{"binary junk", "\x00\x01\x02\x03 garbage", "", false},
		{"prose line", "hello world\nmore,commas later", "", false},
	}
	for _, tt := range tests {
		got, err := SniffFormat([]byte(tt.prefix))
		if tt.ok && (err != nil || got != tt.want) {
			t.Errorf("%s: SniffFormat = %q, %v; want %q", tt.name, got, err, tt.want)
		}
		if !tt.ok && err == nil {
			t.Errorf("%s: SniffFormat = %q, want ErrUnknownFormat", tt.name, got)
		}
	}
}

func TestOpenLogSniffsContent(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame3Profile(), 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Extension-free file holding a .tsbc trace: only sniffing finds it.
	path := filepath.Join(dir, "trace.bin")
	var buf bytes.Buffer
	if err := trace.WriteTSBC(&buf, log); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	r, format, closeFn, err := OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	if format != "tsbc" {
		t.Fatalf("OpenLog format = %q, want tsbc", format)
	}
	back, err := trace.ReadTSBC(r)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != log.Len() {
		t.Errorf("OpenLog tsbc read = %d records, want %d", back.Len(), log.Len())
	}

	// Unrecognizable content is the usage-class sentinel.
	junk := filepath.Join(dir, "junk.bin")
	if err := os.WriteFile(junk, []byte("no recognizable format here"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := OpenLog(junk); !errors.Is(err, ErrUnknownFormat) {
		t.Errorf("OpenLog(junk) err = %v, want ErrUnknownFormat", err)
	}
}

func TestLoadLogFileTSBCAndGzip(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame2Profile(), 11)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := trace.WriteTSBC(&buf, log); err != nil {
		t.Fatal(err)
	}
	plain := filepath.Join(dir, "log.tsbc")
	if err := os.WriteFile(plain, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	zipped := filepath.Join(dir, "log.tsbc.gz")
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(zipped, zbuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{plain, zipped} {
		back, err := LoadLogFile(path)
		if err != nil {
			t.Fatalf("LoadLogFile(%s): %v", path, err)
		}
		if back.Len() != log.Len() {
			t.Errorf("LoadLogFile(%s) = %d records, want %d", path, back.Len(), log.Len())
		}
	}
}

func TestLoadLogSynthetic(t *testing.T) {
	log, err := LoadLog("", "t2", 42)
	if err != nil {
		t.Fatal(err)
	}
	if log.System() != failures.Tsubame2 || log.Len() != 897 {
		t.Errorf("synthetic load = %v/%d", log.System(), log.Len())
	}
	if _, err := LoadLog("", "bogus", 42); err == nil {
		t.Error("bad system name should fail")
	}
}

func TestLoadLogFromFile(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame2Profile(), 7)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "log.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f, log); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLog(path, "ignored", 0)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != log.Len() {
		t.Errorf("file load = %d records, want %d", back.Len(), log.Len())
	}
	if _, err := LoadLog(filepath.Join(dir, "missing.csv"), "", 0); err == nil {
		t.Error("missing file should fail")
	}
}

func TestGzipRoundTrip(t *testing.T) {
	log, err := synth.Generate(synth.Tsubame3Profile(), 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for name, format := range map[string]string{"log.csv.gz": "csv", "log.ndjson.gz": "ndjson", "plain.csv": "csv"} {
		path := filepath.Join(dir, name)
		if err := WriteLogFileFormat(path, log, format); err != nil {
			t.Fatalf("%s write: %v", name, err)
		}
		back, err := LoadLogFile(path)
		if err != nil {
			t.Fatalf("%s read: %v", name, err)
		}
		if back.Len() != log.Len() {
			t.Errorf("%s round trip lost records: %d vs %d", name, back.Len(), log.Len())
		}
	}
	// Gzipped files are actually compressed.
	gz, err := os.Stat(filepath.Join(dir, "log.csv.gz"))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := os.Stat(filepath.Join(dir, "plain.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if gz.Size() >= plain.Size() {
		t.Errorf("gzip file (%d) not smaller than plain (%d)", gz.Size(), plain.Size())
	}
	// LoadLog delegates: the same gz path loads through the generic entry.
	back, err := LoadLog(filepath.Join(dir, "log.csv.gz"), "", 0)
	if err != nil || back.Len() != log.Len() {
		t.Errorf("LoadLog on gz = %v, %v", back, err)
	}
}

func TestLoadLogFileBadGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "broken.csv.gz")
	if err := os.WriteFile(path, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLogFile(path); err == nil {
		t.Error("corrupt gzip should fail")
	}
}
