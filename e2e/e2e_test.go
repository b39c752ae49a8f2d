// Package e2e black-box tests the command-line tools: every binary is
// compiled once per test run, then driven through os/exec the way a user
// would drive it — golden stdout on committed traces for the analysis
// tools, exit-code and usage contracts on bad flags, and a real
// conformance run. Regenerate goldens with:
//
//	go test ./e2e -run TestGolden -update
package e2e

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// tools is every command under cmd/, compiled once by TestMain.
var tools = []string{
	"tsubame-analyze",
	"tsubame-anonymize",
	"tsubame-benchcheck",
	"tsubame-conform",
	"tsubame-convert",
	"tsubame-diff",
	"tsubame-digest",
	"tsubame-fit",
	"tsubame-gen",
	"tsubame-remediate",
	"tsubame-report",
	"tsubame-serve",
	"tsubame-sim",
	"tsubame-sweep",
}

var binDir string

func TestMain(m *testing.M) {
	flag.Parse()
	dir, err := os.MkdirTemp("", "tsubame-e2e-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	binDir = dir
	// One `go build` invocation compiles the whole tool suite; per-binary
	// builds would redo shared-package work ten times.
	args := append([]string{"build", "-o", binDir + string(os.PathSeparator)}, packages()...)
	build := exec.Command("go", args...)
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2e: building tools:", err)
		os.RemoveAll(binDir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

func packages() []string {
	pkgs := make([]string, len(tools))
	for i, t := range tools {
		pkgs[i] = "repro/cmd/" + t
	}
	return pkgs
}

func bin(tool string) string { return filepath.Join(binDir, tool) }

// run executes a tool and returns stdout, stderr, and the exit code.
func run(t *testing.T, tool string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	return runEnv(t, nil, tool, args...)
}

// runEnv is run with extra environment variables (KEY=value entries)
// on top of the test process's own.
func runEnv(t *testing.T, env []string, tool string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(bin(tool), args...)
	if env != nil {
		cmd.Env = append(os.Environ(), env...)
	}
	var out, errBuf bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errBuf
	err := cmd.Run()
	code = 0
	if err != nil {
		exitErr, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("%s %s: %v", tool, strings.Join(args, " "), err)
		}
		code = exitErr.ExitCode()
	}
	return out.String(), errBuf.String(), code
}

// TestGoldenOutputs pins the full stdout of the reporting tools on the
// committed seed-42 Tsubame-2 trace, and the calibration profiles
// tsubame-gen exports, whose categories and causes print by name. The generators are pure functions of
// (profile, seed), so these goldens are stable across machines; a diff
// means the analysis or rendering pipeline changed behavior.
func TestGoldenOutputs(t *testing.T) {
	cases := []struct {
		name   string
		golden string // the golden's base name when it is not name
		tool   string
		args   []string
	}{
		{"analyze", "", "tsubame-analyze", []string{"-in", "testdata/t2-seed42.csv", "-parallel", "1"}},
		{"report", "", "tsubame-report", []string{"-seed", "42"}},
		{"digest", "", "tsubame-digest", []string{"-in", "testdata/t2-seed42.csv", "-days", "30"}},
		{"diff", "", "tsubame-diff", []string{"-before", "testdata/t2-before.csv", "-after", "testdata/t2-after.csv"}},
		{"fit", "", "tsubame-fit", []string{"-in", "testdata/t2-seed42.csv", "-parallel", "1"}},
		{"fit-parallel4", "fit", "tsubame-fit", []string{"-in", "testdata/t2-seed42.csv", "-parallel", "4"}},
		{"profile-t2", "", "tsubame-gen", []string{"-system", "t2", "-export-profile"}},
		{"profile-t3", "", "tsubame-gen", []string{"-system", "t3", "-export-profile"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, code := run(t, c.tool, c.args...)
			if code != 0 {
				t.Fatalf("%s exited %d\nstderr: %s", c.tool, code, stderr)
			}
			name := c.name
			if c.golden != "" {
				name = c.golden
			}
			golden := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if stdout != string(want) {
				t.Fatalf("%s output diverged from %s (regenerate with -update if intended)\n got %d bytes, want %d bytes\nfirst divergence: %s",
					c.tool, golden, len(stdout), len(want), firstDiff(string(want), stdout))
			}
		})
	}
}

// firstDiff locates the first differing line for a readable failure.
func firstDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n want %q\n  got %q", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("line counts differ: want %d, got %d", len(wl), len(gl))
}

// TestBadFlagsExitTwo pins the usage contract of every tool: invalid
// flag values exit with status 2 (the conventional usage-error code) and
// print usage to stderr.
func TestBadFlagsExitTwo(t *testing.T) {
	sweepOut := filepath.Join(t.TempDir(), "sweep")
	cases := []struct {
		tool string
		args []string
	}{
		{"tsubame-analyze", []string{"-parallel", "-1"}},
		{"tsubame-anonymize", []string{"-in", "testdata/t2-seed42.csv"}}, // missing -key
		{"tsubame-benchcheck", nil},                                      // missing subcommand
		{"tsubame-conform", []string{"-seeds", "0"}},
		{"tsubame-convert", []string{"-in", "testdata/t2-seed42.csv"}}, // stdout needs -format
		{"tsubame-diff", []string{"-alpha", "2"}},
		{"tsubame-digest", []string{"-days", "0"}},
		{"tsubame-fit", []string{"-min", "0"}},
		{"tsubame-gen", []string{"-runs", "0"}},
		{"tsubame-remediate", []string{"-policies", "paint"}}, // unknown policy
		{"tsubame-report", []string{"-bogus"}},                // unknown flag
		{"tsubame-serve", []string{"-max-body", "0"}},
		{"tsubame-sim", []string{"-trials", "0"}},
		{"tsubame-sweep", []string{"-seeds", "0"}}, // also missing -out
		// An unknown system is a usage error, caught before any work.
		{"tsubame-conform", []string{"-system", "t9"}},
		{"tsubame-diff", []string{"-system", "t9"}},
		{"tsubame-digest", []string{"-system", "t9"}},
		{"tsubame-fit", []string{"-system", "t9"}},
		{"tsubame-gen", []string{"-system", "t9"}},
		{"tsubame-remediate", []string{"-system", "t9"}},
		{"tsubame-serve", []string{"-system", "t9"}},
		{"tsubame-sim", []string{"-system", "t9"}},
		{"tsubame-sweep", []string{"-systems", "t9", "-out", sweepOut}},
		{"tsubame-sim", []string{"-spares", "bogus"}}, // unknown policy
	}
	for _, c := range cases {
		t.Run(c.tool, func(t *testing.T) {
			stdout, stderr, code := run(t, c.tool, c.args...)
			if code != 2 {
				t.Fatalf("%s %s exited %d, want 2\nstdout: %s\nstderr: %s",
					c.tool, strings.Join(c.args, " "), code, stdout, stderr)
			}
			if !strings.Contains(strings.ToLower(stderr), "usage") {
				t.Fatalf("%s did not print usage on bad flags:\n%s", c.tool, stderr)
			}
		})
	}
}

// TestNonFiniteFlagsExitTwo: NaN and infinite float flags are usage
// errors caught before any simulation runs. An infinite -horizon used to
// spin forever, deaf to SIGTERM, and a NaN grid value failed only after
// simulating; a repeated grid value used to repeat report lines.
func TestNonFiniteFlagsExitTwo(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweep")
	sweepArgs := func(args ...string) []string {
		return append([]string{"-systems", "t3", "-horizon", "100", "-seeds", "1", "-out", out}, args...)
	}
	cases := []struct {
		name, tool string
		args       []string
	}{
		{"sim-horizon-inf", "tsubame-sim", []string{"-horizon", "+Inf"}},
		{"remediate-horizon-inf", "tsubame-remediate", []string{"-horizon", "+Inf"}},
		{"sweep-horizon-inf", "tsubame-sweep", sweepArgs("-horizon", "+Inf")},
		{"sweep-accuracy-nan", "tsubame-sweep", sweepArgs("-accuracy", "NaN")},
		{"sweep-ckpt-intervals-nan", "tsubame-sweep", sweepArgs("-ckpt-intervals", "NaN")},
		{"sweep-ckpt-intervals-inf", "tsubame-sweep", sweepArgs("-ckpt-intervals", "+Inf")},
		{"sweep-ckpt-cost-inf", "tsubame-sweep", sweepArgs("-ckpt-cost", "+Inf")},
		{"sweep-ckpt-intervals-duplicate", "tsubame-sweep", sweepArgs("-ckpt-intervals", "24,24")},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stdout, stderr, code := run(t, c.tool, c.args...)
			if code != 2 {
				t.Fatalf("%s %s exited %d, want 2\nstdout: %s\nstderr: %s",
					c.tool, strings.Join(c.args, " "), code, stdout, stderr)
			}
		})
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("a rejected sweep created its output directory: %v", err)
	}
}

// TestConformCLI runs a real conformance evaluation through the binary
// at the canonical 32-seed configuration (the tolerance bands are tuned
// for it): the shipped calibration must pass and produce a JSON report.
func TestConformCLI(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "report.json")
	stdout, stderr, code := run(t, "tsubame-conform", "-system", "t2", "-out", outPath)
	if code != 0 {
		t.Fatalf("conform exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "PASS") {
		t.Fatalf("expected PASS summary, got: %s", stdout)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"checks"`)) || !bytes.Contains(data, []byte(`"anchor"`)) {
		t.Fatal("JSON report is missing checks/anchor fields")
	}
}

// TestFitCLIEdgeCases pins tsubame-fit on logs whose samples sit at the
// edge of a family's fit. Each row is a CSV log and the report lines it
// must and must not print.
func TestFitCLIEdgeCases(t *testing.T) {
	header := "id,system,time,recovery_hours,category,node,gpus,software_cause\n"
	row := func(id int, day int, hours string) string {
		return fmt.Sprintf("%d,Tsubame-2,2012-01-%02dT00:00:00Z,%s,GPU,n0001,0,\n", id, day, hours)
	}
	// Recoveries of 24 h and one of 24.0001 h: the shape MLE lies far
	// above 1024, so Weibull must drop out. Reading the NaN of an
	// overflowing 24^k as a sign once fitted k=222.2, where 24^k
	// overflows. The daily failures make every gap 24 h, which has no
	// Weibull fit either.
	overflow := header
	for i := 1; i <= 11; i++ {
		overflow += row(i, i, "24")
	}
	overflow += row(12, 12, "24.0001")

	for _, c := range []struct {
		name, csv      string
		want, unwanted []string
	}{
		{"ttr overflow", overflow,
			[]string{"System-wide time to recovery:\n  * lognormal", "    exponential  Exponential(mean=24)"},
			[]string{"weibull", "k=222.2"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := filepath.Join(t.TempDir(), "log.csv")
			if err := os.WriteFile(in, []byte(c.csv), 0o644); err != nil {
				t.Fatal(err)
			}
			stdout, stderr, code := run(t, "tsubame-fit", "-in", in, "-parallel", "1")
			if code != 0 {
				t.Fatalf("tsubame-fit exited %d\nstderr: %s", code, stderr)
			}
			for _, w := range c.want {
				if !strings.Contains(stdout, w) {
					t.Errorf("report lacks %q:\n%s", w, stdout)
				}
			}
			for _, u := range c.unwanted {
				if strings.Contains(stdout, u) {
					t.Errorf("report contains %q:\n%s", u, stdout)
				}
			}
		})
	}
}

// TestGenAnalyzePipeline round-trips a generated trace through a file
// into the analyzer, the canonical two-step workflow of the README.
func TestGenAnalyzePipeline(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t3.csv")
	_, stderr, code := run(t, "tsubame-gen", "-system", "t3", "-seed", "7", "-out", trace)
	if code != 0 {
		t.Fatalf("gen exited %d: %s", code, stderr)
	}
	stdout, stderr, code := run(t, "tsubame-analyze", "-in", trace, "-parallel", "1")
	if code != 0 {
		t.Fatalf("analyze exited %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "Tsubame-3") {
		t.Fatalf("analyze output does not mention the system:\n%s", stdout)
	}
}

// TestSweepCLI runs a tiny grid through the sweep driver and pins the
// merged NDJSON report against a committed golden: the evaluator is a
// pure function of (grid, params), so the report bytes are stable across
// machines and worker counts. It also pins the dirty-directory refusal.
func TestSweepCLI(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-out", dir, "-systems", "t2", "-ckpt-intervals", "0,24",
		"-spares", "-1,1", "-accuracy", "0,0.5", "-seeds", "2",
		"-horizon", "500", "-parallel", "2",
	}
	stdout, stderr, code := run(t, "tsubame-sweep", args...)
	if code != 0 {
		t.Fatalf("sweep exited %d\nstdout: %s\nstderr: %s", code, stdout, stderr)
	}
	if !strings.Contains(stdout, "Swept 16 cells") {
		t.Fatalf("unexpected sweep summary:\n%s", stdout)
	}
	report, err := os.ReadFile(filepath.Join(dir, "SWEEP_report.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "sweep.golden")
	if *update {
		if err := os.WriteFile(golden, report, 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if !bytes.Equal(report, want) {
			t.Fatalf("sweep report diverged from %s (regenerate with -update if intended)\nfirst divergence: %s",
				golden, firstDiff(string(want), string(report)))
		}
	}
	// A second run into the same directory without -resume must refuse
	// rather than interleave two sweeps' shards.
	_, stderr, code = run(t, "tsubame-sweep", args...)
	if code != 1 || !strings.Contains(stderr, "resume") {
		t.Fatalf("dirty-directory re-run: exit %d, stderr %q; want exit 1 mentioning resume", code, stderr)
	}
}

// TestRemediateCLI runs a small policy comparison through the binary and
// pins the JSON report against a committed golden. The comparison is a
// pure function of (flags, seed), so the bytes are stable across
// machines; a second run at a different worker count must reproduce them
// exactly (the determinism contract of the report).
func TestRemediateCLI(t *testing.T) {
	args := []string{
		"-system", "t2", "-seeds", "2", "-horizon", "1000",
		"-accuracy", "0.5", "-spares", "fixed", "-stock", "2",
	}
	stdout, stderr, code := run(t, "tsubame-remediate", args...)
	if code != 0 {
		t.Fatalf("remediate exited %d\nstderr: %s", code, stderr)
	}
	if !strings.Contains(stderr, "winner") {
		t.Fatalf("summary line does not name a winner:\n%s", stderr)
	}
	golden := filepath.Join("testdata", "remediate.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(stdout), 0o644); err != nil {
			t.Fatal(err)
		}
	} else {
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with -update): %v", err)
		}
		if stdout != string(want) {
			t.Fatalf("remediate report diverged from %s (regenerate with -update if intended)\nfirst divergence: %s",
				golden, firstDiff(string(want), stdout))
		}
	}
	again, _, code := run(t, "tsubame-remediate", append(args, "-workers", "3")...)
	if code != 0 {
		t.Fatalf("second remediate run exited %d", code)
	}
	if again != stdout {
		t.Fatal("report bytes differ across worker counts; the comparison is not deterministic")
	}
}

// TestAnonymizeRoundTrip scrubs the committed trace and re-analyzes it:
// the anonymized log must still parse and carry the same record count.
func TestAnonymizeRoundTrip(t *testing.T) {
	scrubbed := filepath.Join(t.TempDir(), "anon.csv")
	_, stderr, code := run(t, "tsubame-anonymize",
		"-in", "testdata/t2-seed42.csv", "-out", scrubbed, "-key", "e2e")
	if code != 0 {
		t.Fatalf("anonymize exited %d: %s", code, stderr)
	}
	orig, err := os.ReadFile("testdata/t2-seed42.csv")
	if err != nil {
		t.Fatal(err)
	}
	anon, err := os.ReadFile(scrubbed)
	if err != nil {
		t.Fatal(err)
	}
	if o, a := bytes.Count(orig, []byte("\n")), bytes.Count(anon, []byte("\n")); o != a {
		t.Fatalf("anonymization changed the record count: %d lines != %d lines", a, o)
	}
	if bytes.Contains(anon, []byte("n0176")) {
		t.Fatal("anonymized trace still contains an original node ID")
	}
}
