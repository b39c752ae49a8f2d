package tsubame_test

// The reachability check behind `make deadcode`. It parses the module
// with go/parser and walks go/ast from the roots a user can run: the
// cmd/* and examples/* mains, every file of the benchmark/ harness
// (tests included) and the paper benchmarks of bench_test.go. Every
// non-test function or method of the module that the walk does not
// reach fails the test, unless the keep-list below names it with a
// reason. internal/testutil is exempt: only tests import it.
//
// The walk is name-based and therefore errs toward "reachable":
//   - an unqualified identifier reaches the package-level function, type,
//     variable or constant of that name in the same package;
//   - pkg.Name reaches Name in the imported package;
//   - x.Name reaches every method called Name whose receiver type is
//     itself reached, so a method called through a module interface
//     counts as soon as its type is used;
//   - methods that the standard library calls through its own interfaces
//     (String, Error, Len/Less/Swap, ServeHTTP, ...) count through their
//     type alone.
//
// A name collision can hide dead code from the check, never invent it.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// deadcodeKeep names the functions that stay although no root reaches
// them, each with the reason it stays. Keys are "<dir>.<Func>" or
// "<dir>.<Type>.<Method>", dir relative to the module root. Most entries
// are the only subject of tier-1 tests and go together with those tests
// (ROADMAP, "Delete what only tests reach").
var deadcodeKeep = map[string]string{
	"internal/core.DailyAutocorrelation":       "only subject of TestDailyAutocorrelation",
	"internal/core.MonthlySeries":              "only subject of TestMonthlySeries",
	"internal/dist.NewPoint":                   keepPoint,
	"internal/dist.Point.CDF":                  keepPoint,
	"internal/dist.Point.Mean":                 keepPoint,
	"internal/dist.Point.Quantile":             keepPoint,
	"internal/dist.Point.Sample":               keepPoint,
	"internal/dist.Point.String":               keepPoint,
	"internal/dist.Point.Var":                  keepPoint,
	"internal/dist.NewRNG":                     "only subject of TestNewRNGDeterministic and TestNewRNGAdjacentSeedsDiffer; seeds the property tests of dist and sim",
	"internal/failures.Log.Merge":              "only subject of TestLogMerge",
	"internal/obs.Reset":                       "tests of obs, serve, trace and the root package clear the shared registry between measurements",
	"internal/predict.EWMARate.ExpectedWithin": "only subject of TestEWMARateNegativeHorizon",
	"internal/stats.AutoCorrelation":           "only subject of TestAutoCorrelation; its one caller is core.DailyAutocorrelation",
	"internal/stats.BootstrapCI":               "only subject of the four TestBootstrapCI* tests",
	"internal/stats.BootstrapSE":               "only subject of TestBootstrapSE",
	"internal/stats.CoefficientOfVariation":    "only subject of TestCoefficientOfVariation",
	"internal/stats.ECDF.Points":               "only subject of TestECDFPoints",
	"internal/stats.ECDF.StepPoints":           "only subject of TestECDFStepPoints",
	"internal/stats.GeometricMean":             "only subject of TestGeometricMean",
	"internal/stats.NewHistogram":              keepHistogram,
	"internal/stats.Histogram.Add":             keepHistogram,
	"internal/stats.Histogram.AddAll":          keepHistogram,
	"internal/stats.Histogram.BinCenter":       keepHistogram,
	"internal/stats.Histogram.BinWidth":        keepHistogram,
	"internal/stats.Histogram.Fractions":       keepHistogram,
	"internal/stats.Histogram.Mode":            keepHistogram,
	"internal/stats.Histogram.Total":           keepHistogram,
	"internal/stats.KendallTau":                "only subject of the four TestKendallTau* tests",
	"internal/stats.MannKendall":               "only subject of the four TestMannKendall* tests",
	"internal/stats.RestrictedMeanSurvival":    "only subject of TestRestrictedMeanSurvival",
	"internal/stats.TDigest.Merge":             "only subject of TestTDigestMergeAccuracy",
	"internal/stats.Welford.Merge":             "only subject of TestWelfordMergeEquivalence",
	"internal/system.Machine.NodeIDs":          "only subject of TestNodeIDs",
	"internal/trace.BlockReader.SetFilter":     "only subject of TestTSBCPredicatePushdown and its subtests",
}

// Reasons shared by several keep-list entries.
const (
	keepPoint     = "only subject of TestPointDistribution; sim's tests use it as a deterministic repair time"
	keepHistogram = "only subject of the seven TestHistogram*/TestNewHistogramErrors tests"
)

// deadcodeStdlibMethods are method names the standard library calls
// through its interfaces (fmt, errors, sort, container/heap, io, flag,
// encoding, net/http), so a reached type keeps them without a call by
// name.
var deadcodeStdlibMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "WriteTo": true, "ReadFrom": true,
	"ReadByte": true, "UnreadByte": true, "WriteByte": true, "WriteString": true,
	"Set": true, "Get": true, "IsBoolFlag": true,
	"MarshalText": true, "UnmarshalText": true, "MarshalJSON": true, "UnmarshalJSON": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
	"ServeHTTP": true,
}

// deadcodeConfig says where a scan starts.
type deadcodeConfig struct {
	dir       string         // module root
	mainDirs  []string       // dirs whose main packages' main funcs are roots
	rootDirs  []string       // dirs whose every function is a root, tests included
	rootFile  string         // a test file whose matching functions are roots
	rootFuncs *regexp.Regexp // the root functions of rootFile
	exempt    []string       // dirs whose functions are never reported
}

// repoDeadcodeConfig is the scan `make deadcode` runs on this module.
func repoDeadcodeConfig() deadcodeConfig {
	return deadcodeConfig{
		dir:       ".",
		mainDirs:  []string{"cmd", "examples"},
		rootDirs:  []string{"benchmark"},
		rootFile:  "bench_test.go",
		rootFuncs: regexp.MustCompile(`^Benchmark(Table|Fig|Ablation|Ext)`),
		exempt:    []string{"internal/testutil"},
	}
}

// dcFunc is one function or method declaration of the module.
type dcFunc struct {
	key  string // "<dir>.<Func>" or "<dir>.<Type>.<Method>"
	pos  token.Position
	decl *ast.FuncDecl
	file *dcFile
}

type dcFile struct {
	pkg     string            // dir, with "_test" appended for external test packages
	imports map[string]string // local name -> dir of an imported module package
}

type dcObjKey struct{ pkg, name string }

type dcMethod struct {
	recv dcObjKey
	fn   *dcFunc
}

// deadcodeScan returns the candidate functions no root reaches, sorted by
// key, and the set of every candidate key (reached or not).
func deadcodeScan(cfg deadcodeConfig) (unreached []*dcFunc, candidates map[string]bool, err error) {
	modules := map[string]string{} // module path -> dir relative to cfg.dir
	fset := token.NewFileSet()
	type parsed struct {
		rel  string
		file *ast.File
	}
	var files []parsed
	err = filepath.WalkDir(cfg.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(cfg.dir, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			name := d.Name()
			if rel != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() == "go.mod" {
			mod, err := deadcodeModulePath(path)
			if err != nil {
				return err
			}
			modules[mod] = filepath.ToSlash(filepath.Dir(rel))
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, parsed{rel, f})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// importDir maps an import path of one of the scanned modules to its
	// dir; other imports (the standard library) map to "".
	importDir := func(path string) string {
		best, dir := "", ""
		for mod, mdir := range modules {
			if (path == mod || strings.HasPrefix(path, mod+"/")) && len(mod) > len(best) {
				best = mod
				dir = pathJoin(mdir, strings.TrimPrefix(strings.TrimPrefix(path, mod), "/"))
			}
		}
		return dir
	}
	under := func(dir string, prefixes []string) bool {
		for _, p := range prefixes {
			if dir == p || strings.HasPrefix(dir, p+"/") {
				return true
			}
		}
		return false
	}
	nestedModule := func(dir string) bool {
		for _, mdir := range modules {
			if mdir != "." && (dir == mdir || strings.HasPrefix(dir, mdir+"/")) {
				return true
			}
		}
		return false
	}

	objects := map[dcObjKey][]ast.Node{}
	var methods []dcMethod
	var roots []ast.Node
	nodeFile := map[ast.Node]*dcFile{}
	candidates = map[string]bool{}
	var funcs []*dcFunc

	for _, p := range files {
		dir := filepath.ToSlash(filepath.Dir(p.rel))
		test := strings.HasSuffix(p.rel, "_test.go")
		file := &dcFile{pkg: dir, imports: map[string]string{}}
		if test && strings.HasSuffix(p.file.Name.Name, "_test") {
			file.pkg = dir + "_test"
		}
		for _, imp := range p.file.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			idir := importDir(path)
			if idir == "" {
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			file.imports[name] = idir
		}
		isCandidate := !test && !nestedModule(dir) && !under(dir, cfg.exempt)
		allRoots := under(dir, cfg.rootDirs)
		mainPkg := p.file.Name.Name == "main" && under(dir, cfg.mainDirs)
		for _, decl := range p.file.Decls {
			nodeFile[decl] = file
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				fn := &dcFunc{pos: fset.Position(d.Pos()), decl: d, file: file}
				if d.Recv != nil && len(d.Recv.List) == 1 {
					recv := deadcodeRecvName(d.Recv.List[0].Type)
					fn.key = dir + "." + recv + "." + name
					methods = append(methods, dcMethod{recv: dcObjKey{file.pkg, recv}, fn: fn})
				} else {
					fn.key = dir + "." + name
					objects[dcObjKey{file.pkg, name}] = append(objects[dcObjKey{file.pkg, name}], d)
				}
				switch {
				case allRoots, name == "init" && d.Recv == nil,
					mainPkg && name == "main" && d.Recv == nil,
					p.rel == cfg.rootFile && cfg.rootFuncs.MatchString(name):
					roots = append(roots, d)
				}
				if isCandidate && !(name == "init" && d.Recv == nil) && !(mainPkg && name == "main") {
					candidates[fn.key] = true
					funcs = append(funcs, fn)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					nodeFile[spec] = file
					switch s := spec.(type) {
					case *ast.TypeSpec:
						k := dcObjKey{file.pkg, s.Name.Name}
						objects[k] = append(objects[k], s)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.Name == "_" || allRoots {
								roots = append(roots, s)
								continue
							}
							k := dcObjKey{file.pkg, n.Name}
							objects[k] = append(objects[k], s)
						}
					}
				}
			}
		}
	}

	// Walk from the roots to a fixpoint.
	reachedNode := map[ast.Node]bool{}
	reachedObj := map[dcObjKey]bool{}
	selected := map[string]bool{}
	var work []ast.Node
	push := func(n ast.Node) {
		if !reachedNode[n] {
			reachedNode[n] = true
			work = append(work, n)
		}
	}
	mark := func(k dcObjKey) {
		if reachedObj[k] {
			return
		}
		reachedObj[k] = true
		for _, n := range objects[k] {
			push(n)
		}
	}
	for _, r := range roots {
		push(r)
	}
	for {
		for len(work) > 0 {
			n := work[len(work)-1]
			work = work[:len(work)-1]
			deadcodeWalk(n, nodeFile[n], mark, selected)
		}
		for _, m := range methods {
			if reachedObj[m.recv] && (selected[m.fn.decl.Name.Name] || deadcodeStdlibMethods[m.fn.decl.Name.Name]) {
				nodeFile[m.fn.decl] = m.fn.file
				push(m.fn.decl)
			}
		}
		if len(work) == 0 {
			break
		}
	}
	for _, fn := range funcs {
		if !reachedNode[fn.decl] {
			unreached = append(unreached, fn)
		}
	}
	sort.Slice(unreached, func(i, j int) bool { return unreached[i].key < unreached[j].key })
	return unreached, candidates, nil
}

// deadcodeWalk records what node n refers to: mark gets every
// package-level object it names, selected every name after a dot that
// is not a package qualifier.
func deadcodeWalk(n ast.Node, file *dcFile, mark func(dcObjKey), selected map[string]bool) {
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Recv != nil {
				ast.Inspect(x.Recv, visit)
			}
			ast.Inspect(x.Type, visit)
			if x.Body != nil {
				ast.Inspect(x.Body, visit)
			}
			return false
		case *ast.Field:
			// Field and parameter names name nothing package-level.
			ast.Inspect(x.Type, visit)
			return false
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if dir, ok := file.imports[id.Name]; ok {
					mark(dcObjKey{dir, x.Sel.Name})
					return false
				}
			}
			selected[x.Sel.Name] = true
			ast.Inspect(x.X, visit)
			return false
		case *ast.Ident:
			mark(dcObjKey{file.pkg, x.Name})
		}
		return true
	}
	ast.Inspect(n, visit)
}

// deadcodeRecvName is the type name of a method receiver: T for T, *T,
// T[P] and *T[P].
func deadcodeRecvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}

func deadcodeModulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

func pathJoin(dir, rel string) string {
	switch {
	case rel == "":
		return dir
	case dir == ".":
		return rel
	}
	return dir + "/" + rel
}

// TestDeadcode fails on every non-test function of the module that no
// binary, example, benchmark/ file or paper benchmark reaches.
func TestDeadcode(t *testing.T) {
	unreached, candidates, err := deadcodeScan(repoDeadcodeConfig())
	if err != nil {
		t.Fatal(err)
	}
	kept := map[string]bool{}
	for _, fn := range unreached {
		if _, ok := deadcodeKeep[fn.key]; ok {
			kept[fn.key] = true
			continue
		}
		t.Errorf("%s:%d: %s is reached by no binary, example, benchmark/ file or paper benchmark; delete it, or move it into a _test.go file if a test needs it",
			fn.pos.Filename, fn.pos.Line, fn.key)
	}
	for key := range deadcodeKeep {
		switch {
		case !candidates[key]:
			t.Errorf("keep-list entry %s names no function of the module", key)
		case !kept[key]:
			t.Errorf("keep-list entry %s is reachable now; drop it from the keep-list", key)
		}
	}
}

// TestDeadcodeFixture pins the check's two behaviours on a tiny module:
// a function nothing calls is reported, and a method that only the
// standard library calls (String, through fmt) is not.
func TestDeadcodeFixture(t *testing.T) {
	cfg := repoDeadcodeConfig()
	cfg.dir = filepath.Join("testdata", "deadcode")
	cfg.exempt = nil
	unreached, _, err := deadcodeScan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, fn := range unreached {
		got = append(got, fn.key)
	}
	want := []string{"internal/lib.Unused"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
}
