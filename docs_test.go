package agar_test

// Docs-consistency suite: these tests are the enforcement half of the
// documentation (docs/ARCHITECTURE.md, docs/WIRE.md, package godoc). CI
// runs them as a named step; they also run with the ordinary test suite,
// so documentation drift fails tier-1 verification.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// packageDirs returns every internal/* and cmd/* directory containing Go
// files, plus the repository root.
func packageDirs(t *testing.T) []string {
	t.Helper()
	dirs := []string{"."}
	for _, root := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatalf("read %s: %v", root, err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, filepath.Join(root, e.Name()))
			}
		}
	}
	return dirs
}

// TestDocsPackageComments fails if any package — the root, every
// internal/* package, every cmd/* main, every example — lacks a godoc
// package comment. The comment is the package's statement of what it
// models from the paper and its key entry points; a new package without
// one fails here, not in review.
func TestDocsPackageComments(t *testing.T) {
	for _, dir := range packageDirs(t) {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			t.Fatalf("parse %s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			documented := false
			for _, f := range pkg.Files {
				if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
					documented = true
					break
				}
			}
			if !documented {
				t.Errorf("package %s (%s) has no package comment", name, dir)
			}
		}
	}
}

// markdownFiles are the documents the link check walks.
func markdownFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "SCENARIOS.md", "ROADMAP.md"}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	return append(files, docs...)
}

var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// TestDocsMarkdownLinks checks every relative markdown link in README.md,
// docs/*.md, SCENARIOS.md and ROADMAP.md resolves to a file that exists
// (anchors are stripped; external URLs are skipped).
func TestDocsMarkdownLinks(t *testing.T) {
	for _, file := range markdownFiles(t) {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("read %s: %v", file, err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue // same-document anchor
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%s)", file, m[1], resolved)
			}
		}
	}
}

// TestDocsWireReference fails when docs/WIRE.md drifts from the protocol,
// in both directions: every Op* opcode constant and every Header field
// declared in internal/wire/wire.go must be mentioned in the reference, as
// must the batch and frame limit constants; and every Op* identifier the
// reference names, and every row of its header-field table, must still be
// declared there.
func TestDocsWireReference(t *testing.T) {
	doc, err := os.ReadFile("docs/WIRE.md")
	if err != nil {
		t.Fatalf("read docs/WIRE.md: %v", err)
	}
	text := string(doc)

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "internal/wire/wire.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	declared := map[string]bool{}
	require := func(name, kind string) {
		declared[kind+" "+name] = true
		if !strings.Contains(text, name) {
			missing = append(missing, fmt.Sprintf("%s %s", kind, name))
		}
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		switch gd.Tok {
		case token.CONST:
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for _, n := range vs.Names {
					if strings.HasPrefix(n.Name, "Op") || strings.HasPrefix(n.Name, "Max") {
						require(n.Name, "constant")
					}
				}
			}
		case token.TYPE:
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				if ts.Name.Name != "Header" {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				for _, field := range st.Fields.List {
					for _, n := range field.Names {
						require(n.Name, "Header field")
					}
				}
			}
		}
	}
	if len(missing) > 0 {
		t.Errorf("docs/WIRE.md missing: %s", strings.Join(missing, ", "))
	}

	var stale []string
	for _, name := range regexp.MustCompile(`\bOp[A-Z]\w*`).FindAllString(text, -1) {
		if !declared["constant "+name] {
			stale = append(stale, "constant "+name)
		}
	}
	_, header, _ := strings.Cut(text, "## Header fields")
	header, _, _ = strings.Cut(header, "\n## ")
	rows := regexp.MustCompile("(?m)^\\| `(\\w+)` \\|").FindAllStringSubmatch(header, -1)
	if len(rows) == 0 {
		t.Fatal("docs/WIRE.md: no header-field table under \"## Header fields\"")
	}
	for _, row := range rows {
		if !declared["Header field "+row[1]] {
			stale = append(stale, "Header field "+row[1])
		}
	}
	if len(stale) > 0 {
		t.Errorf("docs/WIRE.md names what internal/wire/wire.go no longer declares: %s", strings.Join(stale, ", "))
	}
}

// TestDocsMetricsReference fails when docs/METRICS.md drifts from the
// metric catalog: every Name* constant declared in
// internal/metrics/names.go must have its metric name documented in the
// reference — the METRICS.md twin of the WIRE.md opcode gate.
func TestDocsMetricsReference(t *testing.T) {
	doc, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatalf("read docs/METRICS.md: %v", err)
	}
	text := string(doc)

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "internal/metrics/names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var missing []string
	checked := 0
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, n := range vs.Names {
				if !strings.HasPrefix(n.Name, "Name") || i >= len(vs.Values) {
					continue
				}
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				name := strings.Trim(lit.Value, `"`)
				checked++
				if !strings.Contains(text, "`"+name+"`") {
					missing = append(missing, name)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no Name* constants found in internal/metrics/names.go")
	}
	if len(missing) > 0 {
		t.Errorf("docs/METRICS.md missing: %s", strings.Join(missing, ", "))
	}
}

// TestDocsSuiteExists pins the documentation map's anchors: the files the
// README links as the documentation entry points must exist and be
// non-trivial.
func TestDocsSuiteExists(t *testing.T) {
	for _, file := range []string{"docs/ARCHITECTURE.md", "docs/METRICS.md", "docs/MONITORING.md", "docs/PERFORMANCE.md", "docs/TRACING.md", "docs/WIRE.md", "SCENARIOS.md", "README.md"} {
		info, err := os.Stat(file)
		if err != nil {
			t.Fatalf("%s missing: %v", file, err)
		}
		if info.Size() < 1024 {
			t.Errorf("%s suspiciously small (%d bytes)", file, info.Size())
		}
	}
}

// ciTestPattern matches a -run or -bench pattern on a go test command
// line, quoted or bare.
var ciTestPattern = regexp.MustCompile(`(?:^|\s)-(?:run|bench)[= ](?:'([^']*)'|"([^"]*)"|([^\s'"]+))`)

// splitTopLevel splits a go test -run/-bench pattern on sep where sep sits
// outside parentheses and brackets, the way go test splits its levels.
func splitTopLevel(pattern string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				parts = append(parts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(parts, pattern[start:])
}

// testFuncNames returns the name of every top-level Test, Benchmark and
// Fuzz function in the repository's _test.go files.
func testFuncNames(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Benchmark", "Fuzz"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					names = append(names, fn.Name.Name)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestDocsCINamesExist checks that every -run and -bench pattern on a
// go test line of the CI workflow still selects something: each top-level alternative (the
// pattern's first /-level, split on |) must match, as an unanchored
// regexp, at least one Test, Benchmark or Fuzz function in the
// repository. A CI step whose test was renamed or deleted would otherwise
// pass while running nothing. An alternative of ^$ (no tests, the
// benchmark-only idiom) is exempt.
func TestDocsCINamesExist(t *testing.T) {
	data, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	names := testFuncNames(t)
	if len(names) == 0 {
		t.Fatal("found no test functions")
	}
	checked := 0
	var patterns []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "#") || !strings.Contains(line, "go test ") {
			continue
		}
		for _, m := range ciTestPattern.FindAllStringSubmatch(line, -1) {
			patterns = append(patterns, m[1]+m[2]+m[3])
		}
	}
	for _, pattern := range patterns {
		for _, alt := range splitTopLevel(splitTopLevel(pattern, '/')[0], '|') {
			if alt == "^$" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("ci.yml pattern %q: alternative %q: %v", pattern, alt, err)
				continue
			}
			checked++
			found := false
			for _, name := range names {
				if re.MatchString(name) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("ci.yml pattern %q: %q matches no Test, Benchmark or Fuzz function", pattern, alt)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run/-bench patterns found in ci.yml")
	}
}

// flagCall maps the flag package's registration functions to the argument
// index that holds the flag name.
var flagCall = map[string]int{
	"Bool": 0, "Duration": 0, "Float64": 0, "Func": 0, "BoolFunc": 0, "Int": 0,
	"Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "IntVar": 1, "Int64Var": 1,
	"StringVar": 1, "TextVar": 1, "UintVar": 1, "Uint64Var": 1, "Var": 1,
}

// registeredFlags returns the flags a cmd/<name> main registers on the
// flag package's command line, read from its non-test sources.
func registeredFlags(t *testing.T, dir string) map[string]bool {
	t.Helper()
	fset := token.NewFileSet()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := make(map[string]bool)
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok || pkg.Name != "flag" {
				return true
			}
			arg, ok := flagCall[sel.Sel.Name]
			if !ok || arg >= len(call.Args) {
				return true
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: flag.%s with a non-literal name", fset.Position(call.Pos()), sel.Sel.Name)
				return true
			}
			name, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			flags[name] = true
			return true
		})
	}
	return flags
}

var (
	readmeCmdSection = regexp.MustCompile(`^### (\S+) —`)
	readmeFlagCell   = regexp.MustCompile("`-([A-Za-z0-9][A-Za-z0-9_-]*)`")
)

// TestDocsFlagTables checks README.md's command reference against the
// code: for every "### <cmd> —" section naming a cmd/<cmd> main, the
// flags in the section's "| `-flag` |" rows must be exactly the flags the
// main registers (parsed from its flag.* calls), no more and no fewer.
func TestDocsFlagTables(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]map[string]bool)
	var cmd string
	for _, line := range strings.Split(string(data), "\n") {
		if m := readmeCmdSection.FindStringSubmatch(line); m != nil {
			cmd = ""
			if _, err := os.Stat(filepath.Join("cmd", m[1], "main.go")); err == nil {
				cmd = m[1]
				documented[cmd] = make(map[string]bool)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			cmd = ""
			continue
		}
		if cmd == "" || !strings.HasPrefix(line, "| `-") {
			continue
		}
		cells := strings.Split(line, "|")
		for _, m := range readmeFlagCell.FindAllStringSubmatch(cells[1], -1) {
			documented[cmd][m[1]] = true
		}
	}
	if len(documented) < 5 {
		t.Fatalf("README.md command reference documents %d commands; expected every cmd/ main", len(documented))
	}
	for cmd, rows := range documented {
		registered := registeredFlags(t, filepath.Join("cmd", cmd))
		for name := range registered {
			if !rows[name] {
				t.Errorf("README.md %s table has no row for -%s, which cmd/%s registers", cmd, name, cmd)
			}
		}
		for name := range rows {
			if !registered[name] {
				t.Errorf("README.md %s table documents -%s, which cmd/%s does not register", cmd, name, cmd)
			}
		}
	}
}

// testOnlyExportKinds are the reasons an exported internal/ declaration
// may have no caller outside tests. Every testOnlyExports entry starts
// with one of them.
var testOnlyExportKinds = []string{
	"test observation point",
	"reference oracle",
	"interface method",
	"test constructor",
}

// testOnlyExports lists the exported internal/ declarations that only
// tests name, keyed pkg.Name (pkg.Type.Method for methods), each with the
// reason it stays.
var testOnlyExports = map[string]string{
	"backend.NewStore":                  "test constructor: an in-memory store for server and cluster tests",
	"backend.StaleError.Is":             "interface method: errors.Is matches ErrStale through it",
	"backend.Store.Down":                "test observation point: tests read the injected region-failure flag",
	"backend.Store.Keys":                "test observation point: the object keys a region holds",
	"backend.Store.Region":              "test observation point: the region a store serves",
	"cache.Cache.Delete":                "test constructor: evicts one chunk to build the partial-residency states the cache and digest-delta tests need",
	"cache.Cache.GetObject":             "test observation point: every resident chunk of one object",
	"cache.Cache.Len":                   "test observation point: the resident entry count",
	"cache.Cache.ShardIndex":            "test observation point: server tests check their keys cover every stripe",
	"client.Result.Hit":                 "test observation point: the Figure 7 hit definition the reader tests assert",
	"client.Writer.AddInvalidator":      "test constructor: wires a cache into a writer after construction",
	"coherence.VersionTable.Seed":       "test constructor: sets a key's floor directly, lowering included",
	"coop.Advertiser.DeltaPushes":       "test observation point: tests check a push travelled as a delta",
	"coop.Advertiser.Stats":             "test observation point: the advertiser's push counters",
	"coop.Mirror.Keys":                  "test observation point: how many keys a mirror holds",
	"coop.Table.Regions":                "test observation point: the peer regions with a mirror",
	"core.CacheManager.Compute":         "test observation point: the planning core without touching the cache",
	"core.ExactMCKP":                    "reference oracle: the exact knapsack optimum POPULATE and greedy are checked against",
	"core.Monitor.CurrentFrequency":     "test observation point: a key's access count in the running period",
	"core.Monitor.Requests":             "test observation point: the monitor's request count",
	"core.Monitor.TopKeys":              "test observation point: the monitor's popularity ranking",
	"core.NewOptionSet":                 "test constructor: builds option sets for solver tests and benchmarks",
	"core.Node.Monitor":                 "test observation point: the node's request monitor",
	"core.PaperWeightGrid":              "test constructor: the §IV-A example's odd weight grid, one of the grids bench_test.go solves over",
	"core.RegionManager.Client":         "test observation point: the region the manager serves",
	"core.RegionManager.Estimate":       "test observation point: a region's current latency estimate",
	"core.RegionManager.Plan":           "test observation point: the fetch plan the current estimates give",
	"experiments.Deployment.Run":        "test observation point: one averaged measurement campaign, which the root benchmarks time",
	"geo.FetchPlan.MaxLatencyExcluding": "reference oracle: the §IV-A set formulation GenerateOptions is checked against",
	"geo.LatencyMatrix.Row":             "test observation point: a copy of one region's latency row",
	"geo.LatencyMatrix.Size":            "test observation point: the region count",
	"gf256.Add":                         "reference oracle: field addition (XOR) in the axiom tests",
	"gf256.Exp":                         "test observation point: exposes the exp table the field tests check exhaustively",
	"gf256.Generator":                   "test observation point: the primitive element the exp/log tables are built from",
	"gf256.Log":                         "test observation point: exposes the log table the field tests check exhaustively",
	"gf256.Sub":                         "reference oracle: field subtraction, checked equal to addition",
	"hlc.Clock.Last":                    "test observation point: the last issued timestamp without advancing",
	"hlc.NewAt":                         "test constructor: a clock on an injected physical source",
	"hlc.Parse":                         "reference oracle: the inverse of Timestamp.String the round-trip tests check",
	"hlc.Timestamp.Wall":                "test observation point: a timestamp's physical component as a time",
	"live.Cluster.Advertiser":           "test observation point: the cluster's digest advertiser, whose delta pushes the tests count",
	"live.NewCacheServer":               "test constructor: a cache server with default options",
	"live.NewStoreServer":               "test constructor: a store server with default options",
	"live.Server.PoolOutstanding":       "test observation point: the pooled-buffer leak check",
	"matrix.FromRows":                   "test constructor: a matrix from literal rows",
	"matrix.Matrix.Clone":               "test constructor: a deep copy of a matrix",
	"matrix.Matrix.Cols":                "test observation point: a matrix's column count",
	"matrix.Matrix.Equal":               "reference oracle: the element-wise comparison the algebra tests check products with",
	"matrix.Matrix.IsIdentity":          "reference oracle: checks m·m⁻¹ in the inversion tests",
	"matrix.Matrix.Row":                 "test observation point: a copy of one row",
	"matrix.Matrix.Rows":                "test observation point: a matrix's row count",
	"metrics.Histogram.Count":           "test observation point: the observation count",
	"metrics.Registry.NewCounter":       "test constructor: an unlabelled counter for registry tests",
	"metrics.Registry.NewHistogram":     "test constructor: an unlabelled histogram for registry tests",
	"monitor.Health.Alerts":             "test observation point: the rules currently firing",
	"stats.EWMA.Samples":                "test observation point: how many samples the average has seen",
	"store.Chaos.Injected":              "test observation point: how many faults the chaos wrapper injected",
	"store.NewGateway":                  "test constructor: a blob gateway without a metrics registry",
	"trace.ParseID":                     "reference oracle: the inverse of ID.String the round-trip tests check",
	"workload.NewSequential":            "test constructor: a deterministic key stream for workload and YCSB tests",
	"workload.Zipfian.Weights":          "reference oracle: the analytic key probabilities the sampling tests check against",
}

// TestDocsNoTestOnlyExports fails on an exported top-level declaration in
// internal/ (func, method, type, var, const) that no non-test Go file of the
// repository (benchmark/ included) uses: code only tests can reach. Uses are
// resolved by type checking (go/types, the standard library imported from
// source), so a name shared with a live declaration elsewhere hides
// nothing. A method also counts as used when its type implements an
// interface of the program — one declared in the repository or in a
// package it imports, or written inline in its code — that has a method of
// that name, since the call may go through the interface. Uses are the
// union over the default build and -tags purego. The test also fails on an
// allowlist entry that flags nothing, so the list cannot outlive what it
// excuses.
func TestDocsNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	decls := map[string]token.Pos{}
	used := map[string]bool{}
	for _, tags := range [][]string{nil, {"purego"}} {
		d, u := checkProgram(t, fset, std, tags)
		for k, pos := range d {
			decls[k] = pos
		}
		for k, ok := range u {
			used[k] = used[k] || ok
		}
	}
	var keys []string
	for k := range decls {
		if !used[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	flagged := map[string]bool{}
	for _, key := range keys {
		flagged[key] = true
		if _, ok := testOnlyExports[key]; !ok {
			t.Errorf("%s: %s is exported but no non-test file uses it: delete it, or allowlist it in testOnlyExports with a reason", fset.Position(decls[key]), key)
		}
	}
	for key, why := range testOnlyExports {
		if !flagged[key] {
			t.Errorf("testOnlyExports entry %s matches no test-only export: remove it", key)
		}
		stated := false
		for _, kind := range testOnlyExportKinds {
			stated = stated || strings.HasPrefix(why, kind+": ")
		}
		if !stated {
			t.Errorf("testOnlyExports entry %s: reason %q must start with one of %q and a colon", key, why, testOnlyExportKinds)
		}
	}
}

// checkProgram type-checks every package of the repository (its non-test
// files under the given build tags) and returns the exported internal/
// declarations, keyed pkg.Name or pkg.Type.Method with their positions, and
// the keys of those the program uses.
func checkProgram(t *testing.T, fset *token.FileSet, std types.Importer, tags []string) (map[string]token.Pos, map[string]bool) {
	t.Helper()
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	modPath := strings.Fields(strings.SplitN(string(mod), "\n", 2)[0])[1]
	ld := &programLoader{
		fset: fset, std: std, ctxt: build.Default,
		dirs: map[string]string{}, pkgs: map[string]*types.Package{},
		info: &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
	}
	ld.ctxt.BuildTags = tags
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		ld.dirs[strings.TrimSuffix(modPath+"/"+filepath.ToSlash(path), "/.")] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var paths []string
	for path := range ld.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := ld.Import(path); err != nil {
			var noGo *build.NoGoError
			if !errors.As(err, &noGo) {
				t.Fatalf("type-check %s (tags %v): %v", path, tags, err)
			}
		}
	}

	// The interfaces a call may go through: those declared in the
	// repository and in the packages it imports, error, and inline ones.
	var ifaces []*types.Interface
	addScope := func(pkg *types.Package) {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
					if it, ok := n.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	imported := map[*types.Package]bool{}
	for _, path := range paths {
		if pkg := ld.pkgs[path]; pkg != nil {
			imported[pkg] = true
			for _, imp := range pkg.Imports() {
				imported[imp] = true
			}
		}
	}
	for pkg := range imported {
		addScope(pkg)
	}
	for _, tv := range ld.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 && it.IsMethodSet() {
			ifaces = append(ifaces, it)
		}
	}
	viaInterface := func(recv *types.Named, method string) bool {
		if recv.TypeParams().Len() > 0 {
			return false
		}
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == method &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	usedObj := map[types.Object]bool{}
	for _, obj := range ld.info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		usedObj[obj] = true
	}
	decls := map[string]token.Pos{}
	used := map[string]bool{}
	for _, path := range paths {
		pkg := ld.pkgs[path]
		if pkg == nil || !strings.HasPrefix(path, modPath+"/internal/") {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() {
				key := pkg.Name() + "." + name
				decls[key] = obj.Pos()
				used[key] = usedObj[obj]
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				key := pkg.Name() + "." + name + "." + m.Name()
				decls[key] = m.Pos()
				used[key] = usedObj[m] || viaInterface(named, m.Name())
			}
		}
	}
	return decls, used
}

// programLoader type-checks the repository's packages from their non-test
// files, importing the standard library through std, and records every
// identifier use in one types.Info.
type programLoader struct {
	fset *token.FileSet
	std  types.Importer
	ctxt build.Context
	dirs map[string]string // import path -> directory, for the repository's packages
	pkgs map[string]*types.Package
	info *types.Info
}

func (ld *programLoader) Import(path string) (*types.Package, error) {
	dir, ok := ld.dirs[path]
	if !ok {
		return ld.std.Import(path)
	}
	if pkg, ok := ld.pkgs[path]; ok {
		return pkg, nil
	}
	bp, err := ld.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: ld}
	pkg, err := conf.Check(path, ld.fset, files, ld.info)
	if err != nil {
		return nil, err
	}
	ld.pkgs[path] = pkg
	return pkg, nil
}
