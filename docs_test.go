package agar_test

// Docs-consistency suite: these tests are the enforcement half of the
// documentation (docs/ARCHITECTURE.md, docs/WIRE.md, package godoc). CI
// runs them as a named step; they also run with the ordinary test suite,
// so documentation drift fails tier-1 verification.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
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

// TestDocsWireReference fails when docs/WIRE.md drifts from the protocol:
// every Op* opcode constant and every Header field declared in
// internal/wire/wire.go must be mentioned in the reference, as must the
// batch and frame limit constants.
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
	require := func(name, kind string) {
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
	"backend.Store.Down":                "test observation point: tests read the injected region-failure flag",
	"cache.Cache.ShardIndex":            "test observation point: server tests check their keys cover every stripe",
	"client.Result.Hit":                 "test observation point: the Figure 7 hit definition the reader tests assert",
	"client.Writer.AddInvalidator":      "test constructor: wires a cache into a writer after construction",
	"coop.Advertiser.DeltaPushes":       "test observation point: tests check a push travelled as a delta",
	"core.CacheManager.Compute":         "test observation point: the planning core without touching the cache",
	"core.Monitor.Requests":             "test observation point: the monitor's request count",
	"core.Monitor.CurrentFrequency":     "test observation point: a key's access count in the running period",
	"core.Monitor.TopKeys":              "test observation point: the monitor's popularity ranking",
	"core.PaperWeightGrid":              "test constructor: the §IV-A example's odd weight grid, one of the grids bench_test.go solves over",
	"core.NewOptionSet":                 "test constructor: builds option sets for solver tests and benchmarks",
	"core.RegionManager.Estimate":       "test observation point: a region's current latency estimate",
	"core.RegionManager.Plan":           "test observation point: the fetch plan the current estimates give",
	"core.ExactMCKP":                    "reference oracle: the exact knapsack optimum POPULATE and greedy are checked against",
	"geo.FetchPlan.MaxLatencyExcluding": "reference oracle: the §IV-A set formulation GenerateOptions is checked against",
	"gf256.Exp":                         "test observation point: exposes the exp table the field tests check exhaustively",
	"gf256.Log":                         "test observation point: exposes the log table the field tests check exhaustively",
	"hlc.Timestamp.Wall":                "test observation point: a timestamp's physical component as a time",
	"hlc.NewAt":                         "test constructor: a clock on an injected physical source",
	"hlc.Clock.Last":                    "test observation point: the last issued timestamp without advancing",
	"live.RemoteHinter.HintMulti":       "test observation point: the only client of the served OpMHint op, driven end to end by its test",
	"live.Server.PoolOutstanding":       "test observation point: the pooled-buffer leak check",
	"live.NewStoreServer":               "test constructor: a store server with default options",
	"live.NewCacheServer":               "test constructor: a cache server with default options",
	"matrix.FromRows":                   "test constructor: a matrix from literal rows",
	"matrix.Matrix.Cols":                "test observation point: a matrix's column count",
	"matrix.Matrix.IsIdentity":          "reference oracle: checks m·m⁻¹ in the inversion tests",
	"metrics.Registry.NewCounter":       "test constructor: an unlabelled counter for registry tests",
	"metrics.Registry.NewHistogram":     "test constructor: an unlabelled histogram for registry tests",
	"monitor.Health.ServeHTTP":          "interface method: http.Handler",
	"store.Chaos.Injected":              "test observation point: how many faults the chaos wrapper injected",
	"trace.ParseID":                     "reference oracle: the inverse of ID.String the round-trip tests check",
	"workload.Zipfian.Weights":          "reference oracle: the analytic key probabilities the sampling tests check against",
	"workload.NewSequential":            "test constructor: a deterministic key stream for workload and YCSB tests",
}

// TestDocsNoTestOnlyExports fails on an exported top-level declaration in
// internal/ whose name no non-test Go file of the repository (benchmark/
// included) uses as an identifier anywhere but at a top-level declaration:
// code only tests can reach. The match is by name, so a name shared with a
// live declaration elsewhere hides a dead one; comments do not count as a
// use. It also fails on an allowlist entry that flags nothing, so the list
// cannot outlive what it excuses.
func TestDocsNoTestOnlyExports(t *testing.T) {
	type decl struct {
		key string
		id  *ast.Ident
	}
	fset := token.NewFileSet()
	var decls []decl
	declIdents := map[*ast.Ident]bool{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		add := func(id *ast.Ident, key string) {
			declIdents[id] = true
			if internal && id.IsExported() {
				decls = append(decls, decl{f.Name.Name + "." + key, id})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				key := d.Name.Name
				if d.Recv != nil {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					key = recv.(*ast.Ident).Name + "." + key
				}
				add(d.Name, key)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s.Name.Name)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, n.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdents[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	flagged := map[string]bool{}
	for _, d := range decls {
		if used[d.id.Name] {
			continue
		}
		flagged[d.key] = true
		if _, ok := testOnlyExports[d.key]; !ok {
			t.Errorf("%s: %s is exported but no non-test file uses it: delete it, or allowlist it in testOnlyExports with a reason", fset.Position(d.id.Pos()), d.key)
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
