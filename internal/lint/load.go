package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"tdmroute/internal/par"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// ImportPath is the full import path (modulePath + "/" + RelDir).
	ImportPath string
	// RelDir is the package directory relative to the module root, "." for
	// the root package.
	RelDir string
	// Files are the parsed sources, sorted by file name.
	Files []*ast.File
	// Types and Info hold the go/types results for the package.
	Types *types.Package
	Info  *types.Info
}

// module is the loaded view of one Go module: every package parsed and
// type-checked in dependency order, with cross-package function facts.
type module struct {
	Root  string // absolute module root (directory of go.mod)
	Path  string // module path from go.mod
	Fset  *token.FileSet
	Pkgs  []*Package // dependency order
	Facts *FactSet
}

// findModuleRoot walks upward from dir until it finds go.mod.
func findModuleRoot(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			mp := parseModulePath(data)
			if mp == "" {
				return "", "", fmt.Errorf("lint: %s/go.mod has no module directive", d)
			}
			return d, mp, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		d = parent
	}
}

// parseModulePath extracts the module path from go.mod contents.
func parseModulePath(data []byte) string {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			return strings.Trim(rest, `"`)
		}
	}
	return ""
}

// loadModule parses and type-checks every package under root. Test files are
// included when includeTests is set; external test packages (package foo_test)
// are checked as separate packages. Directories named testdata or vendor and
// hidden/underscore directories are skipped.
//
// Loading is parallel in two phases, both through internal/par so the lint
// tool obeys its own rawgo rule: directories parse concurrently (the shared
// token.FileSet is synchronized), then packages type-check concurrently in
// topological levels — every package in a level depends only on packages of
// earlier levels, so a level is an embarrassingly parallel batch. Standard-
// library imports are resolved once, up front, through a memoized source
// importer; the level workers then only read the memo. Function facts
// (FactBlocks, FactObservesCtx, FactLoops) are computed per package inside
// the level batch and merged in deterministic package order between levels,
// so by the time a package checks, the facts of everything it imports are
// final.
func loadModule(root, modPath string, includeTests bool, workers int) (*module, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	fset := token.NewFileSet()
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	// Phase 1: parse every directory concurrently.
	parsed := make([][]*Package, len(dirs))
	parseErrs := make([]error, len(dirs))
	// Parsing a package directory dwarfs a fork, so the loop always forks.
	par.ForMin(len(dirs), workers, 1, math.MaxInt, func(_, start, end int) {
		for i := start; i < end; i++ {
			parsed[i], parseErrs[i] = parseDir(fset, root, modPath, dirs[i], includeTests)
		}
	})
	var pkgs []*Package
	for i, ps := range parsed {
		if parseErrs[i] != nil {
			return nil, parseErrs[i]
		}
		pkgs = append(pkgs, ps...)
	}

	ordered, err := topoSort(pkgs, modPath)
	if err != nil {
		return nil, err
	}

	// Phase 2: pre-resolve the standard-library imports serially through a
	// memoized source importer. Every import path a module file names is
	// warmed here, so the concurrent level workers below hit only the memo.
	imp := newMemoImporter(fset)
	for _, path := range externalImports(pkgs, modPath) {
		if _, err := imp.Import(path); err != nil {
			return nil, fmt.Errorf("lint: resolving import %q: %w", path, err)
		}
	}

	// Phase 3: type-check in parallel topological levels.
	facts := newFactSet()
	for _, level := range topoLevels(ordered, modPath) {
		errs := make([]error, len(level))
		pkgFacts := make([]map[*types.Func]Fact, len(level))
		par.ForMin(len(level), workers, 1, math.MaxInt, func(_, start, end int) {
			for i := start; i < end; i++ {
				errs[i] = checkPackage(fset, level[i], imp)
				if errs[i] == nil {
					pkgFacts[i] = computeFacts(level[i], facts)
				}
			}
		})
		for i, err := range errs {
			if err != nil {
				return nil, err
			}
			imp.addModulePkg(level[i].ImportPath, level[i].Types)
			facts.merge(pkgFacts[i])
		}
	}
	return &module{Root: root, Path: modPath, Fset: fset, Pkgs: ordered, Facts: facts}, nil
}

// checkPackage runs go/types over one package.
func checkPackage(fset *token.FileSet, p *Package, imp types.Importer) error {
	conf := types.Config{Importer: imp}
	var typeErrs []error
	conf.Error = func(err error) { typeErrs = append(typeErrs, err) }
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	tpkg, _ := conf.Check(p.ImportPath, fset, p.Files, info)
	if len(typeErrs) > 0 {
		return fmt.Errorf("lint: type-checking %s: %v", p.ImportPath, typeErrs[0])
	}
	p.Types = tpkg
	p.Info = info
	return nil
}

// memoImporter resolves module-internal imports from the already-checked set
// and everything else (the standard library) through one source importer
// whose results are memoized. The memo makes concurrent Import calls cheap
// and safe: after the warm-up pass every lookup is a map hit; the fallback
// path for a cold import is serialized by mu.
type memoImporter struct {
	std types.Importer

	mu     sync.Mutex
	memo   map[string]*types.Package
	module map[string]*types.Package
}

func newMemoImporter(fset *token.FileSet) *memoImporter {
	return &memoImporter{
		std:    importer.ForCompiler(fset, "source", nil),
		memo:   map[string]*types.Package{},
		module: map[string]*types.Package{},
	}
}

// addModulePkg records a checked module package. Called on the driver
// goroutine between levels, never concurrently with Import.
func (m *memoImporter) addModulePkg(path string, pkg *types.Package) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.module[path] = pkg
}

func (m *memoImporter) Import(path string) (*types.Package, error) {
	m.mu.Lock()
	if p, ok := m.module[path]; ok {
		m.mu.Unlock()
		return p, nil
	}
	if p, ok := m.memo[path]; ok {
		m.mu.Unlock()
		return p, nil
	}
	m.mu.Unlock()
	// Cold path: the source importer is not documented as concurrency-safe,
	// so imports run one at a time. The warm-up pass in loadModule means
	// this is reached concurrently only for paths no module file names
	// directly, which does not happen in practice.
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.memo[path]; ok {
		return p, nil
	}
	p, err := m.std.Import(path)
	if err != nil {
		return nil, err
	}
	m.memo[path] = p
	return p, nil
}

// externalImports collects every import path outside the module, sorted.
func externalImports(pkgs []*Package, modPath string) []string {
	seen := map[string]bool{}
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, im := range f.Imports {
				path := strings.Trim(im.Path.Value, `"`)
				if path == modPath || strings.HasPrefix(path, modPath+"/") {
					continue
				}
				seen[path] = true
			}
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// topoLevels groups dependency-ordered packages into levels: a package's
// level is one past the highest level among its module-internal imports, so
// each level only depends on strictly earlier ones and can type-check as one
// parallel batch.
func topoLevels(ordered []*Package, modPath string) [][]*Package {
	levelOf := map[string]int{}
	var levels [][]*Package
	for _, p := range ordered {
		lv := 0
		for _, f := range p.Files {
			for _, im := range f.Imports {
				path := strings.Trim(im.Path.Value, `"`)
				if path != modPath && !strings.HasPrefix(path, modPath+"/") {
					continue
				}
				if dl, ok := levelOf[path]; ok && dl+1 > lv {
					lv = dl + 1
				}
			}
		}
		// An external test package implicitly depends on its base package,
		// which topoSort already placed earlier; key both under the same
		// path, keeping the maximum.
		base := strings.TrimSuffix(p.ImportPath, ".test")
		if dl, ok := levelOf[base]; ok && p.ImportPath != base && dl+1 > lv {
			lv = dl + 1
		}
		if cur, ok := levelOf[p.ImportPath]; !ok || lv > cur {
			levelOf[p.ImportPath] = lv
		}
		for len(levels) <= lv {
			levels = append(levels, nil)
		}
		levels[lv] = append(levels[lv], p)
	}
	return levels
}

// packageDirs lists module-relative directories that may contain packages.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		dirs = append(dirs, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// parseDir parses one directory into zero, one, or two packages (the package
// itself and, with includeTests, its external _test package).
func parseDir(fset *token.FileSet, root, modPath, rel string, includeTests bool) ([]*Package, error) {
	dir := filepath.Join(root, filepath.FromSlash(rel))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	importPath := modPath
	if rel != "." {
		importPath = modPath + "/" + rel
	}

	// Group files by declared package name so external test packages
	// (package foo_test) check separately from package foo.
	byName := map[string][]*ast.File{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		if !buildConstraintSatisfied(f) {
			continue
		}
		byName[f.Name.Name] = append(byName[f.Name.Name], f)
	}

	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)

	var pkgs []*Package
	for _, n := range names {
		ip := importPath
		if strings.HasSuffix(n, "_test") {
			ip = importPath + ".test"
		}
		pkgs = append(pkgs, &Package{ImportPath: ip, RelDir: rel, Files: byName[n]})
	}
	return pkgs, nil
}

// buildConstraintSatisfied evaluates the file's //go:build (or legacy
// // +build) constraint under the default build configuration — GOOS, GOARCH,
// the gc compiler, no extra tags — so files gated behind tags like race or
// integration are excluded exactly as `go build` excludes them. Files with
// no constraint are always included.
func buildConstraintSatisfied(f *ast.File) bool {
	for _, cg := range f.Comments {
		if cg.Pos() >= f.Package {
			break
		}
		for _, c := range cg.List {
			if !constraint.IsGoBuild(c.Text) && !constraint.IsPlusBuild(c.Text) {
				continue
			}
			expr, err := constraint.Parse(c.Text)
			if err != nil {
				continue // malformed constraint: let the type checker decide
			}
			return expr.Eval(defaultBuildTag)
		}
	}
	return true
}

// defaultBuildTag reports whether a single build tag is set in the default
// configuration tdmlint analyzes under.
func defaultBuildTag(tag string) bool {
	return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" ||
		tag == "unix" && unixGOOS(runtime.GOOS) ||
		strings.HasPrefix(tag, "go1") // language-version tags: current toolchain
}

// unixGOOS mirrors the GOOSes the build system treats as unix.
func unixGOOS(goos string) bool {
	switch goos {
	case "aix", "android", "darwin", "dragonfly", "freebsd", "hurd", "illumos",
		"ios", "linux", "netbsd", "openbsd", "solaris":
		return true
	}
	return false
}

// topoSort orders packages so that every module-internal import precedes its
// importer.
func topoSort(pkgs []*Package, modPath string) ([]*Package, error) {
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	const (
		white = iota
		gray
		black
	)
	state := map[string]int{}
	var out []*Package
	var visit func(p *Package) error
	visit = func(p *Package) error {
		switch state[p.ImportPath] {
		case gray:
			return fmt.Errorf("lint: import cycle through %s", p.ImportPath)
		case black:
			return nil
		}
		state[p.ImportPath] = gray
		for _, f := range p.Files {
			for _, im := range f.Imports {
				path := strings.Trim(im.Path.Value, `"`)
				if path != modPath && !strings.HasPrefix(path, modPath+"/") {
					continue
				}
				dep, ok := byPath[path]
				if !ok {
					return fmt.Errorf("lint: %s imports %s, which has no Go files", p.ImportPath, path)
				}
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		state[p.ImportPath] = black
		out = append(out, p)
		return nil
	}
	for _, p := range pkgs {
		// External test packages depend on their base package implicitly
		// through imports; plain DFS order handles them.
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}
