package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Path is the import path ("repro/internal/hdfs", or "genbump" for a
	// fixture package).
	Path string
	// RelPath is Path with the module prefix stripped ("internal/hdfs");
	// equal to Path for fixture packages.
	RelPath string
	// IsLocal reports whether an import path belongs to the tree under
	// analysis rather than to the standard library.
	IsLocal func(path string) bool
	// Imports are the package's module-local (or fixture-local) direct
	// dependencies, sorted by path. RunAnalyzers follows them to analyze
	// dependencies first, so cross-package facts are available on import.
	Imports []*Package
}

// loader type-checks packages from source with no toolchain help beyond
// GOROOT: module-local (or fixture-local) import paths resolve to
// directories under the root and recurse through the loader itself;
// everything else falls through to the compiler's source importer, which
// reads the standard library from GOROOT/src. That keeps hailint working
// in offline builds, where golang.org/x/tools/go/packages cannot be
// vendored and no export data is installed.
type loader struct {
	fset     *token.FileSet
	root     string // filesystem root local paths resolve under
	prefix   string // import-path prefix mapping to root ("repro/" or "")
	stdlib   types.Importer
	loaded   map[string]*Package
	inFlight map[string]bool
}

func newLoader(root, prefix string) *loader {
	fset := token.NewFileSet()
	// The source importer type-checks stdlib packages from GOROOT source.
	// cgo preprocessing would shell out to the toolchain, so force the
	// pure-Go fallbacks (netgo etc.) instead.
	build.Default.CgoEnabled = false
	return &loader{
		fset:     fset,
		root:     root,
		prefix:   prefix,
		stdlib:   importer.ForCompiler(fset, "source", nil),
		loaded:   make(map[string]*Package),
		inFlight: make(map[string]bool),
	}
}

// isLocal reports whether an import path resolves inside the loader's root.
func (l *loader) isLocal(path string) bool {
	if l.prefix != "" {
		return path == strings.TrimSuffix(l.prefix, "/") || strings.HasPrefix(path, l.prefix)
	}
	// Fixture mode: local iff a directory of that name exists under root.
	st, err := os.Stat(filepath.Join(l.root, filepath.FromSlash(path)))
	return err == nil && st.IsDir()
}

func (l *loader) dirFor(path string) string {
	rel := l.relPath(path)
	if rel == "" {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(rel))
}

// relPath strips the module prefix; the module root package itself (path
// equal to the module name, no slash) maps to "".
func (l *loader) relPath(path string) string {
	if l.prefix != "" && path == strings.TrimSuffix(l.prefix, "/") {
		return ""
	}
	return strings.TrimPrefix(path, l.prefix)
}

// Import implements types.Importer: local paths load recursively, the rest
// is standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if !l.isLocal(path) {
		return l.stdlib.Import(path)
	}
	pkg, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// load parses and type-checks one local package (memoized).
func (l *loader) load(path string) (*Package, error) {
	if pkg, ok := l.loaded[path]; ok {
		return pkg, nil
	}
	if l.inFlight[path] {
		return nil, fmt.Errorf("lint: import cycle through %q", path)
	}
	l.inFlight[path] = true
	defer delete(l.inFlight, path)

	dir := l.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %q: %v", path, err)
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		// What the default build leaves out (a //go:build tag, a GOOS
		// suffix) is not part of the package it checks.
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: %q: no Go files in %s", path, dir)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %q: %v", path, err)
	}
	pkg := &Package{
		Fset:    l.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
		Path:    path,
		RelPath: l.relPath(path),
		IsLocal: l.isLocal,
	}
	// Local imports were loaded (and memoized) by conf.Check via Import;
	// record them so analysis can run dependencies first.
	depSeen := make(map[string]bool)
	for _, f := range files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || depSeen[p] || !l.isLocal(p) {
				continue
			}
			depSeen[p] = true
			if dep, ok := l.loaded[p]; ok {
				pkg.Imports = append(pkg.Imports, dep)
			}
		}
	}
	sort.Slice(pkg.Imports, func(i, j int) bool { return pkg.Imports[i].Path < pkg.Imports[j].Path })
	l.loaded[path] = pkg
	return pkg, nil
}

// moduleName reads the module path out of root's go.mod.
func moduleName(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module line in %s/go.mod", root)
}

// LoadModule loads the packages selected by patterns from the module rooted
// at root. Supported patterns mirror what the CLIs need: "./..." (every
// package), "./dir/..." (a subtree) and "./dir" (one package). Test files
// are not loaded: the invariants gate the shipped tree, and test-only
// packages would drag the loader through external test-package plumbing
// for no gain.
func LoadModule(root string, patterns []string) (pkgs []*Package, err error) {
	// The parser and type checker are fed arbitrary on-disk source; a
	// panic anywhere below (go/types has a history of crashers on exotic
	// inputs) must surface as a load error, not take down the CLI. The
	// loader fuzz test pins this contract.
	defer recoverLoadPanic(&err)
	mod, err := moduleName(root)
	if err != nil {
		return nil, err
	}
	l := newLoader(root, mod+"/")

	var dirs []string
	seen := make(map[string]bool)
	addTree := func(base string) error {
		return filepath.WalkDir(base, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			// Never skip the walk root itself: "." (and any base whose last
			// element starts with a dot) must still be descended into.
			if p != base {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				// A subdirectory with its own go.mod is another module
				// (bench/ here): "./..." stops at its boundary, as it does
				// for go list.
				if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			if hasGoFiles(p) && !seen[p] {
				seen[p] = true
				dirs = append(dirs, p)
			}
			return nil
		})
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := addTree(root); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			if err := addTree(filepath.Join(root, filepath.FromSlash(strings.TrimSuffix(pat, "/...")))); err != nil {
				return nil, err
			}
		default:
			dir := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
			if !hasGoFiles(dir) {
				return nil, fmt.Errorf("lint: no Go files in %s", dir)
			}
			if !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
	}
	sort.Strings(dirs)

	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := mod
		if rel != "." {
			path = mod + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}

// LoadFixture loads one package from an analysistest-style fixture root
// (root/src/<path>), resolving the fixture's own imports against the same
// tree — testdata packages can model obs/hdfs shapes without importing the
// real modules. Fixture-local imports come back on Package.Imports, so
// RunAnalyzers sees them and computes their facts first.
func LoadFixture(root, path string) (pkg *Package, err error) {
	defer recoverLoadPanic(&err)
	l := newLoader(filepath.Join(root, "src"), "")
	return l.load(path)
}

// recoverLoadPanic converts a panic in the load path into an error.
func recoverLoadPanic(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("lint: loader panic: %v", r)
	}
}
