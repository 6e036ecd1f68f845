// Package lint is hailint's analysis framework: a small, dependency-free
// mirror of golang.org/x/tools/go/analysis (which this offline build cannot
// vendor) plus the repo-specific analyzers that prove HAIL's cross-cutting
// correctness rules at `go vet` time instead of trusting runtime checks to
// be exercised:
//
//	genbump   hdfs replica/generation mutations fire notifyChanged
//	wallclock bare time.Now/time.Since only where wall-clock is the point
//	errsink   error results of repo-internal calls are never dropped
//	sigflow   every knob read on the block-scan path is cache-key material
//	lockgraph the module-wide lock-acquisition graph is acyclic, and
//	          namenode/datanode locks are leaves
//	goleak    every spawned goroutine has a provable termination path
//
// The last three are whole-module dataflow analyses: package passes export
// typed facts (per-function field-read summaries, lock-acquisition edges,
// nontermination marks) that dependent packages' passes and a module-level
// Finish phase consume — the dependency-free mirror of x/tools analysis
// facts over the shared loader.
//
// Each analyzer documents the invariant it enforces next to its Run
// function; ARCHITECTURE.md's "Invariants" section lists them all.
// Intentional exceptions are written in the code as
//
//	//lint:allow <analyzer> <reason>
//
// on (or immediately above) the offending line — auditable one by one,
// instead of growing silent allowlists inside the analyzers.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer is one named invariant check. The API mirrors
// golang.org/x/tools/go/analysis so the suite can migrate to the real
// multichecker wholesale if the dependency ever lands.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error

	// FactTypes declares the fact types this analyzer exports; exporting an
	// undeclared type panics. Analyzers with no entry are purely local.
	FactTypes []Fact

	// Finish, if set, runs once after every package pass, with the
	// whole-module fact store — the place for properties no single package
	// can see (a lock-acquisition cycle through three packages).
	Finish func(*ModulePass) error
}

// A Pass holds one analyzer's view of one loaded package.
type Pass struct {
	Analyzer *Analyzer

	Fset    *token.FileSet
	Files   []*ast.File
	Pkg     *types.Package
	PkgPath string
	Info    *types.Info

	// RelPath is PkgPath with the module prefix stripped — "internal/hdfs"
	// rather than "repro/internal/hdfs" — so path-scoped rules (wallclock's
	// allowlist, genbump's package scope) read the same against the real
	// tree and against fixture packages, whose paths have no module prefix.
	RelPath string

	// IsLocalPkg reports whether an import path belongs to the tree under
	// analysis (the module, or the fixture root in tests) rather than to
	// the standard library. errsink only polices local callees.
	IsLocalPkg func(path string) bool

	diags  *[]Diagnostic
	allows map[string][]allowDirective // filename → directives
	facts  *factSet
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	line     int    // line the comment sits on
	analyzer string // which analyzer it silences
	reason   string // non-empty; enforced at parse time
}

var (
	// allowHeadRe decides whether a comment IS a directive (as opposed to
	// prose or a doc example that merely mentions one): the comment text
	// must begin with lint:allow.
	allowHeadRe = regexp.MustCompile(`^//\s*lint:allow(\s|$)`)
	allowRe     = regexp.MustCompile(`^//\s*lint:allow\s+(\S+)\s*(.*)$`)
)

// parseAllows scans a file's comments for lint:allow directives. A
// directive silences matching diagnostics reported on its own line or on
// the line immediately below (the standalone-comment form). Malformed
// directives — a missing analyzer name is unmatchable, a missing reason is
// unauditable — are themselves reported, so a typo cannot silently widen
// an exemption.
func parseAllows(fset *token.FileSet, f *ast.File, report func(Diagnostic)) []allowDirective {
	var out []allowDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !allowHeadRe.MatchString(c.Text) {
				continue
			}
			m := allowRe.FindStringSubmatch(c.Text)
			pos := fset.Position(c.Pos())
			if m == nil {
				report(Diagnostic{Pos: pos, Analyzer: "allow",
					Message: "malformed lint:allow comment (want //lint:allow <analyzer> <reason>)"})
				continue
			}
			reason := strings.TrimSpace(m[2])
			if reason == "" {
				report(Diagnostic{Pos: pos, Analyzer: "allow",
					Message: fmt.Sprintf("lint:allow %s needs a reason — exceptions must be auditable", m[1])})
				continue
			}
			out = append(out, allowDirective{line: pos.Line, analyzer: m[1], reason: reason})
		}
	}
	return out
}

// allowed reports whether a diagnostic at pos from the named analyzer is
// suppressed by a lint:allow directive.
func (p *Pass) allowed(name string, pos token.Position) bool {
	for _, d := range p.allows[pos.Filename] {
		if d.analyzer == name && (d.line == pos.Line || d.line == pos.Line-1) {
			return true
		}
	}
	return false
}

// Reportf records a diagnostic unless a lint:allow directive covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// expandUniverse returns the requested packages plus their transitive
// module-local dependencies in dependency order (imports before
// importers), so a pass can import any fact a dependency's pass exported.
func expandUniverse(pkgs []*Package) []*Package {
	var order []*Package
	seen := make(map[*Package]bool)
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, dep := range p.Imports {
			visit(dep)
		}
		order = append(order, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return order
}

// RunAnalyzers applies each analyzer to each package and returns every
// diagnostic, sorted by position. Packages are analyzed in dependency
// order — including dependencies of the requested set, whose passes run
// facts-only (their diagnostics belong to runs that request them) — then
// each analyzer's Finish hook sees the whole module. Malformed lint:allow
// comments are reported once per package set regardless of which
// analyzers run.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	facts := newFactSet()
	requested := make(map[*Package]bool, len(pkgs))
	for _, p := range pkgs {
		requested[p] = true
	}
	universe := expandUniverse(pkgs)
	allAllows := make(map[string][]allowDirective)
	var fset *token.FileSet
	for _, pkg := range universe {
		fset = pkg.Fset
		var discard []Diagnostic
		sink := &diags
		if !requested[pkg] {
			sink = &discard
		}
		allows := make(map[string][]allowDirective)
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.Pos()).Filename
			allows[name] = parseAllows(pkg.Fset, f, func(d Diagnostic) { *sink = append(*sink, d) })
			allAllows[name] = allows[name]
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:   a,
				Fset:       pkg.Fset,
				Files:      pkg.Files,
				Pkg:        pkg.Types,
				PkgPath:    pkg.Path,
				Info:       pkg.Info,
				RelPath:    pkg.RelPath,
				IsLocalPkg: pkg.IsLocal,
				diags:      sink,
				allows:     allows,
				facts:      facts,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		mp := &ModulePass{
			Analyzer: a,
			Fset:     fset,
			Pkgs:     universe,
			facts:    facts,
			allows:   allAllows,
			diags:    &diags,
		}
		if err := a.Finish(mp); err != nil {
			return nil, fmt.Errorf("%s: finish: %v", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// All returns the full hailint suite in stable order: the three
// per-package rules, then the three whole-module dataflow analyzers built
// on the facts mechanism.
func All() []*Analyzer {
	return []*Analyzer{
		GenBump,
		WallClock,
		ErrSink,
		SigFlow,
		LockGraph,
		GoLeak,
	}
}

// ByName resolves a comma-separated analyzer list ("genbump,errsink").
func ByName(names string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
	}
	return out, nil
}
