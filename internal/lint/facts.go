package lint

import (
	"fmt"
	"go/token"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a typed datum an analyzer attaches to a types.Object or a
// package while analyzing the package that declares it, and reads back
// when analyzing a dependent package — the dependency-free mirror of
// golang.org/x/tools/go/analysis facts. Because every package in one run
// is type-checked by one shared loader, object identity is stable across
// packages and the store can live in memory; RunAnalyzers guarantees
// dependencies are analyzed before dependents, so by the time a pass
// imports a fact the exporting pass has already run.
//
// Fact types must be pointers to structs and must be registered in the
// owning Analyzer's FactTypes — exporting an unregistered fact type is a
// programming error and panics.
type Fact interface {
	AFact()
}

type objFactKey struct {
	a   *Analyzer
	obj types.Object
	t   reflect.Type
}

type pkgFactKey struct {
	a   *Analyzer
	pkg *types.Package
	t   reflect.Type
}

// A factSet is the in-memory fact store for one RunAnalyzers call.
type factSet struct {
	obj map[objFactKey]Fact
	pkg map[pkgFactKey]Fact
}

func newFactSet() *factSet {
	return &factSet{
		obj: make(map[objFactKey]Fact),
		pkg: make(map[pkgFactKey]Fact),
	}
}

// validFact panics unless fact is a registered pointer fact type of a.
func validFact(a *Analyzer, fact Fact) reflect.Type {
	t := reflect.TypeOf(fact)
	if t == nil || t.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("lint: %s: fact %T must be a pointer", a.Name, fact))
	}
	for _, ft := range a.FactTypes {
		if reflect.TypeOf(ft) == t {
			return t
		}
	}
	panic(fmt.Sprintf("lint: %s: fact type %T not declared in FactTypes", a.Name, fact))
}

// copyFact copies the stored fact's value into the caller's pointer.
func copyFact(dst, src Fact) {
	reflect.ValueOf(dst).Elem().Set(reflect.ValueOf(src).Elem())
}

func (fs *factSet) exportObject(a *Analyzer, obj types.Object, fact Fact) {
	if obj == nil {
		panic(fmt.Sprintf("lint: %s: ExportObjectFact on nil object", a.Name))
	}
	fs.obj[objFactKey{a, obj, validFact(a, fact)}] = fact
}

func (fs *factSet) importObject(a *Analyzer, obj types.Object, fact Fact) bool {
	if obj == nil {
		return false
	}
	got, ok := fs.obj[objFactKey{a, obj, validFact(a, fact)}]
	if !ok {
		return false
	}
	copyFact(fact, got)
	return true
}

func (fs *factSet) exportPackage(a *Analyzer, pkg *types.Package, fact Fact) {
	fs.pkg[pkgFactKey{a, pkg, validFact(a, fact)}] = fact
}

func (fs *factSet) importPackage(a *Analyzer, pkg *types.Package, fact Fact) bool {
	got, ok := fs.pkg[pkgFactKey{a, pkg, validFact(a, fact)}]
	if !ok {
		return false
	}
	copyFact(fact, got)
	return true
}

// ExportObjectFact attaches a fact to obj for dependent packages' passes
// (and the module Finish phase) to read.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.facts.exportObject(p.Analyzer, obj, fact)
}

// ImportObjectFact copies the fact of fact's type attached to obj into
// fact, reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.importObject(p.Analyzer, obj, fact)
}

// ExportPackageFact attaches a fact to the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts.exportPackage(p.Analyzer, p.Pkg, fact)
}

// ImportPackageFact copies the fact of fact's type attached to pkg into
// fact, reporting whether one was found.
func (p *Pass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	return p.facts.importPackage(p.Analyzer, pkg, fact)
}

// A PackageFact pairs a package with one fact attached to it.
type PackageFact struct {
	Pkg  *types.Package
	Fact Fact
}

// A ModulePass is the view an analyzer's Finish hook gets after every
// package pass has run: the whole-module fact store plus allow-aware
// reporting. Module-phase diagnostics (a lock cycle spanning three
// packages has no single home package) are positioned at a representative
// site and respect lint:allow directives on that site like any other.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package

	facts  *factSet
	allows map[string][]allowDirective
	diags  *[]Diagnostic
}

// AllPackageFacts returns every package fact exported by this analyzer,
// sorted by package path for deterministic module-phase output.
func (mp *ModulePass) AllPackageFacts() []PackageFact {
	var out []PackageFact
	for k, f := range mp.facts.pkg {
		if k.a == mp.Analyzer {
			out = append(out, PackageFact{Pkg: k.pkg, Fact: f})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pkg.Path() < out[j].Pkg.Path() })
	return out
}

// ImportPackageFact reads one package's fact, as in a package pass.
func (mp *ModulePass) ImportPackageFact(pkg *types.Package, fact Fact) bool {
	return mp.facts.importPackage(mp.Analyzer, pkg, fact)
}

// ReportfAt records a module-phase diagnostic at a previously resolved
// position (facts carry token.Position, not token.Pos, so no package's
// FileSet is needed), honoring lint:allow directives at that position.
func (mp *ModulePass) ReportfAt(pos token.Position, format string, args ...any) {
	for _, d := range mp.allows[pos.Filename] {
		if d.analyzer == mp.Analyzer.Name && (d.line == pos.Line || d.line == pos.Line-1) {
			return
		}
	}
	*mp.diags = append(*mp.diags, Diagnostic{
		Pos:      pos,
		Analyzer: mp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}
