package lint

import (
	"fmt"
	"go/types"
	"reflect"
)

// A Fact is a typed datum an analyzer attaches to a types.Object while
// analyzing the package that declares it, and reads back when analyzing
// a dependent package — the dependency-free mirror of
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

// A factSet is the in-memory fact store for one RunAnalyzers call.
type factSet map[objFactKey]Fact

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

func (fs factSet) exportObject(a *Analyzer, obj types.Object, fact Fact) {
	if obj == nil {
		panic(fmt.Sprintf("lint: %s: ExportObjectFact on nil object", a.Name))
	}
	fs[objFactKey{a, obj, validFact(a, fact)}] = fact
}

func (fs factSet) importObject(a *Analyzer, obj types.Object, fact Fact) bool {
	if obj == nil {
		return false
	}
	got, ok := fs[objFactKey{a, obj, validFact(a, fact)}]
	if !ok {
		return false
	}
	copyFact(fact, got)
	return true
}

// ExportObjectFact attaches a fact to obj for dependent packages' passes
// to read.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.facts.exportObject(p.Analyzer, obj, fact)
}

// ImportObjectFact copies the fact of fact's type attached to obj into
// fact, reporting whether one was found.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	return p.facts.importObject(p.Analyzer, obj, fact)
}
