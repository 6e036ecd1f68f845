package lint

import (
	"slices"
	"strings"
	"testing"
)

// testFact and otherFact are throwaway fact types for the store tests.
type testFact struct{ N int }

func (*testFact) AFact() {}

type otherFact struct{ S string }

func (*otherFact) AFact() {}

// TestFactExportImport drives the store end to end through a probe
// analyzer over the sigflow fixture, which imports the query fixture:
// object facts round-trip by value (the imported copy does not alias the
// store), and a dependent package's pass reads back the fact its
// dependency exported.
func TestFactExportImport(t *testing.T) {
	pkg, err := LoadFixture("testdata", "sigflow")
	if err != nil {
		t.Fatal(err)
	}
	imported := false
	probe := &Analyzer{
		Name:      "factprobe",
		Doc:       "test probe",
		FactTypes: []Fact{(*testFact)(nil)},
	}
	probe.Run = func(p *Pass) error {
		if p.PkgPath != "query" {
			// The dependent: query's fact arrives through the store.
			for _, dep := range p.Pkg.Imports() {
				if dep.Path() != "query" {
					continue
				}
				var of testFact
				if !p.ImportObjectFact(dep.Scope().Lookup("Query"), &of) || of.N != 7 {
					t.Errorf("cross-package object fact: got %+v, want N=7", of)
				}
				imported = true
			}
			return nil
		}
		obj := p.Pkg.Scope().Lookup("Query")
		if obj == nil {
			t.Fatal("fixture query package lost its Query type")
		}
		p.ExportObjectFact(obj, &testFact{N: 7})

		var f testFact
		if !p.ImportObjectFact(obj, &f) || f.N != 7 {
			t.Errorf("object fact round-trip: got %+v, want N=7", f)
		}
		f.N = 1000 // the import is a copy; the store must not see this
		var again testFact
		if !p.ImportObjectFact(obj, &again) || again.N != 7 {
			t.Errorf("imported fact aliases the store: got %+v after caller mutation", again)
		}
		if p.ImportObjectFact(nil, &f) {
			t.Error("ImportObjectFact(nil) reported a fact")
		}
		return nil
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{probe})
	if err != nil {
		t.Fatal(err)
	}
	if !imported {
		t.Fatal("the dependent package's pass never saw the query import")
	}
	if len(diags) != 0 {
		t.Fatalf("probe produced diagnostics: %v", diags)
	}
}

// TestUnregisteredFactPanics pins the FactTypes contract: exporting a
// fact type the analyzer never declared is a programming error, not a
// silent drop.
func TestUnregisteredFactPanics(t *testing.T) {
	pkg, err := LoadFixture("testdata", "query")
	if err != nil {
		t.Fatal(err)
	}
	rogue := &Analyzer{
		Name:      "rogue",
		Doc:       "exports an undeclared fact type",
		FactTypes: []Fact{(*testFact)(nil)},
		Run: func(p *Pass) error {
			p.ExportObjectFact(p.Pkg.Scope().Lookup("Query"), &otherFact{S: "undeclared"})
			return nil
		},
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("exporting an unregistered fact type did not panic")
		}
	}()
	_, _ = RunAnalyzers([]*Package{pkg}, []*Analyzer{rogue})
}

// TestUniverseOrder pins the dependency-ordered analysis contract the
// whole facts mechanism rests on: a requested package's module-local
// dependencies are analyzed first (so their facts exist on import), and
// their diagnostics are discarded — they belong to runs that request
// those packages.
func TestUniverseOrder(t *testing.T) {
	var pkgs []*Package
	for _, path := range []string{"sigflow", "goleak"} {
		pkg, err := LoadFixture("testdata", path)
		if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}
	var order []string
	marker := &Analyzer{
		Name: "marker",
		Doc:  "records analysis order",
		Run: func(p *Pass) error {
			order = append(order, p.PkgPath)
			p.Reportf(p.Files[0].Pos(), "marker for %s", p.PkgPath)
			return nil
		},
	}
	diags, err := RunAnalyzers(pkgs, []*Analyzer{marker})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"query", "sigflow", "work", "goleak"}; !slices.Equal(order, want) {
		t.Fatalf("analysis order %v, want %v (imports before importers)", order, want)
	}
	if len(diags) != 2 || !strings.Contains(diags[0].Message, "goleak") || !strings.Contains(diags[1].Message, "sigflow") {
		t.Fatalf("diagnostics %v, want only the requested packages' markers", diags)
	}
}
