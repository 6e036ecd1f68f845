package lint

import (
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
// object and package facts round-trip by value (the imported copy does not
// alias the store), a dependent package's pass reads back both facts its
// dependency exported, and the Finish phase sees every package fact.
func TestFactExportImport(t *testing.T) {
	pkg, err := LoadFixture("testdata", "sigflow")
	if err != nil {
		t.Fatal(err)
	}
	finished, imported := false, false
	probe := &Analyzer{
		Name:      "factprobe",
		Doc:       "test probe",
		FactTypes: []Fact{(*testFact)(nil)},
	}
	probe.Run = func(p *Pass) error {
		if p.PkgPath != "query" {
			// The dependent: both of query's facts arrive through the store.
			for _, dep := range p.Pkg.Imports() {
				if dep.Path() != "query" {
					continue
				}
				var of, pf testFact
				if !p.ImportObjectFact(dep.Scope().Lookup("Query"), &of) || of.N != 7 {
					t.Errorf("cross-package object fact: got %+v, want N=7", of)
				}
				if !p.ImportPackageFact(dep, &pf) || pf.N != 9 {
					t.Errorf("cross-package package fact: got %+v, want N=9", pf)
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
		p.ExportPackageFact(&testFact{N: 9})

		var f testFact
		if !p.ImportObjectFact(obj, &f) || f.N != 7 {
			t.Errorf("object fact round-trip: got %+v, want N=7", f)
		}
		f.N = 1000 // the import is a copy; the store must not see this
		var again testFact
		if !p.ImportObjectFact(obj, &again) || again.N != 7 {
			t.Errorf("imported fact aliases the store: got %+v after caller mutation", again)
		}
		var pf testFact
		if !p.ImportPackageFact(p.Pkg, &pf) || pf.N != 9 {
			t.Errorf("package fact round-trip: got %+v, want N=9", pf)
		}
		if p.ImportObjectFact(nil, &f) {
			t.Error("ImportObjectFact(nil) reported a fact")
		}
		return nil
	}
	probe.Finish = func(mp *ModulePass) error {
		finished = true
		pfs := mp.AllPackageFacts()
		if len(pfs) != 1 || pfs[0].Fact.(*testFact).N != 9 {
			t.Errorf("Finish sees %d package facts, want the one with N=9", len(pfs))
		}
		var f testFact
		if !mp.ImportPackageFact(pfs[0].Pkg, &f) || f.N != 9 {
			t.Errorf("ModulePass.ImportPackageFact: got %+v", f)
		}
		return nil
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{probe})
	if err != nil {
		t.Fatal(err)
	}
	if !finished {
		t.Fatal("Finish hook never ran")
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
			p.ExportPackageFact(&otherFact{S: "undeclared"})
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
	pkg, err := LoadFixture("testdata", "lockgraph")
	if err != nil {
		t.Fatal(err)
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
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{marker})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "lockz" || order[1] != "lockgraph" {
		t.Fatalf("analysis order %v, want [lockz lockgraph] (imports before importers)", order)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "lockgraph") {
		t.Fatalf("diagnostics %v, want only the requested package's marker", diags)
	}
}
