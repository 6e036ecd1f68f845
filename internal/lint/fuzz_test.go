package lint

import (
	"os"
	"path/filepath"
	"testing"
)

// The loader is fed arbitrary on-disk source by the CLIs; go/parser and
// go/types both have histories of crashers on exotic inputs, and a panic
// would take hailint down mid-CI with no diagnostic. LoadModule and
// LoadFixture therefore convert panics into load errors
// (recoverLoadPanic), and these fuzz targets pin that contract: any
// byte sequence may fail to load, but must never panic. `go test` runs
// the seed corpus; `go test -fuzz FuzzLoadFixture ./internal/lint`
// explores from there.

var fuzzSeeds = []string{
	"",
	"package p\n",
	"package p\nfunc f() {",
	"package p\nimport \"nonesuch\"\nvar x = nonesuch.X\n",
	"package p\ntype T struct{ T }\n",
	"package p\nfunc f() { go func() { for {} }() }\n",
	"package p\nvar mu sync.Mutex\n",
	"package p\n//lint:allow\nfunc f() {}\n",
	"package p\n/* want `x` */\n",
	"package p\ntype C chan C\nfunc f(c C) { c <- c }\n",
	"package p\nconst c = 1 << 1000\nvar x = [c]int{}\n",
	"\xff\xfe invalid utf8",
	"package p\nfunc (r) m() {}\n",
	"package p\ngeneric nonsense ::= {",
}

func FuzzLoadFixture(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		root := t.TempDir()
		dir := filepath.Join(root, "src", "fuzzpkg")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "fuzz.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		// Must not panic; errors are the expected failure mode.
		pkg, err := LoadFixture(root, "fuzzpkg")
		if err != nil {
			return
		}
		// A package that loads must also survive the full suite, facts
		// included — the analyzers walk the same exotic AST.
		_, _ = RunAnalyzers([]*Package{pkg}, All())
	})
}

func FuzzLoadModule(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		root := t.TempDir()
		if err := os.WriteFile(filepath.Join(root, "go.mod"), []byte("module fuzzmod\n\ngo 1.24\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, "main.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadModule(root, []string{"./..."}); err != nil {
			return
		}
	})
}
