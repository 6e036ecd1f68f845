package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The fixture harness mirrors golang.org/x/tools/go/analysis/analysistest:
// packages under testdata/src/<name> annotate expected diagnostics with
//
//	offending() // want `regexp`
//
// comments (block-comment form /* want `re` */ included, for lines whose
// trailing line comment is already taken by a lint:allow directive). Every
// diagnostic must match a want on its line and every want must be hit.

func TestGenBump(t *testing.T)   { testFixture(t, GenBump, "genbump") }
func TestWallClock(t *testing.T) { testFixture(t, WallClock, "wallclock") }
func TestErrSink(t *testing.T)   { testFixture(t, ErrSink, "errsink") }
func TestBenchOnly(t *testing.T) { testFixture(t, BenchOnly, "benchonly") }
func TestLeafLock(t *testing.T)  { testFixture(t, LeafLock, "leaflock") }

// The whole-module dataflow analyzers: each fixture imports a model
// dependency package (query, work) that RunAnalyzers pulls into the
// universe and analyzes facts-only, so the true positives below are
// caught through cross-package facts, not single-package inspection.
func TestSigFlow(t *testing.T) { testFixture(t, SigFlow, "sigflow") }
func TestGoLeak(t *testing.T)  { testFixture(t, GoLeak, "goleak") }

// TestAllowDirectives drives the suppression machinery end to end:
// same-line and line-above directives silence, wrong-analyzer and
// out-of-range ones do not, and malformed directives are themselves
// diagnostics.
func TestAllowDirectives(t *testing.T) { testFixture(t, ErrSink, "allow") }

func testFixture(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	pkg, err := LoadFixture("testdata", path)
	if err != nil {
		t.Fatalf("loading fixture %q: %v", path, err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %q: %v", a.Name, path, err)
	}
	wants := fixtureExpectations(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %q has no want comments: it cannot demonstrate a caught violation", path)
	}
	for _, d := range diags {
		if !claimWant(wants, d.Pos, d.Message) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// claimWant marks the first unhit expectation on the diagnostic's line
// whose pattern matches, reporting success.
func claimWant(wants []*expectation, pos token.Position, msg string) bool {
	for _, w := range wants {
		if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(msg) {
			w.hit = true
			return true
		}
	}
	return false
}

// fixtureExpectations parses want comments out of a loaded fixture. A
// want comment's body (after the // or /* marker) must begin with "want",
// followed by one or more quoted regexps.
func fixtureExpectations(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body := c.Text
				switch {
				case strings.HasPrefix(body, "//"):
					body = strings.TrimSpace(body[2:])
				case strings.HasPrefix(body, "/*"):
					body = strings.TrimSpace(strings.TrimSuffix(body[2:], "*/"))
				}
				rest, ok := strings.CutPrefix(body, "want ")
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, pat := range splitQuoted(t, pos, rest) {
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
					}
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return out
}

// splitQuoted splits `a` "b" ... into unquoted segments.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	for s = strings.TrimSpace(s); s != ""; s = strings.TrimSpace(s) {
		q := s[0]
		if q != '`' && q != '"' {
			t.Fatalf("%s:%d: want patterns must be quoted with ` or \": %q", pos.Filename, pos.Line, s)
		}
		end := strings.IndexByte(s[1:], q)
		if end < 0 {
			t.Fatalf("%s:%d: unterminated want pattern: %q", pos.Filename, pos.Line, s)
		}
		lit := s[:end+2]
		unq, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, lit, err)
		}
		out = append(out, unq)
		s = s[end+2:]
	}
	return out
}

// TestByName covers the analyzer registry the CLI's -analyzers flag uses.
func TestByName(t *testing.T) {
	got, err := ByName("genbump, errsink")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != GenBump || got[1] != ErrSink {
		t.Fatalf("ByName returned %v", names(got))
	}
	if _, err := ByName("nonesuch"); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

func names(as []*Analyzer) []string {
	var out []string
	for _, a := range as {
		out = append(out, a.Name)
	}
	return out
}

// TestDiagnosticOrder pins the sorted output contract the CLI and CI rely
// on for stable diffs.
func TestDiagnosticOrder(t *testing.T) {
	pkg, err := LoadFixture("testdata", "errsink")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers([]*Package{pkg}, []*Analyzer{ErrSink})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line {
			t.Fatalf("diagnostics out of order: %s before %s", a, b)
		}
	}
	if len(diags) > 0 {
		want := fmt.Sprintf("%s:%d:%d: [errsink] %s",
			diags[0].Pos.Filename, diags[0].Pos.Line, diags[0].Pos.Column, diags[0].Message)
		if diags[0].String() != want {
			t.Fatalf("Diagnostic.String() = %q, want %q", diags[0].String(), want)
		}
	}
}
