package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runCapture invokes run with stdout/stderr redirected to temp files.
func runCapture(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	outF, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	errF, err := os.CreateTemp(t.TempDir(), "err")
	if err != nil {
		t.Fatal(err)
	}
	code = run(args, outF, errF)
	outB, err := os.ReadFile(outF.Name())
	if err != nil {
		t.Fatal(err)
	}
	errB, err := os.ReadFile(errF.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(outB), string(errB)
}

// writeModule lays down a throwaway module for hermetic CLI runs.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		p := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestList(t *testing.T) {
	code, out, _ := runCapture(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	for _, name := range []string{"spanend", "genbump", "lockorder", "wallclock", "atomicfield", "errsink", "sigflow", "lockgraph", "goleak"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	code, _, errOut := runCapture(t, "-analyzers", "nonesuch")
	if code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2", code)
	}
	if !strings.Contains(errOut, "nonesuch") {
		t.Errorf("stderr does not name the unknown analyzer:\n%s", errOut)
	}
}

func TestViolationsExitOne(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module smoketest\n\ngo 1.24\n",
		"sink.go": `package smoketest

func save() error { return nil }

func use() {
	save()
}
`,
	})
	code, out, _ := runCapture(t, "-C", dir, "./...")
	if code != 1 {
		t.Fatalf("violating module exited %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "[errsink]") || !strings.Contains(out, "save") {
		t.Errorf("missing errsink diagnostic in output:\n%s", out)
	}
}

func TestCleanExitZero(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module smoketest\n\ngo 1.24\n",
		"sink.go": `package smoketest

func save() error { return nil }

func use() error {
	return save()
}
`,
		// A nested module is not part of "./..." (go list's rule): its
		// violation must not fail the enclosing module's run.
		"nested/go.mod": "module smoketest/nested\n\ngo 1.24\n",
		"nested/sink.go": `package nested

func save() error { return nil }

func use() {
	save()
}
`,
	})
	code, out, errOut := runCapture(t, "-C", dir, "./...")
	if code != 0 {
		t.Fatalf("clean module exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
}

func TestAnalyzerSubset(t *testing.T) {
	// The same violating module is clean when the flag deselects errsink.
	dir := writeModule(t, map[string]string{
		"go.mod": "module smoketest\n\ngo 1.24\n",
		"sink.go": `package smoketest

func save() error { return nil }

func use() {
	save()
}
`,
	})
	code, out, _ := runCapture(t, "-C", dir, "-analyzers", "wallclock", "./...")
	if code != 0 {
		t.Fatalf("subset run exited %d:\n%s", code, out)
	}
}

func TestJSONOutput(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module smoketest\n\ngo 1.24\n",
		"sink.go": `package smoketest

func save() error { return nil }

func use() {
	save()
}
`,
	})
	code, out, _ := runCapture(t, "-C", dir, "-json", "./...")
	if code != 1 {
		t.Fatalf("violating module exited %d, want 1\n%s", code, out)
	}
	var diags []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Col      int    `json:"col"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(out), &diags); err != nil {
		t.Fatalf("stdout is not a JSON diagnostic array: %v\n%s", err, out)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d JSON diagnostics, want 1:\n%s", len(diags), out)
	}
	d := diags[0]
	if d.Analyzer != "errsink" || d.Line == 0 || d.Col == 0 ||
		!strings.HasSuffix(d.File, "sink.go") || !strings.Contains(d.Message, "save") {
		t.Errorf("JSON diagnostic fields wrong: %+v", d)
	}

	// A clean run must still emit valid JSON: the empty array, not "null".
	clean := writeModule(t, map[string]string{
		"go.mod":  "module smoketest\n\ngo 1.24\n",
		"sink.go": "package smoketest\n",
	})
	code, out, _ = runCapture(t, "-C", clean, "-json", "./...")
	if code != 0 {
		t.Fatalf("clean module exited %d", code)
	}
	if strings.TrimSpace(out) != "[]" {
		t.Errorf("clean -json output = %q, want []", out)
	}
}

func TestFactDir(t *testing.T) {
	// Two packages: dep exports a goleak nontermination fact and a
	// sigflow-free body; app imports dep. The dump for dep must carry the
	// goleak object fact, proving the CLI surfaces the cross-package
	// dataflow the analyzers ran on.
	dir := writeModule(t, map[string]string{
		"go.mod": "module smoketest\n\ngo 1.24\n",
		"dep/dep.go": `package dep

// Forever never returns.
func Forever() {
	for {
	}
}
`,
		"app/app.go": `package app

import "smoketest/dep"

// Use references the dependency so both packages load.
func Use() { _ = dep.Forever }
`,
	})
	facts := filepath.Join(t.TempDir(), "facts")
	code, out, errOut := runCapture(t, "-C", dir, "-factdir", facts, "./...")
	if code != 0 {
		t.Fatalf("exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	b, err := os.ReadFile(filepath.Join(facts, "smoketest__dep.facts.json"))
	if err != nil {
		t.Fatalf("fact dump for dep not written: %v", err)
	}
	var doc map[string]map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("fact dump is not valid JSON: %v\n%s", err, b)
	}
	if _, ok := doc["goleak"]["obj:Forever"]; !ok {
		t.Errorf("dep fact dump missing goleak's obj:Forever nontermination fact:\n%s", b)
	}
	if _, err := os.Stat(filepath.Join(facts, "smoketest__app.facts.json")); err != nil {
		t.Errorf("fact dump for app not written: %v", err)
	}
}
