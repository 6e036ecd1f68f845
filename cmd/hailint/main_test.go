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
	want := []string{"genbump", "wallclock", "errsink", "leaflock", "benchonly", "sigflow", "goleak"}
	if lines := strings.Split(strings.TrimSpace(out), "\n"); len(lines) != len(want) {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", len(lines), len(want), out)
	}
	for _, name := range want {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %s:\n%s", name, out)
		}
	}
}

// TestUnknownAnalyzer covers the usage errors: an unknown analyzer name —
// including the retired lockorder, atomicfield, spanend and lockgraph —
// and the retired -factdir flag each exit 2 and name the offender on
// stderr.
func TestUnknownAnalyzer(t *testing.T) {
	for _, c := range []struct {
		args []string
		name string // what stderr must mention
	}{
		{[]string{"-analyzers", "nonesuch"}, "nonesuch"},
		{[]string{"-analyzers", "lockorder"}, "lockorder"},
		{[]string{"-analyzers", "atomicfield"}, "atomicfield"},
		{[]string{"-analyzers", "spanend"}, "spanend"},
		{[]string{"-analyzers", "lockgraph"}, "lockgraph"},
		{[]string{"-factdir", "x"}, "factdir"},
	} {
		code, _, errOut := runCapture(t, c.args...)
		if code != 2 {
			t.Errorf("%v exited %d, want 2", c.args, code)
		}
		if !strings.Contains(errOut, c.name) {
			t.Errorf("%v: stderr does not name %s:\n%s", c.args, c.name, errOut)
		}
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
