package lint

import (
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// auditMutations are the one-line mistakes each analyzer exists to catch,
// seeded into a copy of the real tree. old must occur exactly once in file
// (some anchors carry a neighbouring line to be unique); new replaces it.
var auditMutations = []struct {
	name     string // subtest name
	analyzer *Analyzer
	what     string
	file     string // slash path from the module root
	old, new string
}{
	{"genbump", GenBump, "UpdateReplica stops firing the change hook",
		"internal/hdfs/namenode.go",
		"nn.updateReplica(b, node, info, false); err != nil {\n\t\treturn err\n\t}\n\tnn.notifyChanged(nn.hook(), b)\n",
		"nn.updateReplica(b, node, info, false); err != nil {\n\t\treturn err\n\t}\n"},
	{"wallclock", WallClock, "a bare wall-clock read on the engine's decision path",
		"internal/mapred/engine.go",
		"\tcc := e.cacheContext(job)\n", "\tcc := e.cacheContext(job)\n\t_ = time.Now()\n"},
	{"goleak", GoLeak, "persistLoop ignores its stop channel",
		"internal/server/server.go",
		"\t\tcase <-s.stop:\n\t\t\treturn\n", "\t\tcase <-s.stop:\n\t\t\tcontinue\n"},
	{"errsink", ErrSink, "the periodic save's error is dropped",
		"internal/server/server.go",
		"if err := s.persist(); err != nil {", "if s.persist(); false {"},
	{"sigflow", SigFlow, "QuerySignature keys only the filter, not the projection",
		"internal/core/inputformat.go",
		"return f.Query.Signature(), true", "return fmt.Sprint(f.Query.Filter), true"},
	{"lockgraph_shard", LockGraph, "a namenode lookup inside registerReplica's locked section",
		"internal/hdfs/namenode.go",
		"\tif _, dup := nn.reps[key]; !dup {\n", "\t_ = nn.GetHosts(b)\n\tif _, dup := nn.reps[key]; !dup {\n"},
	{"lockgraph_datanode", LockGraph, "a namenode lookup inside WriteBlock's datanode section",
		"internal/hdfs/cluster.go",
		"\t\t\tdn.packetsRecv++\n", "\t\t\tdn.packetsRecv++\n\t\t\t_ = c.nn.GetHosts(id)\n"},
}

// TestMutationAudit holds every analyzer to its keep on the real tree, not
// on a fixture: a copy of the module must be clean under the whole suite,
// and each analyzer must report on the file its seeded mutation touched.
// An analyzer no plausible one-line mistake in today's tree can trigger
// has nothing left to guard. Each case loads only the mutated package
// (and what it imports). Every load type-checks the standard library from
// source again, so -short skips the audit; CI's lint lane runs it.
func TestMutationAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("mutation audit skipped in -short mode")
	}
	root := copyModule(t, filepath.Join("..", ".."))
	start := time.Now()
	pkgs, err := LoadModule(root, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunAnalyzers(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("unmodified tree: %s", d)
	}
	t.Logf("unmodified tree: %d packages, %d diagnostics, %v", len(pkgs), len(diags), time.Since(start).Round(time.Millisecond))

	covered := make(map[*Analyzer]bool)
	for _, m := range auditMutations {
		covered[m.analyzer] = true
		t.Run(m.name, func(t *testing.T) {
			file := filepath.Join(root, filepath.FromSlash(m.file))
			orig, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(orig), m.old); n != 1 {
				t.Fatalf("%s: anchor %q occurs %d times, want exactly 1 — re-anchor this mutation", m.file, m.old, n)
			}
			mutated := strings.Replace(string(orig), m.old, m.new, 1)
			if err := os.WriteFile(file, []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(file, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()

			start := time.Now()
			pkgs, err := LoadModule(root, []string{"./" + path.Dir(m.file)})
			if err != nil {
				t.Fatalf("mutated tree does not load: %v", err)
			}
			diags, err := RunAnalyzers(pkgs, []*Analyzer{m.analyzer})
			if err != nil {
				t.Fatal(err)
			}
			fired := false
			for _, d := range diags {
				fired = fired || d.Pos.Filename == file
			}
			if !fired {
				t.Errorf("%s did not report %s (%s); diagnostics: %v", m.analyzer.Name, m.what, m.file, diags)
			}
			t.Logf("%s: %s — %d diagnostic(s), %v", m.file, m.what, len(diags), time.Since(start).Round(time.Millisecond))
		})
	}
	for _, a := range All() {
		if !covered[a] {
			t.Errorf("analyzer %s has no audit mutation", a.Name)
		}
	}
}

// copyModule copies the module at src — go.mod and its non-test Go files,
// without bench/ (its own module), testdata or dot directories — into a
// temporary directory and returns it.
func copyModule(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	err := filepath.WalkDir(src, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if rel != "." && (rel == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && (!strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go")) {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		return os.WriteFile(out, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dst
}
