package lint

import (
	"context"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// auditMutations are the one-line mistakes each analyzer exists to catch,
// seeded into a copy of the real tree. old must occur exactly once in file
// (some anchors carry a neighbouring line to be unique); new replaces it.
// A mistake that no analyzer catches any more names, instead, the test of
// the mutated package that catches it fast.
var auditMutations = []struct {
	name     string    // subtest name
	analyzer *Analyzer // nil when test catches the mistake
	test     string
	what     string
	file     string // slash path from the module root
	old, new string
}{
	{"genbump", GenBump, "", "UpdateReplica stops firing the change hook",
		"internal/hdfs/namenode.go",
		"nn.updateReplica(b, node, info, false); err != nil {\n\t\treturn err\n\t}\n\tnn.notifyChanged(nn.hook(), b)\n",
		"nn.updateReplica(b, node, info, false); err != nil {\n\t\treturn err\n\t}\n"},
	{"wallclock", WallClock, "", "a bare wall-clock read on the engine's decision path",
		"internal/mapred/engine.go",
		"\tcc := e.cacheContext(job)\n", "\tcc := e.cacheContext(job)\n\t_ = time.Now()\n"},
	{"goleak", GoLeak, "", "persistLoop ignores its stop channel",
		"internal/server/server.go",
		"\t\tcase <-s.stop:\n\t\t\treturn\n", "\t\tcase <-s.stop:\n\t\t\tcontinue\n"},
	{"errsink", ErrSink, "", "the periodic save's error is dropped",
		"internal/server/server.go",
		"if err := s.persist(); err != nil {", "if s.persist(); false {"},
	{"benchonly", BenchOnly, "", "the engine keys a block's cache entry by the split's Replica map, not its Pins",
		"internal/mapred/engine.go",
		"if k.Replica = split.Pin(i);", "if k.Replica = split.Replica[split.Blocks[i]];"},
	{"sigflow", SigFlow, "", "QuerySignature keys only the filter, not the projection",
		"internal/core/inputformat.go",
		"return f.Query.Signature(), true", "return fmt.Sprint(f.Query.Filter), true"},
	{"lockgraph_shard", LeafLock, "", "a namenode lookup inside registerReplica's locked section",
		"internal/hdfs/namenode.go",
		"\tif _, dup := nn.reps[key]; !dup {\n", "\t_ = nn.GetHosts(b)\n\tif _, dup := nn.reps[key]; !dup {\n"},
	{"lockgraph_datanode", LeafLock, "", "a namenode lookup inside WriteBlock's datanode section",
		"internal/hdfs/cluster.go",
		"\t\t\tdn.packetsRecv++\n", "\t\t\tdn.packetsRecv++\n\t\t\t_ = c.nn.GetHosts(id)\n"},
	{"lockgraph_cycle", nil, "TestSaveConcurrentWithUploads", "a save report read inside storeReplica's storeMu section, against Save's saveMu → storeMu",
		"internal/hdfs/cluster.go",
		"\tc.storeMu.RLock()\n\terr := dn.flush(b, data, sums)\n",
		"\tc.storeMu.RLock()\n\t_ = c.LastSaveReport()\n\terr := dn.flush(b, data, sums)\n"},
}

// TestMutationAudit holds every analyzer to its keep on the real tree, not
// on a fixture: a copy of the module must be clean under the whole suite,
// and each analyzer must report on the file its seeded mutation touched.
// An analyzer no plausible one-line mistake in today's tree can trigger
// has nothing left to guard. Each case loads only the mutated package
// (and what it imports). A case that names a test instead runs it on the
// mutated copy, which must fail within testDeadline. Every load
// type-checks the standard library from source again, so -short skips the
// audit; CI's lint lane runs it.
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

			if m.analyzer == nil {
				auditByTest(t, filepath.Dir(file), m.test, m.what)
				return
			}
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

// testDeadline is how long a test that an audit case names may take to
// fail on the mutated copy, not counting its build.
const testDeadline = 10 * time.Second

// auditByTest builds the tests of the mutated package in dir, runs the one
// named under -short and asserts that it fails within testDeadline.
func auditByTest(t *testing.T, dir, test, what string) {
	bin := filepath.Join(t.TempDir(), "pkg.test")
	build := exec.Command("go", "test", "-c", "-o", bin, ".")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("mutated package does not build its tests: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 6*testDeadline)
	defer cancel()
	run := exec.CommandContext(ctx, bin, "-test.short", "-test.count=1", "-test.run", "^"+test+"$")
	run.Dir = dir
	start := time.Now()
	out, err := run.CombinedOutput()
	took := time.Since(start).Round(time.Millisecond)
	switch {
	case err == nil:
		t.Errorf("%s passed with %s:\n%s", test, what, out)
	case took > testDeadline:
		t.Errorf("%s took %v to fail with %s, want under %v:\n%s", test, took, what, testDeadline, out)
	default:
		t.Logf("%s failed with %s in %v", test, what, took)
	}
}

// copyModule copies the module at src — go.mod, its Go files and their
// testdata, without bench/ (its own module) or dot directories — into a
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
			if rel != "." && (rel == "bench" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "go.mod" && !strings.HasSuffix(name, ".go") && !strings.Contains(rel, "testdata") {
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
