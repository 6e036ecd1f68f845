package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestBenchAdaptiveSmoke drives the bench main path end to end: a quick
// fixture upload, a short adaptive job sequence, and the report printout.
func TestBenchAdaptiveSmoke(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-quick", "-adaptive", "-jobs", "3", "-offer-rate", "0.5"}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{"FigAdaptive", "job1", "job3", "idx splits [%]", "offer rate 0.50"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

// TestBenchLifecycleSmoke drives -adaptive's second phase end to end — the
// workload shift with evictions, at the CI lane's (jobs, rate) — and checks
// the printout and the JSON artifact.
func TestBenchLifecycleSmoke(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_adaptive.json")
	var out, errb bytes.Buffer
	err := run([]string{"-quick", "-adaptive", "-jobs", "5", "-offer-rate", "0.5", "-json", jsonPath}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{"FigAdaptiveShift", "job11", "evicted", "workload shift"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	raw := matchGolden(t, "adaptive.quick.json", jsonPath)
	var rep experiments.AdaptiveReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad JSON artifact: %v", err)
	}
	if len(rep.Jobs) != 5 || len(rep.Shift) != 6 {
		t.Fatalf("artifact has %d + %d jobs, want 5 + 6", len(rep.Jobs), len(rep.Shift))
	}
	evicted := 0
	for _, j := range rep.Shift {
		evicted += j.Evicted
	}
	if last := rep.Shift[5]; last.IndexScanFraction != 1 || evicted == 0 {
		t.Errorf("artifact shift implausible: frac %.2f, evicted %d", last.IndexScanFraction, evicted)
	}
}

func TestBenchBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-adaptive", "-workload", "nope"}, &out, &errb); err == nil {
		t.Fatal("run accepted an unknown workload")
	}
	if err := run([]string{"-no-such-flag"}, &out, &errb); err == nil {
		t.Fatal("run accepted an unknown flag")
	}
	if err := run([]string{"-adaptive", "-only", "Fig4a"}, &out, &errb); err == nil {
		t.Fatal("run accepted -adaptive with -only")
	}
	if err := run([]string{"-jobs", "3"}, &out, &errb); err == nil {
		t.Fatal("run accepted -jobs without -adaptive")
	}
	for _, rate := range []string{"0", "-1", "1.5"} {
		if err := run([]string{"-adaptive", "-offer-rate", rate}, &out, &errb); !errors.Is(err, errUsage) {
			t.Errorf("-offer-rate %s: err = %v, want the usage error", rate, err)
		}
	}
	// An unknown -only ID is a usage error naming it, before any fixture
	// is built: IDs match exactly, so a typo must not run nothing and
	// write an empty artifact.
	jsonPath := filepath.Join(t.TempDir(), "out.json")
	for _, ids := range []string{"Fig99", "Fig99,fig4a"} {
		out.Reset()
		err := run([]string{"-quick", "-only", ids, "-json", jsonPath}, &out, &errb)
		if !errors.Is(err, errUsage) || !strings.Contains(err.Error(), `"Fig99"`) {
			t.Errorf("-only %s: err = %v, want the usage error naming \"Fig99\"", ids, err)
		}
		if ids == "Fig99,fig4a" && (err == nil || !strings.Contains(err.Error(), `"fig4a"`)) {
			t.Errorf("-only %s: err = %v does not name \"fig4a\"", ids, err)
		}
		if out.Len() > 0 {
			t.Errorf("-only %s ran experiments:\n%s", ids, out.String())
		}
		if _, err := os.Stat(jsonPath); !os.IsNotExist(err) {
			t.Errorf("-only %s wrote an artifact", ids)
		}
	}
}

// TestBenchCacheSmoke drives the result-cache trajectory end to end and
// checks the JSON artifact side channel.
func TestBenchCacheSmoke(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_cache.json")
	var out, errb bytes.Buffer
	err := run([]string{"-quick", "-cache", "-jobs", "4", "-offer-rate", "0.5", "-json", jsonPath}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{"FigCache", "cache hits [%]", "invalidated", "hot job answers"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	raw := matchGolden(t, "cache.quick.json", jsonPath)
	var rep experiments.CacheReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad JSON artifact: %v", err)
	}
	if len(rep.Jobs) != 4 || rep.Jobs[1].HitRate < 0.9 {
		t.Errorf("artifact trajectory implausible: %+v", rep.Jobs)
	}
}

// TestBenchDispatchSmoke drives the scan-split packing experiment end to
// end: -dispatch runs the packed-vs-unpacked comparison with its
// failover phase and writes the dispatch JSON artifact.
func TestBenchDispatchSmoke(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_dispatch.json")
	var out, errb bytes.Buffer
	err := run([]string{"-quick", "-dispatch", "-json", jsonPath}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{"FigDispatch", "adaptive-job1", "cache-hot", "failover:", "dispatched tasks"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	raw := matchGolden(t, "dispatch.quick.json", jsonPath)
	var rep experiments.DispatchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad JSON artifact: %v", err)
	}
	if len(rep.Scenarios) != 2 {
		t.Fatalf("artifact has %d scenarios, want 2", len(rep.Scenarios))
	}
	for _, sc := range rep.Scenarios {
		if sc.TaskReduction < 4 {
			t.Errorf("%s: task reduction %.1fx < 4x", sc.Name, sc.TaskReduction)
		}
	}
	if rep.Failover.TasksRepacked == 0 {
		t.Error("artifact failover phase repacked nothing")
	}
}

func TestBenchDispatchBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-dispatch", "-jobs", "3"}, &out, &errb); err == nil {
		t.Error("accepted -jobs with -dispatch")
	}
	if err := run([]string{"-dispatch", "-offer-rate", "0.5"}, &out, &errb); err == nil {
		t.Error("accepted -offer-rate with -dispatch")
	}
	if err := run([]string{"-dispatch", "-cache"}, &out, &errb); err == nil {
		t.Error("accepted -dispatch with -cache")
	}
}

func TestBenchCacheBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-cache", "-adaptive"}, &out, &errb); err == nil {
		t.Error("accepted -cache with -adaptive")
	}
	if err := run([]string{"-cache", "-only", "Fig4a"}, &out, &errb); err == nil {
		t.Error("accepted -cache with -only")
	}
	if err := run([]string{"-cache", "-queries", "10"}, &out, &errb); err == nil {
		t.Error("accepted -queries with -cache")
	}
}

// TestBenchJSONFigures: -json also captures figure-mode runs.
func TestBenchJSONFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("figure fixture too slow for -short")
	}
	jsonPath := filepath.Join(t.TempDir(), "BENCH_figs.json")
	var out, errb bytes.Buffer
	if err := run([]string{"-quick", "-only", "Fig4a", "-json", jsonPath}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	var figs []*experiments.Figure
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &figs); err != nil {
		t.Fatal(err)
	}
	if len(figs) != 1 || figs[0].ID != "Fig4a" {
		t.Errorf("artifact figures = %+v, want one Fig4a", figs)
	}
}

// TestFiguresGolden freezes the reproduction: figure mode — every paper
// figure, table and ablation from the count-driven cost model — must
// repeat testdata/figures.quick.json, structure exactly and numbers to
// 1e-9 relative (an FMA platform may differ in a last digit). A change
// that moves a paper number on purpose regenerates the file with the
// command itself:
//
//	go run ./cmd/hailbench -quick -json cmd/hailbench/testdata/figures.quick.json
func TestFiguresGolden(t *testing.T) {
	if d := jsonDiff("$", 1.0, 1.0+1e-6); d == "" {
		t.Fatal("jsonDiff accepts an edited number")
	}
	if d := jsonDiff("$", 1.0, 1.0+1e-12); d != "" {
		t.Fatalf("jsonDiff rejects a last-digit difference: %s", d)
	}
	if testing.Short() {
		t.Skip("figure fixtures too slow for -short")
	}
	jsonPath := filepath.Join(t.TempDir(), "figures.json")
	var out, errb bytes.Buffer
	if err := run([]string{"-quick", "-json", jsonPath}, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	matchGolden(t, "figures.quick.json", jsonPath)
}

// TestBenchSyntheticAdaptiveGolden pins the Synthetic dataset's trajectory
// (its schema, sort columns and both never-indexed predicates) the way the
// smoke tests pin UserVisits':
//
//	go run ./cmd/hailbench -quick -adaptive -jobs 5 -offer-rate 0.5 -workload Synthetic \
//	    -json cmd/hailbench/testdata/adaptive.synthetic.quick.json
func TestBenchSyntheticAdaptiveGolden(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_adaptive.json")
	var out, errb bytes.Buffer
	err := run([]string{"-quick", "-adaptive", "-jobs", "5", "-offer-rate", "0.5", "-workload", "Synthetic", "-json", jsonPath}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	matchGolden(t, "adaptive.synthetic.quick.json", jsonPath)
}

// matchGolden fails the test unless the JSON artifact at path repeats
// testdata/golden (see jsonDiff), and returns the artifact's bytes. The
// trajectory goldens were written by the command with the smoke tests'
// arguments, e.g.
//
//	go run ./cmd/hailbench -quick -adaptive -jobs 5 -offer-rate 0.5 -json cmd/hailbench/testdata/adaptive.quick.json
//	go run ./cmd/hailbench -quick -cache -jobs 4 -offer-rate 0.5 -json cmd/hailbench/testdata/cache.quick.json
//	go run ./cmd/hailbench -quick -dispatch -json cmd/hailbench/testdata/dispatch.quick.json
//
// and a change that moves a trajectory on purpose regenerates them so.
func matchGolden(t *testing.T, golden, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("JSON artifact not written: %v", err)
	}
	wantRaw, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	var want, got any
	if err := json.Unmarshal(wantRaw, &want); err != nil {
		t.Fatalf("%s: %v", golden, err)
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("bad JSON artifact: %v", err)
	}
	if d := jsonDiff("$", want, got); d != "" {
		t.Fatalf("the run no longer repeats testdata/%s: %s", golden, d)
	}
	return raw
}

// jsonDiff describes the first difference between two decoded JSON
// values, or returns "" when they agree: same shape, same keys, same
// strings, numbers within 1e-9 relative.
func jsonDiff(path string, want, got any) string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok || len(g) != len(w) {
			return fmt.Sprintf("%s: want an object of %d keys, got %v", path, len(w), got)
		}
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				return fmt.Sprintf("%s: key %q missing", path, k)
			}
			if d := jsonDiff(path+"."+k, wv, gv); d != "" {
				return d
			}
		}
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return fmt.Sprintf("%s: want an array of %d, got %v", path, len(w), got)
		}
		for i := range w {
			if d := jsonDiff(fmt.Sprintf("%s[%d]", path, i), w[i], g[i]); d != "" {
				return d
			}
		}
	case float64:
		g, ok := got.(float64)
		if !ok || math.Abs(g-w) > 1e-9*math.Max(math.Abs(w), math.Abs(g)) {
			return fmt.Sprintf("%s: want %v, got %v", path, w, got)
		}
	default:
		if want != got {
			return fmt.Sprintf("%s: want %v, got %v", path, want, got)
		}
	}
	return ""
}

// TestBenchVectorBadFlags: retired flags are unknown flags — a usage error
// (exit status 2), not silently ignored. -vector selected the row-vs-batch
// A/B mode (bench/ measures the one scan path end to end); -nn-shards
// selected the namenode directory's shard count, now fixed; -pack-scans
// priced packed cache-hot jobs by a model that ignores packing
// (-dispatch's cache-hot scenario prices them).
func TestBenchVectorBadFlags(t *testing.T) {
	checkRetired(t, map[string][]string{
		"-vector":     {"-quick", "-vector"},
		"-nn-shards":  {"-quick", "-adaptive", "-nn-shards", "8"},
		"-pack-scans": {"-quick", "-cache", "-pack-scans"},
	})
}

// TestBenchLifecycleBadFlags: -lifecycle is -adaptive's second phase, with
// the budget (-adaptive-budget) sized and eviction (-adaptive-evict) on,
// and -cache-budget had no caller, so -cache and -dispatch use
// qcache.DefaultBudget. All four are retired: usage errors.
func TestBenchLifecycleBadFlags(t *testing.T) {
	checkRetired(t, map[string][]string{
		"-lifecycle":       {"-quick", "-lifecycle"},
		"-adaptive-evict":  {"-quick", "-adaptive", "-adaptive-evict"},
		"-adaptive-budget": {"-quick", "-adaptive", "-adaptive-budget", "1024"},
		"-cache-budget":    {"-quick", "-dispatch", "-cache-budget", "1024"},
	})
}

// TestBenchObsBadFlags: -obs is retired — its gates live in FuzzEngine and
// TestTraceCoversWideScan — so it is a usage error.
func TestBenchObsBadFlags(t *testing.T) {
	checkRetired(t, map[string][]string{"-obs": {"-quick", "-obs"}})
}

// checkRetired asserts that each flag, run with its args, is rejected as
// an unknown flag: the usage error (exit status 2), naming the flag.
func checkRetired(t *testing.T, rows map[string][]string) {
	t.Helper()
	for flag, args := range rows {
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err != errUsage {
			t.Errorf("%s: err = %v, want the usage error", flag, err)
		}
		if !strings.Contains(errb.String(), "flag provided but not defined: "+flag) {
			t.Errorf("%s: stderr does not name the unknown flag:\n%s", flag, errb.String())
		}
	}
}

func TestBenchServeSmoke(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var out, errb bytes.Buffer
	err := run([]string{"-quick", "-serve", "-queries", "48", "-tenants", "3", "-json", jsonPath}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{"FigServe", "byte-equivalent to serial", "p99"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("JSON artifact not written: %v", err)
	}
	var rep experiments.ServeReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad JSON artifact: %v", err)
	}
	if rep.Queries != 48 || rep.Mismatches != 0 || rep.Tenants != 3 {
		t.Fatalf("artifact implausible: %+v", rep)
	}
	if rep.P50Ms <= 0 || rep.P99Ms <= 0 || rep.ThroughputQPS <= 0 {
		t.Fatalf("artifact missing latency/throughput: %+v", rep)
	}
}

func TestBenchServeBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	cases := [][]string{
		{"-serve", "-cache"},                  // mutually exclusive modes
		{"-serve", "-jobs", "3"},              // -jobs does not combine
		{"-queries", "100"},                   // -queries needs -serve
		{"-tenants", "2"},                     // -tenants needs -serve
		{"-quick", "-serve", "-queries", "4"}, // below the storm minimum
	}
	for _, args := range cases {
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}
