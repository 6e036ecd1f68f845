package main

import (
	"bytes"
	"encoding/json"
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
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("JSON artifact not written: %v", err)
	}
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
	for _, want := range []string{"FigDispatch", "adaptive-job1", "cache-hot", "failover:", "byte-equivalent"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("JSON artifact not written: %v", err)
	}
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
	if err := run([]string{"-pack-scans"}, &out, &errb); err == nil {
		t.Error("accepted -pack-scans without -cache")
	}
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

// TestBenchCachePackedSmoke drives the packed cache trajectory (the
// ROADMAP's -pack-scans mode for ExpCache): same cold/hot/invalidate
// sequence, with the dispatched task count falling to the per-node split
// count.
func TestBenchCachePackedSmoke(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_cache_packed.json")
	var out, errb bytes.Buffer
	err := run([]string{"-quick", "-cache", "-pack-scans", "-jobs", "4", "-offer-rate", "0.5", "-json", jsonPath}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{"FigCache", "packed scans", "tasks", "hot job answers"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("JSON artifact not written: %v", err)
	}
	var rep experiments.CacheReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad JSON artifact: %v", err)
	}
	if !rep.PackScans {
		t.Error("artifact does not record PackScans")
	}
	if len(rep.Jobs) != 4 || rep.Jobs[1].Tasks*4 > rep.TotalBlocks {
		t.Errorf("artifact trajectory implausible: %+v", rep.Jobs)
	}
}

// TestBenchLifecycleSmoke drives the replica-lifecycle experiment end to
// end and checks the JSON artifact: the workload shift must converge with
// evictions.
func TestBenchLifecycleSmoke(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_lifecycle.json")
	var out, errb bytes.Buffer
	err := run([]string{"-quick", "-lifecycle", "-jobs", "5", "-offer-rate", "0.5", "-json", jsonPath}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{"FigLifecycle", "workload shift", "evicted", "colB"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("JSON artifact not written: %v", err)
	}
	var rep experiments.LifecycleReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad JSON artifact: %v", err)
	}
	if rep.FinalFractionB < experiments.LifecycleConvergenceTarget || rep.TotalEvicted == 0 {
		t.Errorf("artifact shift implausible: frac %.2f, evicted %d", rep.FinalFractionB, rep.TotalEvicted)
	}
}

func TestBenchLifecycleBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-lifecycle", "-adaptive"}, &out, &errb); err == nil {
		t.Error("accepted -lifecycle with -adaptive")
	}
	if err := run([]string{"-lifecycle", "-cache-budget", "1024"}, &out, &errb); err == nil {
		t.Error("accepted -cache-budget with -lifecycle")
	}
	if err := run([]string{"-adaptive-evict"}, &out, &errb); err == nil {
		t.Error("accepted -adaptive-evict without -adaptive")
	}
	if err := run([]string{"-lifecycle", "-adaptive-evict"}, &out, &errb); err == nil {
		t.Error("accepted -adaptive-evict with -lifecycle (it always evicts)")
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
	if err := run([]string{"-cache-budget", "1024"}, &out, &errb); err == nil {
		t.Error("accepted -cache-budget without -cache")
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
	load := func(path string) any {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var v any
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		return v
	}
	if d := jsonDiff("$", load(filepath.Join("testdata", "figures.quick.json")), load(jsonPath)); d != "" {
		t.Fatalf("figure mode no longer repeats the golden file: %s", d)
	}
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

// TestBenchObsSmoke drives the observability experiment end to end:
// traced benchmark queries, equivalence- and coverage-gated, with
// non-zero latency quantiles per query in the JSON artifact.
func TestBenchObsSmoke(t *testing.T) {
	jsonPath := filepath.Join(t.TempDir(), "BENCH_obs.json")
	var out, errb bytes.Buffer
	err := run([]string{"-quick", "-obs", "-json", jsonPath}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	for _, want := range []string{"FigObs", "task p50 [ms]", "task p99 [ms]", "byte-identical"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatalf("JSON artifact not written: %v", err)
	}
	var rep experiments.ObsReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("bad JSON artifact: %v", err)
	}
	if len(rep.Queries) != 3 || len(rep.Metrics) == 0 {
		t.Fatalf("artifact implausible: %d queries, %d metrics", len(rep.Queries), len(rep.Metrics))
	}
	for _, q := range rep.Queries {
		if q.TaskP50Ms <= 0 || q.TaskP99Ms <= 0 {
			t.Errorf("%s: zero latency quantiles: %+v", q.Name, q)
		}
		if q.RootCoverage < 0.9 {
			t.Errorf("%s: root span covers %.0f%% of wall-clock", q.Name, 100*q.RootCoverage)
		}
	}
}

func TestBenchObsBadFlags(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-obs", "-cache"}, &out, &errb); err == nil {
		t.Error("accepted -obs with -cache")
	}
	if err := run([]string{"-obs", "-jobs", "3"}, &out, &errb); err == nil {
		t.Error("accepted -jobs with -obs")
	}
	if err := run([]string{"-obs", "-only", "Fig4a"}, &out, &errb); err == nil {
		t.Error("accepted -obs with -only")
	}
}

// TestBenchVectorBadFlags: retired flags are unknown flags — a usage error
// (exit status 2), not silently ignored. -vector selected the row-vs-batch
// A/B mode (bench/ measures the one scan path end to end); -nn-shards
// selected the namenode directory's shard count, now fixed.
func TestBenchVectorBadFlags(t *testing.T) {
	for flag, args := range map[string][]string{
		"-vector":    {"-quick", "-vector"},
		"-nn-shards": {"-quick", "-adaptive", "-nn-shards", "8"},
	} {
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
		{"-serve", "-obs"},                    // mutually exclusive modes
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
