package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/schema"
)

// makeFS builds a small HAIL filesystem directory the way hailload does:
// replica 0 indexed on column a, replica 1 unsorted PAX.
func makeFS(t *testing.T, n int) string {
	t.Helper()
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.MustNew(
		schema.Field{Name: "a", Type: schema.Int32},
		schema.Field{Name: "b", Type: schema.String},
		schema.Field{Name: "c", Type: schema.Int32},
	)
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf("%d,word-%d,%d", i%7, i, i%13))
	}
	client := &core.Client{
		Cluster: cluster,
		Config:  core.LayoutConfig{Schema: sch, SortColumns: []int{0, -1}, BlockSize: 2048},
	}
	if _, err := client.Upload("/t", lines); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "fs")
	if err := cluster.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestQuerySmoke(t *testing.T) {
	dir := makeFS(t, 700)
	var out, errb bytes.Buffer
	err := run([]string{
		"-fs", dir, "-name", "/t",
		"-q", `@HailQuery(filter="@1 = 3", projection={@2})`,
		"-stats", "-limit", "5",
	}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "100 rows") { // 700 rows, a = i%7 → 100 matches
		t.Errorf("expected 100 result rows, output:\n%s", s)
	}
	if !strings.Contains(s, "index scans") {
		t.Errorf("-stats output missing, output:\n%s", s)
	}
	if strings.Contains(s, "checksum failovers") {
		t.Errorf("-stats reports checksum failovers on a healthy filesystem, output:\n%s", s)
	}
}

// TestQueryAdaptiveConverges drives the full load → query → re-query CLI
// path: the first adaptive query on an unindexed attribute scans and
// builds, persists the new replicas, and a later invocation reaches
// all-index-scan execution against the reloaded filesystem.
func TestQueryAdaptiveConverges(t *testing.T) {
	dir := makeFS(t, 700)
	args := []string{
		"-fs", dir, "-name", "/t",
		"-q", `@HailQuery(filter="@3 between(2,5)", projection={@1})`,
		"-adaptive", "-offer-rate", "0.5", "-stats", "-limit", "1",
	}

	var first bytes.Buffer
	if err := run(args, &first, &first); err != nil {
		t.Fatalf("first query: %v\n%s", err, first.String())
	}
	if !strings.Contains(first.String(), "0 index scans") {
		t.Errorf("first query should be all full scans:\n%s", first.String())
	}
	if !strings.Contains(first.String(), "-- adaptive:") {
		t.Errorf("missing adaptive summary:\n%s", first.String())
	}

	// Run until converged; with offer rate 0.5 a handful of invocations
	// suffices for any block count.
	converged := false
	var last string
	for i := 0; i < 12 && !converged; i++ {
		var out bytes.Buffer
		if err := run(args, &out, &out); err != nil {
			t.Fatalf("query %d: %v\n%s", i+2, err, out.String())
		}
		last = out.String()
		converged = strings.Contains(last, " 0 full scans")
	}
	if !converged {
		t.Fatalf("adaptive queries never converged to all index scans; last output:\n%s", last)
	}

	// Row counts are identical before and after conversion.
	wantRows := rowCount(t, first.String())
	if got := rowCount(t, last); got != wantRows {
		t.Errorf("converged query returned %d rows, first returned %d", got, wantRows)
	}
}

func rowCount(t *testing.T, out string) int {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "-- ") && strings.Contains(line, " rows, ") {
			var n, tasks int
			if _, err := fmt.Sscanf(line, "-- %d rows, %d map tasks", &n, &tasks); err == nil {
				return n
			}
		}
	}
	t.Fatalf("no row-count line in output:\n%s", out)
	return -1
}

// TestQueryPackScans: -pack-scans packs the scan splits of an unindexed
// filter into per-node splits — fewer map tasks, identical rows — and
// -stats reports the split phase's namenode directory ops.
func TestQueryPackScans(t *testing.T) {
	dir := makeFS(t, 3000)
	query := func(extra ...string) (string, int, int) {
		t.Helper()
		args := append([]string{
			"-fs", dir, "-name", "/t",
			"-q", `@HailQuery(filter="@3 between(2,5)", projection={@1})`,
			"-stats", "-limit", "1",
		}, extra...)
		var out, errb bytes.Buffer
		if err := run(args, &out, &errb); err != nil {
			t.Fatalf("run %v: %v (stderr: %s)", extra, err, errb.String())
		}
		s := out.String()
		for _, line := range strings.Split(s, "\n") {
			var rows, tasks int
			if _, err := fmt.Sscanf(line, "-- %d rows, %d map tasks", &rows, &tasks); err == nil {
				return s, rows, tasks
			}
		}
		t.Fatalf("no row-count line in output:\n%s", s)
		return s, 0, 0
	}

	_, rows, tasks := query()
	packedOut, packedRows, packedTasks := query("-pack-scans")
	if packedRows != rows {
		t.Errorf("-pack-scans changed the result: %d rows vs %d", packedRows, rows)
	}
	if packedTasks >= tasks {
		t.Errorf("-pack-scans dispatched %d tasks, unpacked %d; want fewer", packedTasks, tasks)
	}
	if !strings.Contains(packedOut, "split phase:") || !strings.Contains(packedOut, "namenode directory ops") {
		t.Errorf("-stats missing split-phase namenode ops line:\n%s", packedOut)
	}
}

// TestQueryAdaptiveBudgetDeniesBuilds: a tiny -adaptive-budget lets the
// first conversion through and then refuses the rest.
func TestQueryAdaptiveBudgetDeniesBuilds(t *testing.T) {
	dir := makeFS(t, 700)
	var out, errb bytes.Buffer
	err := run([]string{
		"-fs", dir, "-name", "/t",
		"-q", `@HailQuery(filter="@3 between(2,5)", projection={@1})`,
		"-adaptive", "-offer-rate", "1", "-adaptive-budget", "1", "-limit", "1",
	}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()
	if !strings.Contains(s, "builds denied") {
		t.Errorf("tiny budget denied nothing:\n%s", s)
	}
}

// TestQueryTraceAndMetrics: -trace writes valid Chrome trace_event JSON,
// -metrics prints the registry, the -stats engine line is sourced from
// it, and none of that changes the query's result rows.
func TestQueryTraceAndMetrics(t *testing.T) {
	dir := makeFS(t, 700)
	base := []string{
		"-fs", dir, "-name", "/t",
		"-q", `@HailQuery(filter="@1 = 3", projection={@2})`,
		"-limit", "1",
	}

	var plain bytes.Buffer
	if err := run(base, &plain, &plain); err != nil {
		t.Fatalf("plain run: %v\n%s", err, plain.String())
	}

	tracePath := filepath.Join(t.TempDir(), "trace.json")
	args := append(append([]string(nil), base...),
		"-stats", "-metrics", "-trace", tracePath)
	var out, errb bytes.Buffer
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errb.String())
	}
	s := out.String()

	if got, want := rowCount(t, s), rowCount(t, plain.String()); got != want {
		t.Errorf("observed run returned %d rows, unobserved %d", got, want)
	}
	if !strings.Contains(s, "-- engine:") || !strings.Contains(s, "namenode ops total") {
		t.Errorf("-stats missing registry-sourced engine line:\n%s", s)
	}
	if !strings.Contains(s, "-- trace:") || !strings.Contains(s, "spans written to") {
		t.Errorf("missing trace summary line:\n%s", s)
	}
	if !strings.Contains(s, "engine.tasks") || !strings.Contains(s, "engine.task_seconds") {
		t.Errorf("-metrics output missing engine metrics:\n%s", s)
	}
	if !strings.Contains(s, "hdfs.namenode.dir_ops") {
		t.Errorf("-metrics output missing bound subsystem gauges:\n%s", s)
	}

	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "" {
			t.Fatalf("event %q missing ph", ev.Name)
		}
		names[ev.Name] = true
	}
	for _, want := range []string{"run", "plan", "map", "task 0"} {
		if !names[want] {
			t.Errorf("trace missing %q event; got %d events", want, len(doc.TraceEvents))
		}
	}
}

func TestQueryCacheFlagValidation(t *testing.T) {
	dir := makeFS(t, 100)
	base := []string{"-fs", dir, "-name", "/t", "-q", `@HailQuery(filter="@1 = 3")`}
	var out, errb bytes.Buffer
	if err := run(append(base, "-adaptive-budget", "1024"), &out, &errb); err == nil {
		t.Error("accepted -adaptive-budget without -adaptive")
	}
	// Retired flags are unknown flags, rejected rather than silently
	// ignored: there is one scan path (-row-path), one namenode directory
	// layout (-nn-shards), a budget is always kept by eviction
	// (-adaptive-evict), and a one-job process keeps no result cache
	// (-cache, -cache-budget).
	for flag, args := range map[string][]string{
		"-row-path":       {"-row-path"},
		"-nn-shards":      {"-nn-shards", "8"},
		"-adaptive-evict": {"-adaptive", "-adaptive-evict"},
		"-cache":          {"-cache"},
		"-cache-budget":   {"-cache-budget", "1024"},
	} {
		errb.Reset()
		if err := run(append(base, args...), &out, &errb); err != errUsage {
			t.Errorf("%s: err = %v, want the usage error", flag, err)
		}
		if !strings.Contains(errb.String(), "flag provided but not defined: "+flag) {
			t.Errorf("%s: stderr does not name the unknown flag:\n%s", flag, errb.String())
		}
	}
}

// makeFSAllSorted is makeFS with both replicas sorted+indexed on column
// a: adaptive conversions must then *add* replicas — the evictable kind —
// instead of replacing an unsorted one in place.
func makeFSAllSorted(t *testing.T, n int) string {
	t.Helper()
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	sch := schema.MustNew(
		schema.Field{Name: "a", Type: schema.Int32},
		schema.Field{Name: "b", Type: schema.String},
		schema.Field{Name: "c", Type: schema.Int32},
	)
	var lines []string
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf("%d,word-%d,%d", i%7, i, i%13))
	}
	client := &core.Client{
		Cluster: cluster,
		Config:  core.LayoutConfig{Schema: sch, SortColumns: []int{0, 0}, BlockSize: 2048},
	}
	if _, err := client.Upload("/t", lines); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "fs")
	if err := cluster.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir
}

// persistedRegistry is the adaptive registry a new process would start
// from: the one the directory's manifest records.
func persistedRegistry(t *testing.T, dir string) *adaptive.Indexer {
	t.Helper()
	loaded, err := hdfs.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	return adaptive.New(loaded, 0, 0)
}

// TestQueryAdaptiveEvictAcrossInvocations drives the full CLI lifecycle:
// converge on @3, which persists the adaptive replicas with their records
// (budget charges, heat); then shift the workload to @2 under a one-column
// -adaptive-budget. The new invocation starts from those records, evicts
// the cold @3 replicas to fund @2 builds, and converges — across separate
// processes' worth of state.
func TestQueryAdaptiveEvictAcrossInvocations(t *testing.T) {
	dir := makeFSAllSorted(t, 700)
	argsC := []string{
		"-fs", dir, "-name", "/t",
		"-q", `@HailQuery(filter="@3 between(2,5)", projection={@1})`,
		"-adaptive", "-offer-rate", "1", "-stats", "-limit", "1",
	}
	var first bytes.Buffer
	if err := run(argsC, &first, &first); err != nil {
		t.Fatalf("converge on @3: %v\n%s", err, first.String())
	}

	// The manifest records the built replicas and their charges.
	used := persistedRegistry(t, dir).ExtraBytes()
	if used == 0 {
		t.Fatal("no adaptive record in the manifest after an adaptive build")
	}

	// Shift to @2 with a budget that fits one column only: the records
	// seed the spent budget, so the @2 builds must retire the @3 replicas.
	budget := fmt.Sprint(used + 16)
	argsB := []string{
		"-fs", dir, "-name", "/t",
		"-q", `@HailQuery(filter="@2 between(word-1,word-2)", projection={@1})`,
		"-adaptive", "-offer-rate", "1", "-adaptive-budget", budget, "-stats", "-limit", "1",
	}
	var shift bytes.Buffer
	if err := run(argsB, &shift, &shift); err != nil {
		t.Fatalf("shift under the budget: %v\n%s", err, shift.String())
	}
	if !strings.Contains(shift.String(), "evicted") {
		t.Errorf("budget-bound shift printed no eviction line:\n%s", shift.String())
	}
	if strings.Contains(shift.String(), "builds denied") {
		t.Errorf("budget-bound shift denied builds it could fund by eviction:\n%s", shift.String())
	}
	hottest := func() (last uint64, touches int) {
		for _, r := range persistedRegistry(t, dir).Replicas() {
			last, touches = max(last, r.LastTouch), max(touches, r.Touches)
		}
		return last, touches
	}
	shiftLast, _ := hottest()

	// Converge on @2; with offer rate 1 one more invocation suffices.
	converged := false
	var last string
	for i := 0; i < 6 && !converged; i++ {
		var out bytes.Buffer
		if err := run(argsB, &out, &out); err != nil {
			t.Fatalf("shift query %d: %v\n%s", i+2, err, out.String())
		}
		last = out.String()
		converged = strings.Contains(last, " 0 full scans")
	}
	if !converged {
		t.Fatalf("shifted workload never converged under the fixed budget; last output:\n%s", last)
	}
	// Heat survives each invocation: every one index-scanned @2 replicas
	// and advanced the clock the next one started from.
	if last, touches := hottest(); last <= shiftLast || touches < 2 {
		t.Errorf("after the @2 invocations the hottest replica was last touched at job %d (at %d after the shift) and touched %d times; the heat did not persist",
			last, shiftLast, touches)
	}

	// The original query still answers correctly (by scan again).
	var again bytes.Buffer
	if err := run([]string{
		"-fs", dir, "-name", "/t",
		"-q", `@HailQuery(filter="@3 between(2,5)", projection={@1})`,
		"-limit", "1",
	}, &again, &again); err != nil {
		t.Fatalf("re-query @3 after eviction: %v\n%s", err, again.String())
	}
	if got, want := rowCount(t, again.String()), rowCount(t, first.String()); got != want {
		t.Errorf("@3 query returned %d rows after eviction, %d before", got, want)
	}
}
