package mapred

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/obs"
)

// traceTree indexes a validated trace for assertions.
func traceTree(t *testing.T, tr *obs.Trace) (spans []obs.SpanInfo, byName map[string][]obs.SpanInfo) {
	t.Helper()
	if err := tr.Validate(); err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	spans = tr.SpanInfos()
	byName = make(map[string][]obs.SpanInfo)
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	return spans, byName
}

// TestJobTraceSpanTree runs a parallel job with tracing and metrics on and
// checks the recorded structure: one run root whose phase children tile
// it in order, one task span per split closed exactly once (Validate
// rejects double closes), and registry counters matching the job result.
func TestJobTraceSpanTree(t *testing.T) {
	c, f := buildFake(t, 4, 10, 50)
	reg := obs.NewRegistry()
	tr := obs.NewTrace("test-job")
	e := &Engine{Cluster: c, Parallelism: 4, Obs: reg}
	job := &Job{
		Name:     "traced",
		Input:    f,
		MapBatch: emitRaw("1"),
		Trace:    tr,
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	spans, byName := traceTree(t, tr)

	if len(byName["run"]) != 1 {
		t.Fatalf("want exactly one run span, got %d", len(byName["run"]))
	}
	root := byName["run"][0]
	if root.Dur() <= 0 {
		t.Fatal("run span has no duration")
	}
	// The root's direct children are exactly the phases, each once, in
	// execution order, inside the root and never overlapping — the
	// structure that makes their durations sum to the job's wall-clock.
	// How much of a sub-millisecond root they cover is scheduler noise;
	// that ratio is gated where jobs run for milliseconds
	// (experiments.TestTraceCoversWideScan).
	var phases []string
	prevEnd := root.Start
	for _, s := range spans {
		if s.Parent < 0 || spans[s.Parent].Name != "run" {
			continue
		}
		phases = append(phases, s.Name)
		if s.Start < prevEnd {
			t.Errorf("phase %q starts at %v, before its predecessor's end (or the run's start) at %v", s.Name, s.Start, prevEnd)
		}
		if s.End < s.Start || s.End > root.End {
			t.Errorf("phase %q [%v,%v] not inside the run span [%v,%v]", s.Name, s.Start, s.End, root.Start, root.End)
		}
		prevEnd = s.End
	}
	if got, want := strings.Join(phases, " "), "plan schedule map assemble"; got != want {
		t.Fatalf("run span's children = %q, want %q", got, want)
	}

	tasks := 0
	for name, ss := range byName {
		if strings.HasPrefix(name, "task ") {
			tasks += len(ss)
		}
	}
	if tasks != len(f.splits) {
		t.Fatalf("got %d task spans, want %d", tasks, len(f.splits))
	}
	if got := len(byName["wait"]); got != len(f.splits) {
		t.Fatalf("got %d wait spans, want %d", got, len(f.splits))
	}
	if got := len(byName["attempt"]); got != len(f.splits) {
		t.Fatalf("got %d attempt spans, want %d (no failures injected)", got, len(f.splits))
	}

	if got := reg.Counter("engine.tasks").Value(); got != int64(len(res.Tasks)) {
		t.Errorf("engine.tasks = %d, want %d", got, len(res.Tasks))
	}
	if got := reg.Counter("engine.jobs").Value(); got != 1 {
		t.Errorf("engine.jobs = %d, want 1", got)
	}
	h := reg.Histogram("engine.task_seconds")
	if h.Count() != int64(len(res.Tasks)) {
		t.Errorf("task_seconds count = %d, want %d", h.Count(), len(res.Tasks))
	}
	if h.Quantile(0.5) <= 0 || h.Quantile(0.99) < h.Quantile(0.5) {
		t.Errorf("task latency quantiles degenerate: p50=%v p99=%v", h.Quantile(0.5), h.Quantile(0.99))
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"traceEvents"`)) {
		t.Fatal("Chrome export missing traceEvents")
	}
}

// TestJobTraceFailoverSpansClosedOnce is the failover leg of the trace
// schema test: a packed split whose pin dies and whose blocks fail once
// mid-run goes through repack + re-attempt, and the trace must still
// validate — every task span closed exactly once, attempts nested in the
// task, and the repack marker recorded.
func TestJobTraceFailoverSpansClosedOnce(t *testing.T) {
	c, f := packedFixture(t, 4, 6, 1, 2)
	f.failOnce = map[hdfs.BlockID]bool{2: true}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("failover-job")
	reg := obs.NewRegistry()
	e := &Engine{Cluster: c, Obs: reg}
	res, err := e.Run(&Job{
		Name:     "failover",
		Input:    f,
		MapBatch: emitRaw("1"),
		Trace:    tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repacked != 1 {
		t.Fatalf("Repacked = %d, want 1", res.Repacked)
	}
	_, byName := traceTree(t, tr)
	if got := len(byName["task 0"]); got != 1 {
		t.Fatalf("got %d spans for task 0, want exactly 1", got)
	}
	if got := len(byName["attempt"]); got < 2 {
		t.Fatalf("got %d attempt spans, want ≥ 2 (one failed, one retried)", got)
	}
	if len(byName["repack"]) == 0 {
		t.Fatal("no repack marker recorded")
	}
	task := byName["task 0"][0]
	spans := tr.SpanInfos()
	for _, s := range byName["attempt"] {
		if spans[s.Parent].Name != "task 0" {
			t.Errorf("attempt parented to %q, want task 0", spans[s.Parent].Name)
		}
		if s.Start < task.Start || s.End > task.End {
			t.Errorf("attempt [%v,%v] not nested in task [%v,%v]", s.Start, s.End, task.Start, task.End)
		}
	}
	if got := reg.Counter("engine.tasks_repacked").Value(); got != 1 {
		t.Errorf("engine.tasks_repacked = %d, want 1", got)
	}
	if got := tr.Counts()["engine.blocks_repinned"]; got == 0 {
		t.Error("no repinned blocks counted in trace")
	}
}

// TestObsDisabledOutputIdentical is the equivalence gate at the engine
// level: the same job with and without observability wired must produce
// identical output and task stats.
func TestObsDisabledOutputIdentical(t *testing.T) {
	run := func(wire bool) (*JobResult, error) {
		c, f := buildFake(t, 4, 8, 40)
		e := &Engine{Cluster: c, Parallelism: 2}
		job := &Job{
			Name:     "equiv",
			Input:    f,
			MapBatch: emitRaw("1"),
		}
		if wire {
			e.Obs = obs.NewRegistry()
			job.Trace = obs.NewTrace("equiv")
		}
		return e.Run(job)
	}
	off, err := run(false)
	if err != nil {
		t.Fatal(err)
	}
	on, err := run(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(off.Output) != len(on.Output) {
		t.Fatalf("output sizes differ: %d vs %d", len(off.Output), len(on.Output))
	}
	for i := range off.Output {
		if off.Output[i] != on.Output[i] {
			t.Fatalf("output %d differs: %v vs %v", i, off.Output[i], on.Output[i])
		}
	}
	if off.TotalStats() != on.TotalStats() {
		t.Fatalf("stats differ:\noff: %+v\non:  %+v", off.TotalStats(), on.TotalStats())
	}
}
