package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTreeAndValidate(t *testing.T) {
	tr := NewTrace("q")
	root := tr.StartSpan("run", "job", 0, Span{})
	plan := tr.StartSpan("plan", "phase", 0, root)
	plan.SetInt("splits", 4)
	plan.End()
	task := tr.StartSpan("task 0", "task", 1, root)
	att := tr.StartSpan("attempt", "task", 1, task)
	tr.Instant("repack", "task", 1, task)
	att.End()
	task.End()
	tr.Count("qcache.block_hit", 3)
	root.End()

	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	spans := tr.SpanInfos()
	if len(spans) != 5 {
		t.Fatalf("got %d spans, want 5", len(spans))
	}
	if spans[1].Parent != 0 || spans[3].Parent != 2 {
		t.Fatalf("parent links wrong: %+v", spans)
	}
	for i, want := range []string{"run", "plan", "task 0", "attempt", "repack"} {
		if spans[i].Name != want {
			t.Fatalf("span %d is %q, want %q", i, spans[i].Name, want)
		}
	}
	if got := tr.Counts()["qcache.block_hit"]; got != 3 {
		t.Fatalf("count = %d, want 3", got)
	}
}

func TestTraceValidateCatchesOpenSpan(t *testing.T) {
	tr := NewTrace("q")
	tr.StartSpan("never-ended", "job", 0, Span{})
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "never ended") {
		t.Fatalf("Validate = %v, want never-ended error", err)
	}
}

func TestTraceValidateCatchesDoubleEnd(t *testing.T) {
	tr := NewTrace("q")
	sp := tr.StartSpan("s", "job", 0, Span{})
	sp.End()
	sp.End()
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "more than once") {
		t.Fatalf("Validate = %v, want double-end error", err)
	}
}

// TestTraceChromeSchema is the schema golden test: export a known span
// tree and check every trace_event field Chrome requires, plus the
// structural invariants (monotonic timestamps, spans nested within their
// parents) on the decoded JSON itself.
func TestTraceChromeSchema(t *testing.T) {
	tr := NewTrace("q")
	root := tr.StartSpan("run", "job", 0, Span{})
	for i := 0; i < 3; i++ {
		task := tr.StartSpan("task", "task", i+1, root)
		att := tr.StartSpan("attempt", "task", i+1, task)
		time.Sleep(200 * time.Microsecond)
		att.End()
		task.End()
	}
	tr.Count("blocks", 12)
	root.End()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  *int           `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	// 7 span events (run + 3×(task, attempt)) + 1 counter event.
	if len(doc.TraceEvents) != 8 {
		t.Fatalf("got %d events, want 8:\n%s", len(doc.TraceEvents), buf.String())
	}
	var spanEvents, counterEvents int
	var prevTs float64 = -1
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ts == nil || ev.Tid == nil || ev.Pid != 1 {
			t.Fatalf("event missing required fields: %+v", ev)
		}
		switch ev.Ph {
		case "X":
			spanEvents++
			if ev.Dur < 0 {
				t.Fatalf("span %q has negative dur", ev.Name)
			}
			if *ev.Ts < prevTs {
				t.Fatalf("span timestamps not monotonic: %v after %v", *ev.Ts, prevTs)
			}
			prevTs = *ev.Ts
		case "C":
			counterEvents++
			if ev.Args["value"] == nil {
				t.Fatalf("counter %q missing value arg", ev.Name)
			}
		case "i":
		default:
			t.Fatalf("unexpected ph %q", ev.Ph)
		}
	}
	if spanEvents != 7 || counterEvents != 1 {
		t.Fatalf("spans=%d counters=%d, want 7/1", spanEvents, counterEvents)
	}

	// Nesting: each attempt's [ts, ts+dur] lies within its task's, and all
	// within run's.
	type iv struct{ lo, hi float64 }
	within := func(a, b iv) bool { return a.lo >= b.lo && a.hi <= b.hi }
	var run iv
	tasks := map[int]iv{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		span := iv{*ev.Ts, *ev.Ts + ev.Dur}
		switch ev.Name {
		case "run":
			run = span
		case "task":
			tasks[*ev.Tid] = span
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || ev.Name != "attempt" {
			continue
		}
		span := iv{*ev.Ts, *ev.Ts + ev.Dur}
		if !within(span, tasks[*ev.Tid]) || !within(tasks[*ev.Tid], run) {
			t.Fatalf("spans do not nest: attempt %+v task %+v run %+v", span, tasks[*ev.Tid], run)
		}
	}
}

func TestNilTraceChromeExport(t *testing.T) {
	var tr *Trace
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome(nil): %v", err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil export invalid JSON: %v", err)
	}
	if tr.Counts() != nil || tr.Validate() != nil || tr.SpanInfos() != nil {
		t.Fatalf("nil trace accessors must be empty")
	}
}

// TestTraceConcurrentSpans opens/closes spans from many goroutines (the
// engine's worker pattern) and checks the result still validates — run
// under -race in CI.
func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("q")
	root := tr.StartSpan("run", "job", 0, Span{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sp := tr.StartSpan("task", "task", w+1, root)
				sp.SetInt("i", int64(i))
				tr.Count("done", 1)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate after concurrent spans: %v", err)
	}
	if got := tr.Counts()["done"]; got != 8*50 {
		t.Fatalf("count = %d, want %d", got, 8*50)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatalf("WriteChrome: %v", err)
	}
}
