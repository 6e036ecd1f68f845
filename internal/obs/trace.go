package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Trace records one query's execution as a tree of timed spans plus named
// event counts. It is carried through mapred.Job; every method is safe on a
// nil receiver so call sites never branch on whether tracing is enabled,
// and the disabled path allocates nothing. All methods are safe for
// concurrent use — engine workers record spans from many goroutines.
type Trace struct {
	name  string
	start time.Time

	mu         sync.Mutex
	spans      []spanData
	counts     map[string]int64
	doubleEnds int
}

type spanData struct {
	name   string
	cat    string
	tid    int
	parent int32 // index into spans, -1 for roots
	start  time.Duration
	end    time.Duration // -1 while open; == start for instants
	args   []argKV
}

type argKV struct {
	key   string
	str   string
	num   int64
	isStr bool
}

// NewTrace starts an empty trace whose clock begins now.
func NewTrace(name string) *Trace {
	return &Trace{name: name, start: time.Now(), counts: make(map[string]int64)}
}

// Enabled reports whether the trace is live; callers may use it to skip
// work (e.g. fmt.Sprintf for span names) on the disabled path.
func (t *Trace) Enabled() bool { return t != nil }

// Span is a lightweight handle to one recorded span: a value type holding
// the trace pointer and a 1-based index, so the zero Span is inert and
// passing spans around allocates nothing.
type Span struct {
	t  *Trace
	id int32 // index+1; 0 means invalid/disabled
}

// StartSpan opens a span. tid is the Chrome-trace thread lane (0 for the
// coordinator, taskID+1 for task lanes); parent may be the zero Span for a
// root. Returns the zero Span on a nil trace.
func (t *Trace) StartSpan(name, cat string, tid int, parent Span) Span {
	if t == nil {
		return Span{}
	}
	pid := int32(-1)
	if parent.t == t && parent.id > 0 {
		pid = parent.id - 1
	}
	t.mu.Lock()
	// Read the clock under the lock so start timestamps are monotonic in
	// creation order even when many goroutines open spans at once.
	now := time.Since(t.start)
	t.spans = append(t.spans, spanData{
		name: name, cat: cat, tid: tid, parent: pid, start: now, end: -1,
	})
	id := int32(len(t.spans))
	t.mu.Unlock()
	return Span{t: t, id: id}
}

// End closes the span. Ending the zero Span is a no-op; ending a span twice
// is recorded and fails Validate.
func (sp Span) End() {
	if sp.t == nil || sp.id == 0 {
		return
	}
	now := time.Since(sp.t.start)
	sp.t.mu.Lock()
	s := &sp.t.spans[sp.id-1]
	if s.end >= 0 {
		sp.t.doubleEnds++
	} else {
		s.end = now
	}
	sp.t.mu.Unlock()
}

// SetInt attaches an integer argument to the span (shown under "args" in
// the Chrome export). No-op on the zero Span.
func (sp Span) SetInt(key string, v int64) {
	if sp.t == nil || sp.id == 0 {
		return
	}
	sp.t.mu.Lock()
	s := &sp.t.spans[sp.id-1]
	s.args = append(s.args, argKV{key: key, num: v})
	sp.t.mu.Unlock()
}

// SetStr attaches a string argument to the span. No-op on the zero Span.
func (sp Span) SetStr(key, v string) {
	if sp.t == nil || sp.id == 0 {
		return
	}
	sp.t.mu.Lock()
	s := &sp.t.spans[sp.id-1]
	s.args = append(s.args, argKV{key: key, str: v, isStr: true})
	sp.t.mu.Unlock()
}

// Instant records a zero-duration marker event (e.g. a failover repack).
func (t *Trace) Instant(name, cat string, tid int, parent Span) {
	sp := t.StartSpan(name, cat, tid, parent)
	if sp.t == nil {
		return
	}
	sp.t.mu.Lock()
	s := &sp.t.spans[sp.id-1]
	s.end = s.start
	sp.t.mu.Unlock()
}

// Count adds n to a named trace-level counter (e.g. qcache probe
// outcomes). Nil-safe and allocation-free on the disabled path.
func (t *Trace) Count(name string, n int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// Counts returns a copy of the trace-level counters (for tests).
func (t *Trace) Counts() map[string]int64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int64, len(t.counts))
	for k, v := range t.counts {
		out[k] = v
	}
	return out
}

// SpanInfo is an exported snapshot of one span, for tests and reports.
type SpanInfo struct {
	Name   string
	Cat    string
	TID    int
	Parent int // index into the SpanInfos slice, -1 for roots
	Start  time.Duration
	End    time.Duration // -1 if still open
}

// Dur returns the span duration, or 0 for open spans.
func (s SpanInfo) Dur() time.Duration {
	if s.End < 0 {
		return 0
	}
	return s.End - s.Start
}

// SpanInfos snapshots every span in creation order.
func (t *Trace) SpanInfos() []SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanInfo, len(t.spans))
	for i, s := range t.spans {
		out[i] = SpanInfo{Name: s.name, Cat: s.cat, TID: s.tid,
			Parent: int(s.parent), Start: s.start, End: s.end}
	}
	return out
}

// Validate checks the recorded trace is structurally sound: every span
// closed exactly once, parents precede children, children nest inside
// their parent's interval, and start timestamps are monotonic in creation
// order. Returns nil for a nil or empty trace.
func (t *Trace) Validate() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.doubleEnds > 0 {
		return fmt.Errorf("obs: trace %q: %d span(s) ended more than once", t.name, t.doubleEnds)
	}
	var prevStart time.Duration
	for i, s := range t.spans {
		if s.end < 0 {
			return fmt.Errorf("obs: trace %q: span %d (%s) never ended", t.name, i, s.name)
		}
		if s.end < s.start {
			return fmt.Errorf("obs: trace %q: span %d (%s) ends %v before it starts %v", t.name, i, s.name, s.end, s.start)
		}
		if s.start < prevStart {
			return fmt.Errorf("obs: trace %q: span %d (%s) starts %v before predecessor %v — timestamps not monotonic",
				t.name, i, s.name, s.start, prevStart)
		}
		prevStart = s.start
		if s.parent >= 0 {
			if int(s.parent) >= i {
				return fmt.Errorf("obs: trace %q: span %d (%s) parented to later span %d", t.name, i, s.name, s.parent)
			}
			p := t.spans[s.parent]
			if s.start < p.start {
				return fmt.Errorf("obs: trace %q: span %d (%s) starts before parent %s", t.name, i, s.name, p.name)
			}
			if p.end >= 0 && s.end > p.end {
				return fmt.Errorf("obs: trace %q: span %d (%s) ends %v after parent %s ends %v",
					t.name, i, s.name, s.end, p.name, p.end)
			}
		}
	}
	return nil
}

// chromeEvent is one trace_event record; see the Chrome trace-event format
// doc (ph "X" = complete span, "i" = instant, "C" = counter sample).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChrome exports the trace as Chrome trace_event JSON (load in
// chrome://tracing or https://ui.perfetto.dev). Open spans export with
// their current extent; counters export as one "C" sample at the end.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	now := time.Since(t.start)
	t.mu.Lock()
	out := chromeTrace{DisplayTimeUnit: "ms", TraceEvents: make([]chromeEvent, 0, len(t.spans)+len(t.counts))}
	for _, s := range t.spans {
		ev := chromeEvent{Name: s.name, Cat: s.cat, Pid: 1, Tid: s.tid, Ts: us(s.start)}
		end := s.end
		if end < 0 {
			end = now
		}
		if end == s.start {
			ev.Ph = "i"
			ev.S = "t"
		} else {
			ev.Ph = "X"
			ev.Dur = us(end - s.start)
		}
		if len(s.args) > 0 {
			ev.Args = make(map[string]any, len(s.args))
			for _, a := range s.args {
				if a.isStr {
					ev.Args[a.key] = a.str
				} else {
					ev.Args[a.key] = a.num
				}
			}
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	countNames := make([]string, 0, len(t.counts))
	for name := range t.counts {
		countNames = append(countNames, name)
	}
	sort.Strings(countNames)
	for _, name := range countNames {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: name, Cat: "count", Ph: "C", Pid: 1, Tid: 0, Ts: us(now),
			Args: map[string]any{"value": t.counts[name]},
		})
	}
	t.mu.Unlock()
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
