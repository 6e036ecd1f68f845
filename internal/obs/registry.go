// Package obs is the process-wide observability layer: a concurrency-safe,
// allocation-light metrics registry (counters, gauge functions,
// fixed-bucket log-linear latency histograms) plus per-query trace spans
// (trace.go). Every handle is nil-safe — a nil *Registry hands out nil
// *Counter/*Histogram whose methods no-op without allocating, so
// subsystems wire observability unconditionally and pay nothing when it is
// disabled.
package obs

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter ignores all updates and reads as zero.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// A Histogram is log-linear: bucket 0 holds every sample under 1 µs, and
// above that a sample of v nanoseconds lands in its power-of-two octave's
// eighth named by the three bits after v's leading one. Every bucket is an
// eighth of its octave wide, so the upper bound Quantile reports overstates
// a sample by at most 12.5%. v's eighth is numbered 8·s + v>>s, where s is
// v's bit length less four (v itself below 16); 1 µs is in eighth 63, so
// bucket k is eighth k + histFloor. histBuckets reaches 2^49 ns ≈ 6.5 days,
// far beyond any query this engine runs; longer samples share the last
// bucket.
const (
	histFloor   = 62
	histBuckets = 314
)

// Histogram is a fixed-bucket, log-linear latency histogram. Observations
// are lock-free atomic increments; a nil Histogram ignores observations and
// reports zero quantiles.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // total nanoseconds
}

func histBucket(d time.Duration) int {
	if d < time.Microsecond {
		return 0
	}
	shift := bits.Len64(uint64(d)) - 4
	return min(shift<<3+int(d>>shift)-histFloor, histBuckets-1)
}

// bucketUpper is the exclusive upper bound of bucket k as a duration.
func bucketUpper(k int) time.Duration {
	if k == 0 {
		return time.Microsecond
	}
	i := k + histFloor
	return time.Duration(i&7+9) << (i>>3 - 1)
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	h.buckets[histBucket(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// Count returns the number of samples observed.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observed samples.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Mean returns the average observed latency, or 0 with no samples.
func (h *Histogram) Mean() time.Duration {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return h.Sum() / time.Duration(n)
}

// Quantile returns an upper-bound estimate of the p-quantile (0 < p ≤ 1):
// the upper boundary of the bucket containing the p·count-th sample, at
// most 12.5% above it from 1 µs up. With no samples it returns 0; any
// recorded sample yields a non-zero estimate (bucket 0's upper bound is
// 1µs).
func (h *Histogram) Quantile(p float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 || p <= 0 {
		return 0
	}
	if p > 1 {
		p = 1
	}
	rank := int64(p * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for k := 0; k < histBuckets; k++ {
		seen += h.buckets[k].Load()
		if seen >= rank {
			return bucketUpper(k)
		}
	}
	return bucketUpper(histBuckets - 1)
}

// Registry is a named collection of metrics. Get-or-create lookups take a
// short lock; call sites that care about the hot path resolve handles once
// and hold them. A nil Registry hands out nil handles (whose methods
// no-op), making the disabled path free.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the histogram registered under name, creating it on
// first use.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// SetGaugeFunc registers (or replaces) a lazily evaluated gauge: fn runs at
// snapshot time only, so folding an existing atomic counter into the
// registry costs nothing on the owner's hot path. No-op on a nil registry.
func (r *Registry) SetGaugeFunc(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	r.gaugeFuncs[name] = fn
	r.mu.Unlock()
}

// Metric is one snapshot row.
type Metric struct {
	Name  string `json:"name"`
	Kind  string `json:"kind"`            // "counter", "gauge", "histogram"
	Value int64  `json:"value,omitempty"` // counters and gauges
	// Histogram-only fields, in milliseconds.
	Count  int64   `json:"count,omitempty"`
	MeanMs float64 `json:"mean_ms,omitempty"`
	P50Ms  float64 `json:"p50_ms,omitempty"`
	P95Ms  float64 `json:"p95_ms,omitempty"`
	P99Ms  float64 `json:"p99_ms,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// Snapshot returns every metric, sorted by name. Gauge funcs are evaluated
// at call time. Safe to call concurrently with updates.
func (r *Registry) Snapshot() []Metric {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := make([]Metric, 0, len(r.counters)+len(r.gaugeFuncs)+len(r.hists))
	for name, c := range r.counters {
		out = append(out, Metric{Name: name, Kind: "counter", Value: c.Value()})
	}
	fns := make(map[string]func() int64, len(r.gaugeFuncs))
	for name, fn := range r.gaugeFuncs {
		fns[name] = fn
	}
	for name, h := range r.hists {
		out = append(out, Metric{
			Name: name, Kind: "histogram", Count: h.Count(),
			MeanMs: ms(h.Mean()),
			P50Ms:  ms(h.Quantile(0.50)),
			P95Ms:  ms(h.Quantile(0.95)),
			P99Ms:  ms(h.Quantile(0.99)),
		})
	}
	r.mu.RUnlock()
	// Evaluate gauge funcs outside the registry lock: they may read locks
	// owned by other subsystems (the namenode directory, cache shards).
	for name, fn := range fns {
		out = append(out, Metric{Name: name, Kind: "gauge", Value: fn()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// String renders the snapshot as aligned text, one metric per line.
func (r *Registry) String() string {
	snap := r.Snapshot()
	if len(snap) == 0 {
		return ""
	}
	wide := 0
	for _, m := range snap {
		if len(m.Name) > wide {
			wide = len(m.Name)
		}
	}
	var b strings.Builder
	for _, m := range snap {
		switch m.Kind {
		case "histogram":
			fmt.Fprintf(&b, "%-*s  count=%d mean=%.3fms p50=%.3fms p95=%.3fms p99=%.3fms\n",
				wide, m.Name, m.Count, m.MeanMs, m.P50Ms, m.P95Ms, m.P99Ms)
		default:
			fmt.Fprintf(&b, "%-*s  %d\n", wide, m.Name, m.Value)
		}
	}
	return b.String()
}
