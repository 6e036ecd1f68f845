package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("engine.tasks")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("engine.tasks"); again != c {
		t.Fatalf("Counter did not return the registered instance")
	}
	g := r.Gauge("engine.inflight")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	r.SetGaugeFunc("engine.lazy", func() int64 { return 42 })

	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics, want 3", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
	byName := map[string]Metric{}
	for _, m := range snap {
		byName[m.Name] = m
	}
	if m := byName["engine.lazy"]; m.Kind != "gauge" || m.Value != 42 {
		t.Fatalf("gauge func metric = %+v", m)
	}
	if !strings.Contains(r.String(), "engine.tasks") {
		t.Fatalf("String() missing counter:\n%s", r.String())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 90 samples at ~1ms, 10 at ~100ms: p50 lands in the 1ms bucket's
	// range, p99 in the 100ms bucket's range.
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100 * time.Millisecond)
	}
	if got := h.Count(); got != 100 {
		t.Fatalf("count = %d, want 100", got)
	}
	p50, p99 := h.Quantile(0.50), h.Quantile(0.99)
	if p50 <= 0 || p50 > 4*time.Millisecond {
		t.Fatalf("p50 = %v, want in (0, 4ms]", p50)
	}
	if p99 < 64*time.Millisecond || p99 > 256*time.Millisecond {
		t.Fatalf("p99 = %v, want within the ~100ms bucket", p99)
	}
	if p95 := h.Quantile(0.95); p95 < p50 || p95 > p99 {
		t.Fatalf("quantiles not ordered: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if mean := h.Mean(); mean < 5*time.Millisecond || mean > 50*time.Millisecond {
		t.Fatalf("mean = %v, want ~10.9ms", mean)
	}
}

func TestHistogramEdges(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile should be 0")
	}
	h.Observe(0)
	h.Observe(-time.Second) // clamped
	if got := h.Quantile(0.5); got != time.Microsecond {
		t.Fatalf("sub-µs samples should land in bucket 0 (upper bound 1µs), got %v", got)
	}
	h.Observe(365 * 24 * time.Hour) // beyond the last bucket boundary
	if got := h.Quantile(1.0); got <= 0 {
		t.Fatalf("overflow bucket quantile = %v, want > 0", got)
	}
}

// TestHistogramRelativeError sweeps 1 µs to 1 h in steps of 0.01% and
// holds every bucket to the log-linear promise: a sample lies in its
// bucket, the bucket's upper bound — what Quantile reports — overstates it
// by at most 12.5%, and buckets ascend without gaps. The power-of-two
// buckets this replaced overstated a sample by up to 100%.
func TestHistogramRelativeError(t *testing.T) {
	worst := 0.0
	for f := float64(time.Microsecond); f <= float64(time.Hour); f *= 1.0001 {
		d := time.Duration(f)
		k := histBucket(d)
		up := bucketUpper(k)
		if d >= up || k > 1 && d < bucketUpper(k-1) {
			t.Fatalf("%v lands in bucket %d of [%v, %v)", d, k, bucketUpper(k-1), up)
		}
		if e := float64(up-d) / float64(d); e > worst {
			worst = e
		}
		if k2 := histBucket(d + 1); k2 != k && k2 != k+1 {
			t.Fatalf("%v is in bucket %d, one nanosecond more in %d", d, k, k2)
		}
	}
	t.Logf("worst overstatement from 1µs to 1h: %.2f%%", 100*worst)
	if worst > 0.125 {
		t.Errorf("a bucket's upper bound overstates a sample by %.2f%%, want at most 12.5%%", 100*worst)
	}
	if k := histBucket(time.Duration(1)<<49 - 1); k != histBuckets-1 {
		t.Errorf("2^49 ns - 1 lands in bucket %d, want the last, %d", k, histBuckets-1)
	}
	var h Histogram
	h.Observe(1500 * time.Microsecond)
	if got := h.Quantile(0.5); got < 1500*time.Microsecond || got > 1500*time.Microsecond*9/8 {
		t.Errorf("one 1.5ms sample: p50 = %v", got)
	}
}

func TestNilRegistryHandles(t *testing.T) {
	var r *Registry
	c, g, h := r.Counter("x"), r.Gauge("y"), r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(time.Second)
	r.SetGaugeFunc("w", func() int64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("nil handles must read as zero")
	}
	if r.Snapshot() != nil || r.String() != "" {
		t.Fatalf("nil registry snapshot must be empty")
	}
}

// TestDisabledObsZeroAlloc is the allocation gate for the disabled path:
// every operation the engine performs per task/block against nil handles
// must allocate nothing, so wiring observability through the hot path is
// free when it is off.
func TestDisabledObsZeroAlloc(t *testing.T) {
	var reg *Registry
	var tr *Trace
	c := reg.Counter("c")
	h := reg.Histogram("h")
	allocs := testing.AllocsPerRun(200, func() {
		sp := tr.StartSpan("task", "task", 1, Span{})
		child := tr.StartSpan("attempt", "task", 1, sp)
		child.SetInt("node", 3)
		child.SetStr("file", "f")
		child.End()
		tr.Instant("repack", "task", 1, sp)
		tr.Count("qcache.block_hit", 1)
		sp.End()
		c.Add(1)
		c.Inc()
		h.Observe(time.Millisecond)
		_ = tr.Now()
		_ = tr.Enabled()
	})
	if allocs != 0 {
		t.Fatalf("disabled obs path allocated %.1f per run, want 0", allocs)
	}
}

// TestRegistryRaceStress hammers one registry from many goroutines doing
// get-or-create lookups, updates, and snapshots at once — run under -race
// in CI's short lane.
func TestRegistryRaceStress(t *testing.T) {
	r := NewRegistry()
	r.SetGaugeFunc("fn", func() int64 { return 1 })
	const workers = 16
	const iters = 300
	names := []string{"a", "b", "c", "d"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := names[(w+i)%len(names)]
				r.Counter(name).Inc()
				r.Gauge(name).Add(1)
				r.Histogram(name).Observe(time.Duration(i) * time.Microsecond)
				if i%50 == 0 {
					_ = r.Snapshot()
					_ = r.String()
				}
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, name := range names {
		total += r.Counter(name).Value()
		if r.Counter(name).Value() != r.Gauge(name).Value() {
			t.Fatalf("counter/gauge diverged for %q", name)
		}
		if r.Histogram(name).Count() != r.Counter(name).Value() {
			t.Fatalf("histogram count diverged for %q", name)
		}
	}
	if total != workers*iters {
		t.Fatalf("lost updates: total = %d, want %d", total, workers*iters)
	}
}
