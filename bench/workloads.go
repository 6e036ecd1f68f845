package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/workload"
)

// workloadDef names a workload and why it exists; BENCHMARK.json carries
// the same two strings.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"upload", "write side: parse, PAX build, three sorts, three index builds and the HDFS write pipeline do all the work; shows when a read optimisation makes replicas costlier to build or bigger"},
	{"index-scan", "the paper's headline path: selective queries on indexed attributes, where split phase, replica read and index lookup dominate and output formatting is negligible"},
	{"wide-scan", "every row and all nine attributes: PAX decode, Row.Line formatting, emit and output assembly dominate and replica read is a few percent"},
}

// run is one benchmark run of one workload.
type run struct {
	sc      scale
	seed    int64
	seconds float64
	outDir  string

	traced            bool          // the traced run, from its start
	tr                *obs.Trace    // its span sink, once the un-traced baseline ops are done
	setup             time.Duration // time inside the system in the set-up under way
	setupS, rawSetupS float64       // median of the set-ups in seconds, at the yardstick's speed and as measured
}

// withProbes appends to a workload's own queries the ones a traced run's
// serve probe asks, so that the one oracle pass answers them too: its hot
// set, then cold filters. The un-traced run answers them as well and asks
// none; that costs the harness a tenth of a second and keeps the two runs'
// set-up the same.
func (r *run) withProbes(own []benchQuery) []benchQuery {
	all := append(own[:len(own):len(own)], hotQueries(r.seed)...)
	rng := rand.New(rand.NewSource(r.seed ^ 0xc01d))
	for _, lo := range distinct(rng, 16, maxDuration-r.sc.coldWidth) {
		all = append(all, coldQuery(1+lo, 1+lo+r.sc.coldWidth))
	}
	return all
}

// setUp runs build — everything the system does before the timed region —
// sc.setups times over and keeps the median of the time spent inside the
// system, each scaled by the yardstick run before and after it; what the
// last build made is what the region measures. One set-up is a second or
// two on a box whose speed drifts by the minute, so a single one would say
// more about the minute than about the program. The traced run reports no
// set-up time and builds once.
func (r *run) setUp(build func() error) error {
	n := r.sc.setups
	if r.traced {
		n = 1
	}
	yard, err := newYardstick()
	if err != nil {
		return err
	}
	defer yard.close()
	var scaled, raw []float64
	for i := 0; i < n; i++ {
		r.setup = 0
		before := yard.sample(8)
		if err := build(); err != nil {
			return err
		}
		speed := float64(yardNominal) / float64((before+yard.sample(8))/2)
		scaled, raw = append(scaled, r.setup.Seconds()*speed), append(raw, r.setup.Seconds())
	}
	r.setupS, r.rawSetupS = median(scaled), median(raw)
	return nil
}

// warm runs n warm-up ops and counts their time as set-up.
func (r *run) warm(n int, op func(i int) (time.Duration, error)) error {
	for i := 0; i < n; i++ {
		d, err := op(i)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		r.setup += d
	}
	return nil
}

// limit ends a region: after ops ops when ops > 0 (the traced run), else
// once seconds have passed (the un-traced run).
type limit struct {
	seconds float64
	ops     int
}

func (l limit) done(i int, start time.Time) bool {
	if l.ops > 0 {
		return i >= l.ops
	}
	return time.Since(start).Seconds() >= l.seconds
}

// loop is the single closed-loop client of upload, index-scan and
// wide-scan: it calls op until lim, timing only the call into the system.
// op returns the latency it measured and an error when the answer, the
// access path or the call itself was wrong. In a time-limited region
// every op is followed by the yardstick, and the region is cut into
// windows at the first op boundary after each 1/windows of it.
func loop(lim limit, op func(i int) (time.Duration, error)) (timed, error) {
	t := timed{durs: make([]time.Duration, 0, 1<<16)}
	var firstErr error
	var yard *yardstick
	if lim.ops == 0 {
		var err error
		if yard, err = newYardstick(); err != nil {
			return t, err
		}
		defer yard.close()
	}
	runtime.GC()
	t.begin = snapshot()
	winLen := time.Duration(lim.seconds / windows * float64(time.Second))
	cur := window{from: t.begin.mark}
	for i := 0; !lim.done(i, t.begin.at); i++ {
		d, err := op(i)
		cur.attempted++
		if err != nil {
			t.failed++
			if firstErr == nil {
				firstErr = err
			}
		} else {
			cur.durs = append(cur.durs, d)
		}
		if yard != nil {
			perChunk, total := yard.run(d)
			cur.yards = append(cur.yards, perChunk)
			cur.yardTotal += total
		}
		if lim.ops == 0 && len(t.wins) < windows-1 && time.Since(t.begin.at) >= winLen*time.Duration(len(t.wins)+1) {
			cur.to = markNow()
			t.wins = append(t.wins, cur)
			cur = window{from: cur.to}
		}
	}
	cur.to = markNow()
	t.wins = append(t.wins, cur)
	t.end = snapshot()
	for _, w := range t.wins {
		t.attempted += w.attempted
		t.durs = append(t.durs, w.durs...)
	}
	return t, firstErr
}

// span opens a benchmark-side span around a call into a layer; it is
// inert on the un-traced run.
func (r *run) span(layer, call string) obs.Span {
	return r.tr.StartSpan(layer+"."+call, layer, 0, obs.Span{})
}

// runQuery is index-scan's and wide-scan's op: one mapred.Engine.Run with
// no cache, engine parallelism 1, checked against the oracle.
func (r *run) runQuery(fx *fixture, bq benchQuery, want answer) (*mapred.JobResult, time.Duration, error) {
	engine := &mapred.Engine{Cluster: fx.cluster, Parallelism: 1}
	job := &mapred.Job{
		Name:     "bench",
		File:     fileName,
		Input:    &core.InputFormat{Cluster: fx.cluster, Query: bq.q},
		Map:      workload.PassthroughMap,
		MapBatch: workload.PassthroughMapBatch,
		Trace:    r.tr,
	}
	sp := r.span("mapred", "Engine.Run")
	start := time.Now()
	res, err := engine.Run(job)
	dur := time.Since(start)
	sp.End()
	if err != nil {
		return nil, dur, err
	}
	if got := answerOf(res.Output); got != want {
		return res, dur, fmt.Errorf("%s: got %d rows (hash %x), oracle says %d (hash %x)",
			bq.annotation, got.count, got.hash, want.count, want.hash)
	}
	st := res.TotalStats()
	wantIndex, wantFull := 0, fx.sum.Blocks
	if bq.indexed() {
		wantIndex, wantFull = fx.sum.Blocks, 0
	}
	if st.IndexScans != wantIndex || st.FullScans != wantFull {
		return res, dur, fmt.Errorf("%s: access path was %d index + %d full scans, want %d + %d",
			bq.annotation, st.IndexScans, st.FullScans, wantIndex, wantFull)
	}
	return res, dur, nil
}

// checkUpload compares an upload's summary with what the text says.
func checkUpload(fx *fixture, o *oracle) error {
	s := fx.sum
	if int(s.Rows) != o.goodRows || int(s.BadRecords) != o.badRows || s.Blocks != o.blocks || s.TextBytes != o.textBytes {
		return fmt.Errorf("upload stored %d rows, %d bad, %d blocks, %d text bytes; the text has %d, %d, %d, %d",
			s.Rows, s.BadRecords, s.Blocks, s.TextBytes, o.goodRows, o.badRows, o.blocks, o.textBytes)
	}
	return nil
}

func storedRatio(fx *fixture) float64 {
	return float64(fx.sum.StoredBytes) / float64(fx.sum.TextBytes)
}

// sampleOf copies the lines of the first block.
func sampleOf(lines []string, sc scale) []string {
	n, text := 0, 0
	for n < len(lines) && text < sc.blockSize {
		text += len(lines[n]) + 1
		n++
	}
	return append([]string(nil), lines[:n]...)
}

// scanWorkload is index-scan and wide-scan: a list of queries cycled over
// fixture F.
type scanWorkload struct {
	fx     *fixture
	o      *oracle
	qs     []benchQuery // the workload's own
	all    []benchQuery // qs, then the probes' queries; o.answers[i] belongs to all[i]
	sample []string
	warm   int // warm-up ops
}

func (r *run) newScanWorkload(name string) (*scanWorkload, error) {
	w := &scanWorkload{}
	if name == "index-scan" {
		w.qs = scanQueries(r.seed)
		w.warm = len(w.qs) // one pass
	} else {
		w.qs = []benchQuery{wideQuery()}
		w.warm = r.sc.warmWide
	}
	w.all = r.withProbes(w.qs)
	// The lines are dropped once the last fixture and the oracle exist
	// (they would otherwise sit in peak RSS); sample keeps the first
	// block's worth for the dissection.
	lines := genLines(r.sc.fixtureRows, r.seed, r.sc)
	w.o = buildOracle(lines, w.all, r.sc.blockSize)
	w.sample = sampleOf(lines, r.sc)
	return w, r.setUp(func() error {
		w.fx = nil // two fixtures at once would double peak RSS
		fx, dur, err := upload(lines, r.sc)
		if err != nil {
			return err
		}
		r.setup += dur
		if err := checkUpload(fx, w.o); err != nil {
			return err
		}
		w.fx = fx
		return r.warm(w.warm, func(i int) (time.Duration, error) { return w.op(r, i) })
	})
}

func (w *scanWorkload) op(r *run, i int) (time.Duration, error) {
	k := i % len(w.qs)
	_, d, err := r.runQuery(w.fx, w.qs[k], w.o.answers[k])
	return d, err
}

// uploadWorkload uploads the same generated lines into a fresh cluster
// every op, dropping the previous one.
type uploadWorkload struct {
	lines []string
	o     *oracle
	qs    []benchQuery // read back from the last upload
	all   []benchQuery // qs, then the probes' queries; o.answers[i] belongs to all[i]
	last  *fixture
}

func (r *run) newUploadWorkload() (*uploadWorkload, error) {
	w := &uploadWorkload{
		lines: genLines(r.sc.uploadRows, r.seed, r.sc),
		qs:    append(scanQueries(r.seed), wideQuery()),
	}
	w.all = r.withProbes(w.qs)
	w.o = buildOracle(w.lines, w.all, r.sc.blockSize)
	return w, r.setUp(func() error {
		return r.warm(r.sc.warmUploads, func(i int) (time.Duration, error) { return w.op(r, i) })
	})
}

func (w *uploadWorkload) op(r *run, _ int) (time.Duration, error) {
	sp := r.span("core", "Client.Upload")
	fx, d, err := upload(w.lines, r.sc)
	sp.End()
	if err != nil {
		return d, err
	}
	w.last = fx
	return d, checkUpload(fx, w.o)
}
