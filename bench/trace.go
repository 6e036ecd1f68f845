package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/qcache"
)

// The traced run. It measures what the un-traced run cannot attribute:
// a fixed number of the workload's ops under an obs.Trace (benchmark
// spans around every call into a layer, plus the engine's own
// plan/schedule/map/assemble/task spans through mapred.Job.Trace), then
// the same queries taken apart layer by layer, a serve pass, and the
// dissection of one block through each layer's public functions. Every
// per-layer time is measured in every traced run: on upload the engine
// figures come from a read-back probe of the last upload, and the server
// and cache figures always come from a serve probe of the fixture.

// tally counts checked ops across the phases of a traced run.
type tally struct {
	attempted, failed int
	firstErr          error
}

func (t *tally) add(attempted, failed int, err error) {
	t.attempted += attempted
	t.failed += failed
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) addTimed(x timed, err error) { t.add(x.attempted, x.failed, err) }

// enginePass is what a pass of Engine.Run ops measured.
type enginePass struct {
	timed
	stats  mapred.TaskStats // summed over ops
	nnOps  int              // split-phase namenode lookups, summed
	kvOut  int
	phases map[string]time.Duration // engine phase spans, summed
	spans  int
}

// runEnginePass runs n Engine.Run ops cycling qs and, when tracing, reads
// the engine's phase spans back through Trace.SpanInfos.
func (r *run) runEnginePass(fx *fixture, qs []benchQuery, answers []answer, n int) (enginePass, error) {
	var p enginePass
	from := len(r.tr.SpanInfos())
	var err error
	p.timed, err = loop(limit{ops: n}, func(i int) (time.Duration, error) {
		k := i % len(qs)
		res, d, err := r.runQuery(fx, qs[k], answers[k])
		if res != nil {
			p.stats.Add(res.TotalStats())
			p.nnOps += res.SplitPhase.NameNodeOps
			p.kvOut += len(res.Output)
		}
		return d, err
	})
	spans := r.tr.SpanInfos()[from:]
	p.spans = len(spans)
	p.phases = make(map[string]time.Duration)
	for _, s := range spans {
		if s.Cat == "phase" {
			p.phases[s.Name] += s.Dur()
		}
	}
	return p, err
}

// perOp divides a pass total by its op count.
func (p *enginePass) perOp(total float64) float64 { return total / float64(p.attempted) }

// layered is a pass of queries run and then taken apart with the layers'
// public functions, each op's pieces back to back so that they see the
// same state of the box; times are summed over the pass.
type layered struct {
	ops         int
	run         time.Duration // Engine.Run
	hdfsRead    time.Duration // Cluster.ReadBlockFrom/ReadBlockAny of every block the op reads
	indexLookup time.Duration // index.Unmarshal + PartitionRange on every indexed block
	readBatches time.Duration // Open + ReadBatches with a no-op consumer
	format      time.Duration // the same with Batch.Each + Row.Line as the consumer
}

var lineSink string

// takeApart runs n ops of qs and repeats each below the engine: the
// replica reads alone, the index lookups alone, the record reader without
// map and emit, and the record reader with formatting. Each step repeats
// the work of the one before it and adds one layer, so differences
// between steps are the added layer's time.
func (r *run) takeApart(fx *fixture, qs []benchQuery, answers []answer, n int) (layered, error) {
	l := layered{ops: n}
	for i := 0; i < n; i++ {
		k := i % len(qs)
		bq := qs[k]
		_, d, err := r.runQuery(fx, bq, answers[k])
		if err != nil {
			return l, err
		}
		l.run += d
		input := &core.InputFormat{Cluster: fx.cluster, Query: bq.q}
		splits, _, err := input.SplitsWithStats(fileName)
		if err != nil {
			return l, err
		}
		for _, split := range splits {
			for _, b := range split.Blocks {
				sp := r.span("hdfs", "ReadBlock")
				start := time.Now()
				var data []byte
				if node, pinned := split.Replica[b]; pinned {
					data, err = fx.cluster.ReadBlockFrom(node, b)
				} else {
					data, _, err = fx.cluster.ReadBlockAny(b, split.Locations[0])
				}
				l.hdfsRead += time.Since(start)
				sp.End()
				if err != nil {
					return l, err
				}
				_, ixData, err := core.ParseFrame(data)
				if err != nil {
					return l, err
				}
				if !bq.indexed() {
					continue
				}
				sp = r.span("index", "Unmarshal+PartitionRange")
				start = time.Now()
				ix, err := index.Unmarshal(ixData)
				if err == nil {
					ix.PartitionRange(bq.q.Filter[0].Lo, bq.q.Filter[0].Hi)
				}
				l.indexLookup += time.Since(start)
				sp.End()
				if err != nil {
					return l, err
				}
			}
		}
		consumers := []struct {
			call    string
			total   *time.Duration
			consume func(*mapred.Batch)
		}{
			{"ReadBatches", &l.readBatches, func(*mapred.Batch) {}},
			{"ReadBatches+Line", &l.format, func(b *mapred.Batch) {
				b.Each(func(rec mapred.Record) {
					if !rec.Bad {
						lineSink = rec.Row.Line(',')
					}
				})
			}},
		}
		for _, c := range consumers {
			sp := r.span("core", c.call)
			start := time.Now()
			for _, split := range splits {
				rr, err := input.Open(split, split.Locations[0])
				if err != nil {
					return l, err
				}
				if _, err := rr.(mapred.BatchReader).ReadBatches(c.consume); err != nil {
					return l, err
				}
			}
			*c.total += time.Since(start)
			sp.End()
		}
	}
	return l, nil
}

// scanShares splits the traced op time of a scan workload among the
// layers. hdfs and index are timed directly; core is the record reader
// beyond them (PAX decode and the query kernels run inside it); schema is
// what formatting adds to the reader; mapred is what Engine.Run adds to
// that (emit, output assembly, plan, schedule).
func scanShares(m map[string]float64, l layered) {
	share := func(d time.Duration) float64 { return float64(d) / float64(l.run) }
	m["share.hdfs"] = share(l.hdfsRead)
	m["share.index"] = share(l.indexLookup)
	m["share.core"] = share(l.readBatches - l.hdfsRead - l.indexLookup)
	m["share.schema"] = share(l.format - l.readBatches)
	m["share.mapred"] = share(l.run - l.format)
}

// engineMetrics fills the metrics that come from a pass of Engine.Run ops
// and the same ops taken apart.
func engineMetrics(m map[string]float64, p *enginePass, l layered) {
	m["pax.bytes_read_per_op"] = p.perOp(float64(p.stats.BytesRead))
	m["hdfs.namenode_ops_per_op"] = p.perOp(float64(p.nnOps))
	m["core.index_scans_per_op"] = p.perOp(float64(p.stats.IndexScans))
	m["core.full_scans_per_op"] = p.perOp(float64(p.stats.FullScans))
	m["core.rows_scanned_per_row_selected"] = 0
	if p.stats.RowsSelected > 0 {
		m["core.rows_scanned_per_row_selected"] = float64(p.stats.RowsScanned) / float64(p.stats.RowsSelected)
	}
	m["mapred.kv_out_per_op"] = p.perOp(float64(p.kvOut))
	for _, phase := range []string{"plan", "schedule", "map", "assemble"} {
		m["mapred."+phase+"_ms"] = p.perOp(ms(p.phases[phase]))
	}
	m["core.read_batches_ms_per_op"] = ms(l.readBatches) / float64(l.ops)
	m["mapred.map_emit_ms_per_op"] = ms(l.run-l.readBatches) / float64(l.ops)
}

// serveMetrics fills the server and served-cache metrics from a region of
// requests and the cache counters around it.
func serveMetrics(m map[string]float64, s *served, reg servedRegion, before qcache.Stats) {
	var hit, miss, overhead []time.Duration
	hot, hotCached := 0, 0
	for _, rep := range reg.replies {
		if rep.cached {
			hit = append(hit, rep.dur)
		} else {
			miss = append(miss, rep.dur)
		}
		if rep.hot {
			hot++
			if rep.cached {
				hotCached++
			}
		}
		overhead = append(overhead, rep.overhead)
	}
	ops := float64(reg.attempted)
	cs := s.srv.CacheStats().Sub(before)
	registry := s.srv.Registry()
	m["server.hit_ms_p50"] = ms(quantile(hit, 0.5))
	m["server.miss_ms_p50"] = ms(quantile(miss, 0.5))
	m["server.op_ms_p99"] = ms(quantile(reg.durs, 0.99))
	m["server.http_overhead_ms_p50"] = ms(quantile(overhead, 0.5))
	m["server.queue_wait_ms_mean"] = ms(registry.Histogram("server.queue_wait_seconds").Mean())
	m["server.rejected_per_op"] = float64(registry.Counter("server.rejected").Value()) / ops
	m["qcache.hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	m["qcache.hot_hit_ratio"] = float64(hotCached) / float64(hot)
	m["qcache.evictions_per_op"] = float64(cs.Evictions) / ops
	m["qcache.resident_mb"] = float64(cs.Bytes) / 1e6
}

func (r *run) executeTraced(name string) (*result, error) {
	r.traced = true
	m := make(map[string]float64)
	for _, d := range perLayer {
		if strings.HasPrefix(d.Name, "share.") {
			m[d.Name] = 0 // a share the workload does not split out
		}
	}
	var (
		tl      tally
		fx      *fixture     // what the probes and the dissection read
		o       *oracle      // o.answers[i] belongs to all[i]
		all     []benchQuery // the workload's own queries, then the hot set, then cold filters
		passQs  []benchQuery // what the engine pass cycles, with passAns
		passAns []answer
		passOps int
		sample  []string
		base    timed // un-traced ops, for the tracing overhead
		work    timed // the workload's traced ops
		upl     *uploadWorkload
	)
	startTrace := func() { r.tr = obs.NewTrace("bench:" + name) }

	switch name {
	case "upload":
		w, err := r.newUploadWorkload()
		if err != nil {
			return nil, err
		}
		op := func(i int) (time.Duration, error) { return w.op(r, i) }
		base, err = loop(limit{ops: r.sc.tracedUploads / 2}, op)
		tl.addTimed(base, err)
		startTrace()
		work, err = loop(limit{ops: r.sc.tracedUploads}, op)
		tl.addTimed(work, err)
		m["obs.spans_per_op"] = float64(len(r.tr.SpanInfos())) / float64(work.attempted)
		upl, fx, o, all, sample = w, w.last, w.o, w.all, sampleOf(w.lines, r.sc)
		passQs, passAns, passOps = w.qs, o.answers, len(w.qs)
	case "index-scan", "wide-scan":
		w, err := r.newScanWorkload(name)
		if err != nil {
			return nil, err
		}
		fx, o, all, sample = w.fx, w.o, w.all, w.sample
		passQs, passAns, passOps = w.qs, o.answers, len(w.qs)
		if name == "wide-scan" {
			passOps = r.sc.tracedWide
		}
		bp, err := r.runEnginePass(fx, passQs, passAns, passOps)
		tl.addTimed(bp.timed, err)
		base = bp.timed
		startTrace()
	}

	// The engine pass: the workload's own traced ops on index-scan and
	// wide-scan, the read-back probe on upload.
	pass, err := r.runEnginePass(fx, passQs, passAns, passOps)
	tl.addTimed(pass.timed, err)
	apartOps := passOps
	if name == "wide-scan" {
		apartOps = r.sc.shareWide
	}
	apart, err := r.takeApart(fx, passQs, passAns, apartOps)
	if err != nil {
		return nil, fmt.Errorf("taking ops apart: %w", err)
	}
	tl.add(apart.ops, 0, nil)
	engineMetrics(m, &pass, apart)
	if upl == nil {
		work = pass.timed
		scanShares(m, apart)
		m["obs.spans_per_op"] = float64(pass.spans) / float64(pass.attempted)
	}
	m["obs.trace_overhead_ratio"] = ms(quantile(work.durs, 0.5)) / ms(quantile(base.durs, 0.5))

	// The serve probe: the fixture saved, loaded by a server.Server and
	// queried over loopback HTTP by two closed-loop clients.
	hotAt := len(passQs) // the hot set follows the workload's own queries
	s, saveDur, err := r.serve(fx, o, all[hotAt:hotAt+hotSet], o.answers[hotAt:])
	if err != nil {
		return nil, err
	}
	defer s.close()
	before := s.srv.CacheStats()
	reg, err := r.region(s, r.sc.probeServe, true)
	tl.addTimed(reg.timed, err)
	serveMetrics(m, s, reg, before)
	loadDur, err := r.loadTime(s.dir)
	if err != nil {
		return nil, err
	}
	tl.add(0, 0, s.close())
	m["hdfs.save_ms"], m["hdfs.load_ms"] = ms(saveDur), ms(loadDur)

	d, err := r.dissect(sample, fx)
	if err != nil {
		return nil, fmt.Errorf("dissection: %w", err)
	}
	d.fill(m)
	blocksRead := float64(pass.stats.Blocks-pass.stats.BlocksFromCache) / float64(pass.attempted)
	m["hdfs.read_alloc_mb_per_op"] = d.readAllocMB * blocksRead
	if upl != nil {
		d.uploadShares(m, upl.o, ms(sum(work.durs))/float64(len(work.durs)))
	}

	if err := r.tr.Validate(); err != nil {
		return nil, err
	}
	if err := r.writeTrace(name); err != nil {
		return nil, err
	}
	metrics, err := fill(perLayer, m)
	if err != nil {
		return nil, err
	}
	return &result{
		Correct: tl.failed == 0 && tl.firstErr == nil, Attempted: tl.attempted, Failed: tl.failed,
		Metrics: metrics, Workload: name, Traced: true, Samples: len(work.durs),
	}, tl.firstErr
}

// writeTrace writes the run's spans as Chrome trace_event JSON.
func (r *run) writeTrace(name string) error {
	f, err := os.Create(filepath.Join(r.outDir, name+".trace.json"))
	if err != nil {
		return err
	}
	if err := r.tr.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
