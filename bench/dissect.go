package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/hdfs"
	"repro/internal/index"
	"repro/internal/mapred"
	"repro/internal/pax"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// dissection is the cost of each layer's public functions on one block
// of the run's own generated lines (and, for the storage calls, on the
// run's fixture). Every figure is the median of a few repetitions, each
// under its own benchmark span.
type dissection struct {
	sampleLines, sampleRows int

	parse, format                         time.Duration // whole sample
	build, unmarshal                      time.Duration // one block
	sortString, sortFloat                 time.Duration
	indexBuild                            [3]time.Duration // per layout column
	buildReplica                          [3]time.Duration
	indexBytes                            float64
	parseFrame, openReader                time.Duration // one call
	indexUnmarshal, indexLookup           time.Duration
	decodeFixed, decodeString, decodeSel  time.Duration // one column of the block
	queryParse, querySignature            time.Duration
	filterInt, filterString               time.Duration // one 1024-row vector
	writeBlock, readBlock, hostsWithIndex time.Duration
	splitPhase                            time.Duration
	readAllocMB                           float64 // MB allocated by one replica read
	cacheHit, cacheMiss, cachePut         time.Duration
	cacheInvalidate                       time.Duration
}

// timeCall runs fn reps times, each under a span (prep, when not nil,
// runs before each and is not timed), and returns the median divided by
// iters, the number of calls fn makes.
func (r *run) timeCall(layer, call string, reps, iters int, prep, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, reps)
	for i := 0; i < reps; i++ {
		if prep != nil {
			if err := prep(); err != nil {
				return 0, err
			}
		}
		sp := r.span(layer, call)
		start := time.Now()
		err := fn()
		d := time.Since(start)
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("%s.%s: %w", layer, call, err)
		}
		ds = append(ds, d)
	}
	return quantile(ds, 0.5) / time.Duration(iters), nil
}

const dissectReps = 5

// dissect measures every layer on sample (the first block's lines) and on
// fx's stored blocks.
func (r *run) dissect(sample []string, fx *fixture) (*dissection, error) {
	d := &dissection{sampleLines: len(sample)}
	sch := workload.UserVisitsSchema()
	layout := bobLayout(r.sc.blockSize)
	var err error
	// step times one call; on error the first one is kept and later
	// steps are skipped.
	step := func(dst *time.Duration, layer, call string, iters int, prep, fn func() error) {
		if err == nil {
			*dst, err = r.timeCall(layer, call, dissectReps, iters, prep, fn)
		}
	}

	// schema: text to typed rows and back.
	parser := schema.NewParser(sch)
	rows := make([]schema.Row, 0, len(sample))
	step(&d.parse, "schema", "Parser.ParseLine", 1, nil, func() error {
		rows = rows[:0]
		for _, line := range sample {
			if row, perr := parser.ParseLine(line); perr == nil {
				rows = append(rows, row)
			}
		}
		return nil
	})
	d.sampleRows = len(rows)
	step(&d.format, "schema", "Row.Line", 1, nil, func() error {
		for _, row := range rows {
			lineSink = row.Line(',')
		}
		return nil
	})

	// pax: build, marshal, unmarshal, sort.
	var paxData []byte
	step(&d.build, "pax", "AppendRow+Marshal", 1, nil, func() error {
		b := pax.NewBlock(sch)
		for _, row := range rows {
			if aerr := b.AppendRow(row); aerr != nil {
				return aerr
			}
		}
		var merr error
		paxData, merr = b.Marshal()
		return merr
	})
	var blk *pax.Block
	fresh := func() error {
		var uerr error
		blk, uerr = pax.Unmarshal(paxData)
		return uerr
	}
	step(&d.unmarshal, "pax", "Unmarshal", 1, nil, fresh)
	sortBy := func(col int) func() error {
		return func() error { _, serr := blk.SortBy(col); return serr }
	}
	step(&d.sortString, "pax", "SortBy(string)", 1, fresh, sortBy(workload.UVSourceIP))
	step(&d.sortFloat, "pax", "SortBy(float)", 1, fresh, sortBy(workload.UVAdRevenue))

	// index and core: what each replica of Bob's layout costs to build.
	framed := make([][]byte, len(layout.SortColumns))
	for i, col := range layout.SortColumns {
		sorted := func() error {
			if uerr := fresh(); uerr != nil {
				return uerr
			}
			return sortBy(col)()
		}
		step(&d.indexBuild[i], "index", "Build", 1, sorted, func() error {
			_, berr := index.Build(blk, col)
			return berr
		})
		step(&d.buildReplica[i], "core", "BuildIndexedReplica", 1, nil, func() error {
			data, info, berr := core.BuildIndexedReplica(paxData, col)
			framed[i] = data
			d.indexBytes += float64(info.IndexSize) / float64(len(layout.SortColumns)) / dissectReps
			return berr
		})
	}
	if err != nil {
		return nil, err
	}

	// The visitDate replica stands for a stored block in the read-side
	// calls: index-scan reads date and revenue replicas, both fixed-width
	// keys.
	replica := framed[1]
	var paxPart, ixPart []byte
	step(&d.parseFrame, "core", "ParseFrame", 1000, nil, func() error {
		for i := 0; i < 1000; i++ {
			var perr error
			if paxPart, ixPart, perr = core.ParseFrame(replica); perr != nil {
				return perr
			}
		}
		return nil
	})
	var reader *pax.Reader
	step(&d.openReader, "pax", "NewReader", 100, nil, func() error {
		for i := 0; i < 100; i++ {
			var rerr error
			if reader, rerr = pax.NewReader(paxPart); rerr != nil {
				return rerr
			}
		}
		return nil
	})
	var ix *index.Index
	step(&d.indexUnmarshal, "index", "Unmarshal", 100, nil, func() error {
		for i := 0; i < 100; i++ {
			var uerr error
			if ix, uerr = index.Unmarshal(ixPart); uerr != nil {
				return uerr
			}
		}
		return nil
	})
	step(&d.indexLookup, "index", "PartitionRange", 1000, nil, func() error {
		for i := 0; i < 1000; i++ {
			lo := schema.DateVal(visitDateMin + int32(i*11))
			hi := schema.DateVal(visitDateMin + int32(i*11) + 365)
			ix.PartitionRange(&lo, &hi)
		}
		return nil
	})

	// pax decode: one column of the block through a ColumnCursor.
	n := d.sampleRows
	every50 := make([]int32, 0, pax.PartitionSize/50+1)
	for i := int32(0); i < pax.PartitionSize; i += 50 {
		every50 = append(every50, i) // 2% of a batch
	}
	decode := func(col int, sel []int32) func() error {
		vec := schema.NewVector(sch.Field(col).Type)
		return func() error {
			cur, cerr := reader.NewColumnCursor(col, 0, n)
			for cerr == nil && cur.Remaining() > 0 {
				if sel == nil {
					_, cerr = cur.Next(pax.PartitionSize, vec)
				} else {
					k := len(sel)
					for k > 0 && int(sel[k-1]) >= cur.Remaining() {
						k--
					}
					_, cerr = cur.NextSelected(pax.PartitionSize, sel[:k], vec)
				}
			}
			return cerr
		}
	}
	step(&d.decodeFixed, "pax", "ColumnCursor.Next(int32)", 1, nil, decode(workload.UVDuration, nil))
	step(&d.decodeString, "pax", "ColumnCursor.Next(string)", 1, nil, decode(workload.UVDestURL, nil))
	step(&d.decodeSel, "pax", "ColumnCursor.NextSelected(string)", 1, nil, decode(workload.UVDestURL, every50))

	// query: parse, signature, and the kernels on one 1024-row vector.
	dateQ := dateQuery(4000)
	step(&d.queryParse, "query", "ParseAnnotation", 200, nil, func() error {
		for i := 0; i < 200; i++ {
			if _, perr := query.ParseAnnotation(sch, dateQ.annotation); perr != nil {
				return perr
			}
		}
		return nil
	})
	step(&d.querySignature, "query", "Signature", 200, nil, func() error {
		for i := 0; i < 200; i++ {
			lineSink = dateQ.q.Signature()
		}
		return nil
	})
	kernel := func(bq benchQuery, col int) func() error {
		vec := schema.NewVector(sch.Field(col).Type)
		var sel query.Selection
		return func() error {
			cur, cerr := reader.NewColumnCursor(col, 0, n)
			if cerr != nil {
				return cerr
			}
			if _, cerr = cur.Next(pax.PartitionSize, vec); cerr != nil {
				return cerr
			}
			rowsIn := vec.Len()
			for i := 0; i < 1000; i++ {
				sel = bq.q.MatchesBatch(func(int) *schema.Vector { return vec }, query.MakeSelection(sel, rowsIn))
			}
			return nil
		}
	}
	step(&d.filterInt, "query", "MatchesBatch(int32)", 1000, nil, kernel(coldQuery(100, 200), workload.UVDuration))
	step(&d.filterString, "query", "MatchesBatch(string)", 1000, nil, kernel(needleQuery(), workload.UVSourceIP))

	// hdfs: the write pipeline without HAIL's transform, and the read
	// path and directory on the fixture.
	identity := func(_ int, _ hdfs.NodeID, data []byte) ([]byte, hdfs.ReplicaInfo, error) {
		return data, hdfs.ReplicaInfo{SortColumn: -1}, nil
	}
	var scratch *hdfs.Cluster
	step(&d.writeBlock, "hdfs", "Cluster.WriteBlock", 1,
		func() (cerr error) { scratch, cerr = hdfs.NewCluster(nodes); return cerr },
		func() error {
			_, _, werr := scratch.WriteBlock("/dissect", paxData, layout.Replication(), identity)
			return werr
		})
	blocks, berr := fx.cluster.NameNode().FileBlocks(fileName)
	if err == nil {
		err = berr
	}
	readAll := func() error {
		for _, b := range blocks {
			if _, _, rerr := fx.cluster.ReadBlockAny(b, 0); rerr != nil {
				return rerr
			}
		}
		return nil
	}
	step(&d.readBlock, "hdfs", "Cluster.ReadBlockAny", len(blocks), nil, readAll)
	if err == nil {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = readAll()
		runtime.ReadMemStats(&after)
		d.readAllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(len(blocks))
	}
	step(&d.hostsWithIndex, "hdfs", "NameNode.GetHostsWithIndex", 1000, nil, func() error {
		nn := fx.cluster.NameNode()
		for i := 0; i < 1000; i++ {
			nn.GetHostsWithIndex(blocks[i%len(blocks)], workload.UVVisitDate)
		}
		return nil
	})
	step(&d.splitPhase, "core", "InputFormat.SplitsWithStats", 20, nil, func() error {
		input := &core.InputFormat{Cluster: fx.cluster, Query: dateQ.q}
		for i := 0; i < 20; i++ {
			if _, _, serr := input.SplitsWithStats(fileName); serr != nil {
				return serr
			}
		}
		return nil
	})

	// qcache: entries of about 8k KVs, the size of a hot block output.
	const entries, kvsPerEntry = 64, 8192
	kvs := make([]mapred.KV, kvsPerEntry)
	for i := range kvs {
		kvs[i].Key = fmt.Sprintf("203.0.%d.%d", i/256, i%256)
	}
	key := func(i int, q string) mapred.CacheKey {
		return mapred.CacheKey{File: fileName, Block: hdfs.BlockID(i), Gen: 1, Query: q, MapSig: workload.PassthroughMapSig}
	}
	var cache *qcache.Cache
	filled := func() error {
		cache = qcache.New(qcache.DefaultBudget)
		for i := 0; i < entries; i++ {
			cache.Put(key(i, "hot"), kvs, mapred.TaskStats{})
		}
		return nil
	}
	step(&d.cachePut, "qcache", "Put", entries, nil, filled)
	probe := func(q string, want bool) func() error {
		return func() error {
			for i := 0; i < entries; i++ {
				if _, _, ok := cache.Get(key(i, q)); ok != want {
					return fmt.Errorf("Get(%s) hit=%v, want %v", q, ok, want)
				}
			}
			return nil
		}
	}
	step(&d.cacheHit, "qcache", "Get(hit)", entries, nil, probe("hot", true))
	step(&d.cacheMiss, "qcache", "Get(miss)", entries, nil, probe("cold", false))
	step(&d.cacheInvalidate, "qcache", "InvalidateBlock", entries, filled, func() error {
		for i := 0; i < entries; i++ {
			cache.InvalidateBlock(hdfs.BlockID(i))
		}
		return nil
	})
	return d, err
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ns(d time.Duration) float64 { return float64(d) }

// fill writes the dissection's metrics.
func (d *dissection) fill(m map[string]float64) {
	rows := float64(d.sampleRows)
	m["schema.parse_ns_per_line"] = ns(d.parse) / float64(d.sampleLines)
	m["schema.format_ns_per_row"] = ns(d.format) / rows
	m["pax.build_ms_per_block"] = ms(d.build)
	m["pax.unmarshal_ms_per_block"] = ms(d.unmarshal)
	m["pax.sort_string_ms_per_block"] = ms(d.sortString)
	m["pax.sort_float_ms_per_block"] = ms(d.sortFloat)
	m["pax.open_reader_us"] = us(d.openReader)
	m["pax.decode_fixed_ns_per_row"] = ns(d.decodeFixed) / rows
	m["pax.decode_string_ns_per_row"] = ns(d.decodeString) / rows
	m["pax.decode_selected_ns_per_row"] = ns(d.decodeSel) / rows
	m["index.build_ms_per_block"] = ms(d.indexBuild[0]+d.indexBuild[1]+d.indexBuild[2]) / 3
	m["index.unmarshal_us"] = us(d.indexUnmarshal)
	m["index.lookup_ns"] = ns(d.indexLookup)
	m["index.bytes_per_block"] = d.indexBytes
	m["hdfs.write_block_ms"] = ms(d.writeBlock)
	m["hdfs.read_block_us"] = us(d.readBlock)
	m["hdfs.hosts_with_index_ns"] = ns(d.hostsWithIndex)
	m["core.build_replica_ms_per_block"] = ms(d.buildReplica[0]+d.buildReplica[1]+d.buildReplica[2]) / 3
	m["core.parse_frame_us"] = us(d.parseFrame)
	m["core.split_phase_us"] = us(d.splitPhase)
	m["query.parse_us"] = us(d.queryParse)
	m["query.signature_us"] = us(d.querySignature)
	m["query.filter_int_ns_per_row"] = ns(d.filterInt) / pax.PartitionSize
	m["query.filter_string_ns_per_row"] = ns(d.filterString) / pax.PartitionSize
	m["qcache.get_hit_ns"] = ns(d.cacheHit)
	m["qcache.get_miss_ns"] = ns(d.cacheMiss)
	m["qcache.put_us"] = us(d.cachePut)
	m["qcache.invalidate_us"] = us(d.cacheInvalidate)
}

// uploadShares splits an upload's time among the layers: the dissected
// cost of one block of rows, scaled to the op's rows. core is what is
// left: framing, block cutting and the calls between the layers. Costs
// measured in isolation can add up to more than the op took (by a sixth on
// this box); the shares are then of their sum and core reads 0.
func (d *dissection) uploadShares(m map[string]float64, o *oracle, opMS float64) {
	blocks := float64(o.goodRows) / float64(d.sampleRows)
	var replicas, indexes time.Duration
	for i := range d.buildReplica {
		replicas += d.buildReplica[i]
		indexes += d.indexBuild[i]
	}
	schema := ms(d.parse) / float64(d.sampleLines) * float64(o.goodRows+o.badRows)
	pax := ms(d.build+replicas-indexes) * blocks
	index := ms(indexes) * blocks
	hdfs := ms(d.writeBlock) * blocks
	whole := max(opMS, schema+pax+index+hdfs)
	m["share.schema"] = schema / whole
	m["share.pax"] = pax / whole
	m["share.index"] = index / whole
	m["share.hdfs"] = hdfs / whole
	m["share.core"] = 1 - (schema+pax+index+hdfs)/whole
}
