package core

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// rowOracleInput is the reference the batch pipeline is held to: the
// HailInputFormat split phase with a row-at-a-time record reader. It is
// the reader production ran before the vectorized pipeline replaced it,
// kept here — and only here — because the two are written independently
// below the shared per-replica prologue (openView: frame, PAX header,
// index lookup): boxed pax.Reader.ReadColumnRange + Predicate.Matches per
// row, batched through schema.Vector.Append, on this side; column cursors
// + selection-vector kernels on the other. The oracle opens no cursors and
// knows no failover; it reads the replica the pipeline would try first.
type rowOracleInput struct{ f *InputFormat }

func (o rowOracleInput) Splits(file string, cached func(hdfs.BlockID) (hdfs.NodeID, bool)) ([]mapred.Split, mapred.TaskStats, error) {
	return o.f.Splits(file, cached)
}

func (o rowOracleInput) Open(split mapred.Split, node hdfs.NodeID) (mapred.BatchReader, error) {
	return &rowOracleReader{r: recordReader{cluster: o.f.Cluster, query: o.f.Query, split: split, node: node}}, nil
}

// rowOracleReader holds its recordReader in a named field, not embedded,
// so none of the pipeline's methods is promoted to it: its ReadBatches is
// its own.
type rowOracleReader struct{ r recordReader }

func (o *rowOracleReader) ReadBatches(fn func(*mapred.Batch)) (mapred.TaskStats, error) {
	var stats mapred.TaskStats
	for i, b := range o.r.split.Blocks {
		if err := o.readBlockRows(b, o.r.split.Pin(i), fn, &stats); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// readBlockRows is the per-block row execution: the candidate range row
// by row into one batch, then the bad records flagged in another.
func (o *rowOracleReader) readBlockRows(b hdfs.BlockID, node hdfs.NodeID, fn func(*mapred.Batch), stats *mapred.TaskStats) error {
	if node == hdfs.NoReplica {
		node = o.r.cluster.ReplicaOrder(b, o.r.node)[0]
	}
	var err error
	if o.r.view, err = o.r.cluster.OpenBlockFrom(node, b); err != nil {
		return err
	}
	bs, err := o.r.openView(b, node, stats)
	if err != nil {
		return err
	}
	if bs.toRow > bs.fromRow {
		if err := emitRange(bs, fn, stats); err != nil {
			return err
		}
	}
	bad, err := bs.reader.ReadAllBad(nil)
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		stats.RecordsDelivered += int64(len(bad))
		fn(&mapred.Batch{Bad: bad})
	}
	io := bs.reader.Stats()
	stats.BytesRead, stats.Seeks = stats.BytesRead+io.BytesRead, stats.Seeks+io.Seeks
	return nil
}

// emitRange reads the filter and projection columns over the candidate row
// range — each as one contiguous boxed range, ascending column order —
// post-filters row by row, and appends each qualifying row's projected
// values to vectors: one dense batch for the range.
func emitRange(bs *blockScan, fn func(*mapred.Batch), stats *mapred.TaskStats) error {
	q, proj := bs.q, bs.proj
	cols, _ := neededColumns(q, proj, nil, nil)
	needed := make(map[int][]schema.Value, len(cols))
	for _, col := range cols {
		vals, err := bs.reader.ReadColumnRange(col, bs.fromRow, bs.toRow)
		if err != nil {
			return err
		}
		needed[col] = vals
	}

	n := bs.toRow - bs.fromRow
	stats.RecordsScanned += int64(n)
	batch := &mapred.Batch{Cols: make([]*schema.Vector, len(proj))}
	for j, c := range proj {
		batch.Cols[j] = schema.NewVector(bs.reader.Schema().Field(c).Type)
	}
rows:
	for i := 0; i < n; i++ {
		for _, p := range q.Filter {
			if !p.Matches(needed[p.Column][i]) {
				continue rows
			}
		}
		for j, c := range proj {
			batch.Cols[j].Append(needed[c][i])
		}
		batch.Rows++
		stats.RecordsDelivered++
		stats.AttrsDelivered += int64(len(proj))
	}
	if batch.Rows > 0 {
		fn(batch)
	}
	return nil
}

// runPath runs one query over the file — through the production batch
// pipeline, or through the row oracle — single-threaded so the output
// order is deterministic.
func runPath(t *testing.T, cluster *hdfs.Cluster, file string, q *query.Query, rowOracle bool) *mapred.JobResult {
	t.Helper()
	f := &InputFormat{Cluster: cluster, Query: q, Splitting: true}
	var input mapred.InputFormat = f
	if rowOracle {
		input = rowOracleInput{f}
	}
	e := &mapred.Engine{Cluster: cluster, Parallelism: 1}
	res, err := e.Run(&mapred.Job{
		Name:     "vector-ab",
		File:     file,
		Input:    input,
		MapBatch: workload.PassthroughMapBatch,
		MapSig:   workload.PassthroughMapSig,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// normStats zeroes the counters only the batch pipeline reports, leaving
// everything both paths must agree on.
func normStats(s mapred.TaskStats) mapred.TaskStats {
	s.RowsScanned, s.RowsSelected, s.BatchesEmitted = 0, 0, 0
	return s
}

// TestBatchPathMatchesRowPath is the scan pipeline's equivalence gate:
// for every Bob query plus scan/edge cases (no filter, string and integer
// ranges on unindexed attributes, half-bounded predicate, empty result),
// the vectorized pipeline and the row oracle must produce byte-identical
// output in identical order, and identical TaskStats up to the batch-only
// counters — same bytes, same seeks, same partitions, same records.
func TestBatchPathMatchesRowPath(t *testing.T) {
	cluster, _, _, _ := uvFixture(t, 6_000, workload.UserVisitsOptions{NeedleEvery: 500, BadEvery: 750})
	s := workload.UserVisitsSchema()

	queries := []*query.Query{
		{}, // full scan, all attributes
		{Projection: []int{workload.UVSearchWord}},
		{ // string range on a non-indexed attribute
			Filter:     []query.Predicate{query.Between(workload.UVCountryCode, schema.StringVal("AR"), schema.StringVal("MX"))},
			Projection: []int{workload.UVSourceIP, workload.UVCountryCode},
		},
		{ // integer range on a non-indexed attribute: every row through the kernels
			Filter:     []query.Predicate{query.Between(workload.UVDuration, schema.IntVal(100), schema.IntVal(199))},
			Projection: []int{workload.UVSourceIP},
		},
		{ // half-bounded predicate
			Filter:     []query.Predicate{query.AtLeast(workload.UVAdRevenue, schema.FloatVal(900))},
			Projection: []int{workload.UVAdRevenue},
		},
		{ // empty result: index scan narrows to nothing
			Filter:     []query.Predicate{query.Eq(workload.UVVisitDate, schema.DateVal(schema.MustDate("2050-01-01")))},
			Projection: []int{workload.UVSourceIP},
		},
	}
	for _, bq := range workload.BobQueries() {
		queries = append(queries, bq.Query)
	}

	for _, q := range queries {
		if err := q.Validate(s); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		row := runPath(t, cluster, "/uv", q, true)
		batch := runPath(t, cluster, "/uv", q, false)
		if len(row.Output) != len(batch.Output) {
			t.Fatalf("%s: row oracle emitted %d records, batch path %d", q, len(row.Output), len(batch.Output))
		}
		for i := range row.Output {
			if row.Output[i] != batch.Output[i] {
				t.Fatalf("%s: output %d differs: %q vs %q", q, i, row.Output[i], batch.Output[i])
			}
		}
		rs, bs := row.TotalStats(), batch.TotalStats()
		if normStats(rs) != normStats(bs) {
			t.Errorf("%s: stats diverge:\nrow:   %+v\nbatch: %+v", q, normStats(rs), normStats(bs))
		}
		if rs.RowsScanned != 0 || rs.BatchesEmitted != 0 {
			t.Errorf("%s: row oracle reported batch counters: %+v", q, rs)
		}
		if bs.RowsScanned != bs.RecordsScanned {
			t.Errorf("%s: RowsScanned = %d, RecordsScanned = %d", q, bs.RowsScanned, bs.RecordsScanned)
		}
		if bs.RowsSelected > 0 && bs.BatchesEmitted == 0 {
			t.Errorf("%s: selected %d rows but emitted no batches", q, bs.RowsSelected)
		}
	}
}

// TestScanAllocationsNotPerRow pins down the scratch-buffer reuse: on an
// all-fixed-width schema, a whole-split read must not allocate per row
// (reused vectors and selection). The bound is generous for
// per-block/per-batch setup but orders of magnitude below one allocation
// per row.
func TestScanAllocationsNotPerRow(t *testing.T) {
	const nRows = 16_000
	cluster, err := hdfs.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{
		Cluster: cluster,
		Config: LayoutConfig{
			Schema:      workload.SyntheticSchema(),
			SortColumns: []int{0},
			BlockSize:   1 << 20,
		},
	}
	if _, err := client.Upload("/synalloc", workload.GenerateSynthetic(nRows, 7)); err != nil {
		t.Fatal(err)
	}
	q, err := query.ParseAnnotation(workload.SyntheticSchema(),
		`@HailQuery(filter="@2 between(0,5000)", projection={@3,@4,@5})`)
	if err != nil {
		t.Fatal(err)
	}
	f := &InputFormat{Cluster: cluster, Query: q, Splitting: true}
	splits, _, err := f.Splits("/synalloc", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rows int64
	allocs := testing.AllocsPerRun(5, func() {
		rows = 0
		for _, split := range splits {
			rr, err := f.Open(split, split.Locations[0])
			if err != nil {
				t.Fatal(err)
			}
			st, err := rr.ReadBatches(func(*mapred.Batch) {})
			if err != nil {
				t.Fatal(err)
			}
			rows += st.RecordsScanned
		}
	})
	if rows != nRows {
		t.Fatalf("scanned %d rows, want %d", rows, nRows)
	}
	// ~half the rows qualify, so one allocation per delivered row
	// would show up as thousands.
	if allocs > 600 {
		t.Errorf("%v allocations for a %d-row scan — per-row allocation regressed", allocs, nRows)
	}
}

// TestPassthroughScanAllocationsNotPerRow is the same gate on the path
// users run, end to end: a full scan of all nine UserVisits attributes —
// five of them strings — through Engine.Run with the passthrough map in
// batch form. String vectors alias the replica, rows are formatted once
// per batch and every key is a substring of that text, so what is left to
// allocate is per block and per batch: at most one allocation per fifty
// delivered rows, where boxing rows through Batch.Each costs thirteen per
// row.
func TestPassthroughScanAllocationsNotPerRow(t *testing.T) {
	const nRows = 30_000
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := bobLayout()
	cfg.BlockSize = 1 << 20
	if _, err := (&Client{Cluster: cluster, Config: cfg}).Upload("/uv", workload.GenerateUserVisits(nRows, 3, workload.UserVisitsOptions{})); err != nil {
		t.Fatal(err)
	}
	e := &mapred.Engine{Cluster: cluster, Parallelism: 1}
	job := &mapred.Job{
		Name: "alloc-gate", File: "/uv",
		Input:    &InputFormat{Cluster: cluster, Query: &query.Query{}},
		MapBatch: workload.PassthroughMapBatch,
	}
	allocs := testing.AllocsPerRun(3, func() {
		res, err := e.Run(job)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Output) != nRows {
			t.Fatalf("delivered %d rows, want %d", len(res.Output), nRows)
		}
	})
	t.Logf("%v allocations to deliver %d rows", allocs, nRows)
	if allocs > nRows/50 {
		t.Errorf("%v allocations to deliver %d rows — more than one per fifty", allocs, nRows)
	}
}

// TestFullScanSizesEachBlockOnce: a warm job allocates its output's KV
// headers once, in the assemble's exact-size copy. Each block emits into a
// buffer the engine recycles from job to job, so a block's chunk is not
// allocated at all once the pool holds buffers of its size. The map emits
// one empty KV per record, so the KV headers are all there is to allocate:
// the assemble copy is 1 × the output's headers, where a chunk allocated
// per block as well costs 2 ×, and doubling each chunk up from 64 KVs ≈
// 5 ×. A map that emits two KVs per record outgrows the buffers and doubles
// them, and still emits every record's two KVs in order. The race runtime
// drops pooled items at random, so the bound does not hold there.
func TestFullScanSizesEachBlockOnce(t *testing.T) {
	if raceBuild() {
		t.Skip("the race runtime drops pooled buffers at random")
	}
	const nLines = 50_000
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := (&Client{Cluster: cluster, Config: bobLayout()}).Upload("/uv", workload.GenerateUserVisits(nLines, 5, workload.UserVisitsOptions{BadEvery: 997}))
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.BlockIDs) < 3 {
		t.Fatalf("%d blocks, want several", len(sum.BlockIDs))
	}
	e := &mapred.Engine{Cluster: cluster, Parallelism: 1}
	in := &InputFormat{Cluster: cluster, Query: &query.Query{Projection: []int{workload.UVDuration}}}

	empty := &mapred.Job{
		Name: "one-empty-kv", File: "/uv", Input: in,
		MapBatch: func(b *mapred.Batch, out mapred.Emitter) {
			for range b.NumRows() {
				out.Emit("", "")
			}
		},
	}
	if res, err := e.Run(empty); err != nil || len(res.Output) != nLines {
		t.Fatalf("one KV per record: %v, want %d KVs", err, nLines)
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := e.Run(empty); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	headers := float64(nLines) * float64(unsafe.Sizeof(mapred.KV{}))
	const perBlock = 32 << 10 // the reader's own: cursors, vectors, views
	t.Logf("%.0f B/run for %.0f B of KV headers in %d blocks (%.2f ×)", perRun, headers, len(sum.BlockIDs), perRun/headers)
	if limit := 1.25*headers + perBlock*float64(len(sum.BlockIDs)); perRun > limit {
		t.Errorf("a full scan allocates %.0f B/run, more than 1.25 × its %.0f B of KV headers plus %d B a block", perRun, headers, perBlock)
	}

	once, err := e.Run(&mapred.Job{
		Name: "one-kv", File: "/uv", Input: in,
		MapBatch: func(b *mapred.Batch, out mapred.Emitter) {
			for _, r := range recordText(b) {
				out.Emit(r, "")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	twice, err := e.Run(&mapred.Job{
		Name: "two-kvs", File: "/uv", Input: in,
		MapBatch: func(b *mapred.Batch, out mapred.Emitter) {
			for _, r := range recordText(b) {
				out.Emit(r, "1")
				out.Emit(r, "2")
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []mapred.KV
	for _, kv := range once.Output {
		want = append(want, mapred.KV{Key: kv.Key, Value: "1"}, mapred.KV{Key: kv.Key, Value: "2"})
	}
	if len(once.Output) != nLines || !slices.Equal(twice.Output, want) {
		t.Errorf("two KVs per record: %d KVs, want each of the %d records' twice, in order", len(twice.Output), len(once.Output))
	}
}

// TestRowPathIsCacheKeyed pins what is left of the cache-key policy now
// that there is one scan path and no knob selecting it: the input
// format's signature is exactly the query's own, so every cache key
// admitted before the row path was retired stays valid.
func TestRowPathIsCacheKeyed(t *testing.T) {
	q := &query.Query{
		Filter:     []query.Predicate{query.AtLeast(workload.UVAdRevenue, schema.FloatVal(100))},
		Projection: []int{workload.UVSourceIP},
	}
	if sig, ok := (&InputFormat{Query: q}).QuerySignature(); !ok || sig != q.Signature() {
		t.Fatalf("QuerySignature() = %q, %v; want the query's own signature %q", sig, ok, q.Signature())
	}
}
