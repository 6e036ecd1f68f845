package core

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"weak"

	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/pax"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/workload"
)

// drainReaders empties the record-reader pool and returns what it held.
func drainReaders() []*recordReader {
	var held []*recordReader
	for r, _ := readers.Get().(*recordReader); r != nil; r, _ = readers.Get().(*recordReader) {
		held = append(held, r)
	}
	return held
}

// poolJob is one job of the pooled-reader tests: a file and a query.
type poolJob struct {
	file string
	q    *query.Query // nil: every row, every attribute
}

// run runs the job through cache; a nil cache runs it uncached.
func (j poolJob) run(cluster *hdfs.Cluster, par int, cache mapred.ResultCache) (*mapred.JobResult, error) {
	return (&mapred.Engine{Cluster: cluster, Parallelism: par, Cache: cache}).Run(&mapred.Job{
		Name: "pool " + j.file, File: j.file,
		Input: &InputFormat{Cluster: cluster, Query: j.q},
	})
}

// twoSchemaJobs uploads UserVisits as /uv and Synthetic as /syn and
// returns jobs over both: queries with different filters and projections,
// index and full scans.
func twoSchemaJobs(t *testing.T) (*hdfs.Cluster, []poolJob) {
	t.Helper()
	cluster, _, _, _ := uvFixture(t, 6000, workload.UserVisitsOptions{NeedleEvery: 1500, BadEvery: 700})
	syn := &Client{Cluster: cluster, Config: LayoutConfig{
		Schema: workload.SyntheticSchema(), SortColumns: []int{0, -1, 5}, BlockSize: 64 << 10,
	}}
	if _, err := syn.Upload("/syn", workload.GenerateSynthetic(4000, 7)); err != nil {
		t.Fatal(err)
	}
	var jobs []poolJob
	for _, bq := range workload.BobQueries() {
		jobs = append(jobs, poolJob{"/uv", bq.Query})
	}
	for _, sq := range workload.SynQueries()[:4] {
		jobs = append(jobs, poolJob{"/syn", sq.Query})
	}
	wide, err := query.ParseAnnotation(workload.UserVisitsSchema(), `@HailQuery(filter="@9 between(1,500)")`)
	if err != nil {
		t.Fatal(err)
	}
	jobs = append(jobs, poolJob{"/uv", wide}, poolJob{"/syn", nil}, poolJob{"/uv", nil})
	return cluster, jobs
}

// TestPooledReadersKeepJobsApart: readers pass from job to job through the
// pool, so a reader laid out for one file's schema and one query meets
// the next job's. Jobs over two files with different schemas — UserVisits
// with strings, Synthetic with nineteen ints — run interleaved one after
// another and then all at once, at Parallelism 1 and 4; every job's output
// must be byte-identical to the same job run alone from an empty pool.
// Under -race this is also the proof that no reader is shared between two
// tasks. Then one reader serves block after block of unlike shapes
// (oneReaderAcrossShapes).
func TestPooledReadersKeepJobsApart(t *testing.T) {
	cluster, jobs := twoSchemaJobs(t)
	t.Run("one reader across shapes", func(t *testing.T) { oneReaderAcrossShapes(t, cluster) })
	alone := make([][]mapred.KV, len(jobs))
	for i, j := range jobs {
		drainReaders()
		res, err := j.run(cluster, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Output) == 0 {
			t.Fatalf("job %d (%s %v) returns nothing", i, j.file, j.q)
		}
		alone[i] = res.Output
	}
	check := func(i int, res *mapred.JobResult, err error, how string) {
		if err != nil {
			t.Errorf("job %d %s: %v", i, how, err)
			return
		}
		if !slices.Equal(res.Output, alone[i]) {
			t.Errorf("job %d (%s %v) %s: %d records differ from its %d run alone", i, jobs[i].file, jobs[i].q, how, len(res.Output), len(alone[i]))
		}
	}
	for _, par := range []int{1, 4} {
		for round := 0; round < 2; round++ {
			for i, j := range jobs {
				res, err := j.run(cluster, par, nil)
				check(i, res, err, fmt.Sprintf("interleaved at parallelism %d", par))
			}
		}
		var wg sync.WaitGroup
		for i, j := range jobs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := j.run(cluster, par, nil)
				check(i, res, err, fmt.Sprintf("concurrent at parallelism %d", par))
			}()
		}
		wg.Wait()
	}
}

// oneReaderAcrossShapes hands one pooled reader, alone in the pool, block
// after block whose shapes differ from the block before: UserVisits' nine
// columns and Synthetic's nineteen, index scans and full scans, blocks
// with bad records and blocks without. Everything a reader re-opens in
// place — the PAX reader's directory, the cursors, the index, the lay-out,
// the bad records — meets a block unlike the last. Each block's answer,
// stats included, must equal a fresh reader's, and the reader must hold no
// bad record and no open cursor once it is back in the pool.
func oneReaderAcrossShapes(t *testing.T, cluster *hdfs.Cluster) {
	if raceBuild() {
		t.Skip("the race runtime drops pooled readers at random")
	}
	nn := cluster.NameNode()
	uv, err := nn.FileBlocks("/uv")
	if err != nil {
		t.Fatal(err)
	}
	syn, err := nn.FileBlocks("/syn")
	if err != nil {
		t.Fatal(err)
	}
	numBad := func(b hdfs.BlockID) int {
		data, _, err := cluster.ReadBlockAny(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		paxData, _, err := ParseFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		r, err := pax.NewReader(paxData)
		if err != nil {
			t.Fatal(err)
		}
		return r.NumBad()
	}
	dirty, clean := hdfs.BlockID(-1), hdfs.BlockID(-1)
	for _, b := range uv {
		if numBad(b) > 0 && dirty < 0 {
			dirty = b
		} else if numBad(b) == 0 && clean < 0 {
			clean = b
		}
	}
	if dirty < 0 || clean < 0 || numBad(syn[1]) != 0 {
		t.Fatalf("want /uv blocks with and without bad records and a clean /syn block; have %d, %d", dirty, clean)
	}
	bob, synQ := workload.BobQueries(), workload.SynQueries()
	wide, err := query.ParseAnnotation(workload.UserVisitsSchema(), `@HailQuery(filter="@9 between(1,500)")`)
	if err != nil {
		t.Fatal(err)
	}
	ips, err := query.ParseAnnotation(workload.UserVisitsSchema(), `@HailQuery(filter="@1 between(100,120)", projection={@8,@1})`)
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		file  string
		q     *query.Query
		block hdfs.BlockID
		index bool
	}{
		{"/uv", bob[0].Query, dirty, true},    // nine columns, an index scan, bad records
		{"/syn", nil, syn[1], false},          // nineteen columns, a full scan, none
		{"/uv", wide, dirty, false},           // nine, full, bad records
		{"/uv", ips, clean, true},             // a string index, no bad records
		{"/syn", synQ[1].Query, syn[1], true}, // an int index on nineteen columns
		{"/uv", nil, dirty, false},            // every column, full, bad records
		{"/uv", bob[3].Query, clean, true},    // a float index, none
	}
	held := new(recordReader)
	for i, st := range steps {
		in := &InputFormat{Cluster: cluster, Query: st.q}
		splits, _, err := in.Splits(st.file, nil)
		if err != nil {
			t.Fatal(err)
		}
		var split mapred.Split
		for _, s := range splits {
			if slices.Contains(s.Blocks, st.block) {
				split = s
				split.Blocks = []hdfs.BlockID{st.block}
			}
		}
		read := func(want *recordReader) ([]string, mapred.TaskStats) {
			drainReaders()
			if want != nil {
				readers.Put(want)
			}
			rr, err := in.Open(split, split.Locations[0])
			if err != nil {
				t.Fatal(err)
			}
			if r := rr.(*recordReader); (r == held) != (want != nil) {
				t.Fatalf("step %d: the pool handed out another reader", i)
			}
			var out []string
			stats, err := rr.ReadBatches(func(b *mapred.Batch) {
				workload.PassthroughMapBatch(b, mapred.Emit(func(k, _ string) { out = append(out, k) }))
			})
			if err != nil {
				t.Fatalf("step %d: %v", i, err)
			}
			return out, stats
		}
		fresh, freshStats := read(nil)
		got, gotStats := read(held)
		if !slices.Equal(got, fresh) || gotStats != freshStats {
			t.Errorf("step %d (%s block %d, %v): the reused reader returns %d records, %+v; a fresh one %d, %+v",
				i, st.file, st.block, st.q, len(got), gotStats, len(fresh), freshStats)
		}
		if len(fresh) == 0 || (freshStats.IndexScans == 1) != st.index {
			t.Fatalf("step %d: %d records, %d index scans; the step wants some and index scan %v", i, len(fresh), freshStats.IndexScans, st.index)
		}
		bs := &held.scan
		for _, b := range bs.bad[:cap(bs.bad)] {
			if b != "" {
				t.Fatalf("step %d: the pooled reader holds bad record %q", i, b)
			}
		}
		for col := range bs.cursors {
			if bs.cursors[col].Remaining() != 0 {
				t.Fatalf("step %d: the pooled reader's cursor on column %d has %d rows left", i, col, bs.cursors[col].Remaining())
			}
		}
	}
}

// TestRecycledChunksKeepJobsApart: the engine emits each computed block
// into a pooled buffer and takes the buffers back when the job returns, so
// a buffer one job filled is the next job's to overwrite. The jobs of
// TestPooledReadersKeepJobsApart run all at once, at Parallelism 1 and 4,
// uncached, into a cold cache and out of the warm one, with one replica of
// a /uv block corrupt so that every read of it fails over to another
// replica. Every job's output must be byte-identical to its serial
// uncached run: a buffer recycled while a chunk of it was still to be
// assembled, cached or returned would show here, and under -race as a
// race.
func TestRecycledChunksKeepJobsApart(t *testing.T) {
	cluster, jobs := twoSchemaJobs(t)
	blocks, err := cluster.NameNode().FileBlocks("/uv")
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[len(blocks)/2]
	victim, _ := cluster.DataNode(cluster.NameNode().GetHosts(b)[0])
	if err := victim.CorruptByte(b, 3); err != nil {
		t.Fatal(err)
	}
	ref := make([][]mapred.KV, len(jobs))
	failovers := 0
	for i, j := range jobs {
		res, err := j.run(cluster, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		ref[i], failovers = res.Output, failovers+res.TotalStats().ChecksumFailovers
	}
	if failovers == 0 {
		t.Fatalf("a corrupt replica of block %d forced no failover", b)
	}
	for _, par := range []int{1, 4} {
		var warm *qcache.Cache
		for _, mode := range []string{"uncached", "cold-cached", "hot-cached"} {
			var cache mapred.ResultCache
			switch mode {
			case "cold-cached":
				warm = qcache.New(0)
				cache = warm
			case "hot-cached":
				cache = warm
			}
			var wg sync.WaitGroup
			for i, j := range jobs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := j.run(cluster, par, cache)
					if err != nil {
						t.Errorf("job %d %s at parallelism %d: %v", i, mode, par, err)
						return
					}
					if !slices.Equal(res.Output, ref[i]) {
						t.Errorf("job %d (%s %v) %s at parallelism %d: %d records differ from its %d serial uncached ones", i, j.file, j.q, mode, par, len(res.Output), len(ref[i]))
					}
					if st := res.TotalStats(); mode == "hot-cached" && st.BlocksFromCache != st.Blocks {
						t.Errorf("job %d hot at parallelism %d: %d of %d blocks from the cache", i, par, st.BlocksFromCache, st.Blocks)
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestPooledReaderRetainsNoClusterOrReplica: a reader back in the pool
// holds scratch, not the job. After Run returns, the readers the pool
// holds — and one opened and read directly, held past its ReadBatches —
// must not keep the cluster or any replica's bytes reachable. The style
// is TestRunnerDoesNotRetainClusters': a finalizer on the cluster, and
// weak pointers into every stored replica.
func TestPooledReaderRetainsNoClusterOrReplica(t *testing.T) {
	drainReaders()
	var held []*recordReader
	var replicas []weak.Pointer[byte]
	freed := make(chan struct{})
	func() {
		cluster, _, _, _ := uvFixture(t, 3000, workload.UserVisitsOptions{NeedleEvery: 1000, BadEvery: 400})
		in := &InputFormat{Cluster: cluster, Query: workload.BobQueries()[0].Query}
		if _, err := (&mapred.Engine{Cluster: cluster, Parallelism: 1}).Run(&mapred.Job{
			Name: "retain", File: "/uv", Input: in,
			MapBatch: workload.PassthroughMapBatch,
		}); err != nil {
			t.Fatal(err)
		}
		held = drainReaders()
		splits, _, err := in.Splits("/uv", nil)
		if err != nil {
			t.Fatal(err)
		}
		rr, err := in.Open(splits[0], splits[0].Locations[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := rr.ReadBatches(func(*mapred.Batch) {}); err != nil {
			t.Fatal(err)
		}
		held = append(held, rr.(*recordReader))
		blocks, err := cluster.NameNode().FileBlocks("/uv")
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range blocks {
			for _, h := range cluster.NameNode().GetHosts(b) {
				v, err := cluster.OpenBlockFrom(h, b)
				if err != nil {
					t.Fatal(err)
				}
				data, err := v.Range(0, v.Len())
				if err != nil {
					t.Fatal(err)
				}
				replicas = append(replicas, weak.Make(&data[0]))
			}
		}
		runtime.SetFinalizer(cluster, func(*hdfs.Cluster) { close(freed) })
	}()
	gone := false
	for i := 0; i < 50 && !gone; i++ {
		runtime.GC()
		select {
		case <-freed:
			gone = true
		default:
		}
	}
	if !gone {
		t.Fatalf("%d pooled readers keep the cluster reachable", len(held))
	}
	// The finalized cluster kept what it reaches alive for one more cycle.
	runtime.GC()
	kept := 0
	for _, w := range replicas {
		if w.Value() != nil {
			kept++
		}
	}
	if kept > 0 {
		t.Errorf("%d pooled readers keep %d of %d replicas' bytes reachable", len(held), kept, len(replicas))
	}
	runtime.KeepAlive(held)
}

// TestIndexScanAllocatesPerBlockNotPerOpen is the allocation gate of the
// index scan: a warm Bob-Q1 job over the ledger's 200k-line fixture
// allocates at most indexScanAllocsPerBlock objects per block it reads,
// job overhead included. A pooled reader brings its lay-out, vectors and
// batch scratch, and re-opens its PAX reader, cursors and index in place;
// every block of the file shares one decoded schema, and the splits are
// carved from the job's arrays. What is left per block is its own: the
// batches' text, one bad-record string, the namenode's host list, and the
// job's share (≈5.4). Building the PAX reader, the cursors and the index
// per block and a pin map per split measured ≈21; a reader built per
// Open, a schema parsed per header, ≈60. The race runtime drops pooled
// readers at random, so the gate does not run there; it needs the full
// fixture, so not under -short either.
func TestIndexScanAllocatesPerBlockNotPerOpen(t *testing.T) {
	if raceBuild() {
		t.Skip("the race runtime drops pooled readers at random")
	}
	if testing.Short() {
		t.Skip("needs the 200k-line fixture")
	}
	const indexScanAllocsPerBlock = 8
	cluster := getBobFix(t)
	q := workload.BobQueries()[0].Query
	var blocks int
	run := func() {
		res, err := (&mapred.Engine{Cluster: cluster, Parallelism: 1}).Run(&mapred.Job{
			Name: "Bob-Q1", File: "/uv",
			Input:    &InputFormat{Cluster: cluster, Query: q},
			MapBatch: workload.PassthroughMapBatch,
		})
		if err != nil {
			t.Fatal(err)
		}
		blocks = res.TotalStats().Blocks
	}
	run()
	perBlock := testing.AllocsPerRun(20, run) / float64(blocks)
	t.Logf("%.1f allocations per block over %d blocks", perBlock, blocks)
	if perBlock > indexScanAllocsPerBlock {
		t.Errorf("a warm index scan allocates %.1f objects per block, want at most %d", perBlock, indexScanAllocsPerBlock)
	}
}
