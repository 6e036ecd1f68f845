package core

import (
	"math"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/hadoop"
	"repro/internal/hdfs"
	"repro/internal/index"
	"repro/internal/mapred"
	"repro/internal/pax"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/trojan"
	"repro/internal/workload"
)

// uvFixture uploads UserVisits data with the paper's Bob configuration:
// replica indexes on visitDate, sourceIP and adRevenue (§6.4.1).
func uvFixture(t *testing.T, nLines int, opts workload.UserVisitsOptions) (*hdfs.Cluster, *Client, UploadSummary, []string) {
	t.Helper()
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{
		Cluster: cluster,
		Config: LayoutConfig{
			Schema:      workload.UserVisitsSchema(),
			SortColumns: []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue},
			BlockSize:   64 << 10,
		},
	}
	lines := workload.GenerateUserVisits(nLines, 42, opts)
	sum, err := client.Upload("/uv", lines)
	if err != nil {
		t.Fatal(err)
	}
	return cluster, client, sum, lines
}

func TestLayoutConfigValidate(t *testing.T) {
	s := workload.UserVisitsSchema()
	good := LayoutConfig{Schema: s, SortColumns: []int{0, -1, 2}, BlockSize: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, bad := range []LayoutConfig{
		{SortColumns: []int{0}, BlockSize: 1},
		{Schema: s, BlockSize: 1},
		{Schema: s, SortColumns: []int{0}, BlockSize: 0},
		{Schema: s, SortColumns: []int{99}, BlockSize: 1},
		{Schema: s, SortColumns: []int{-2}, BlockSize: 1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid config accepted: %+v", bad)
		}
	}
	if got := good.Replication(); got != 3 {
		t.Errorf("Replication = %d", got)
	}
}

func TestUploadCreatesDivergentIndexedReplicas(t *testing.T) {
	cluster, _, sum, _ := uvFixture(t, 4000, workload.UserVisitsOptions{})
	if sum.Blocks == 0 || sum.Rows != 4000 {
		t.Fatalf("summary: %+v", sum)
	}
	nn := cluster.NameNode()
	for _, b := range sum.BlockIDs {
		hosts := nn.GetHosts(b)
		if len(hosts) != 3 {
			t.Fatalf("block %d: %d replicas", b, len(hosts))
		}
		seenCols := map[int]bool{}
		for pos, h := range hosts {
			info, ok := nn.ReplicaInfo(b, h)
			if !ok {
				t.Fatalf("no Dir_rep entry for block %d node %d", b, h)
			}
			wantCol := []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue}[pos]
			if info.SortColumn != wantCol || !info.HasIndex || info.IndexSize == 0 {
				t.Errorf("block %d pos %d: %+v", b, pos, info)
			}
			seenCols[info.SortColumn] = true

			// The stored replica really is clustered on its column and
			// carries a parseable index on it.
			data, err := cluster.ReadBlockFrom(h, b)
			if err != nil {
				t.Fatal(err)
			}
			paxData, ixData, err := ParseFrame(data)
			if err != nil {
				t.Fatal(err)
			}
			r, err := pax.NewReader(paxData)
			if err != nil {
				t.Fatal(err)
			}
			if r.SortColumn() != wantCol {
				t.Errorf("block %d pos %d clustered on %d, want %d", b, pos, r.SortColumn(), wantCol)
			}
			ix, err := index.Unmarshal(ixData)
			if err != nil {
				t.Fatalf("block %d pos %d index: %v", b, pos, err)
			}
			if ix.Column() != wantCol || ix.NumRows() != r.NumRows() {
				t.Errorf("block %d pos %d index meta: col=%d rows=%d", b, pos, ix.Column(), ix.NumRows())
			}
		}
		if len(seenCols) != 3 {
			t.Errorf("block %d has %d distinct sort orders, want 3", b, len(seenCols))
		}
		// getHostsWithIndex must find exactly one replica per indexed column.
		for _, col := range []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue} {
			if hosts := nn.GetHostsWithIndex(b, col); len(hosts) != 1 {
				t.Errorf("block %d col %d: %d indexed hosts", b, col, len(hosts))
			}
		}
	}
}

// TestReplicasReconstructSameLogicalBlock is the paper's failover property
// (§2.3(2)): all data stays on the same logical block, only the physical
// representation differs, so every replica recovers the same row set.
func TestReplicasReconstructSameLogicalBlock(t *testing.T) {
	cluster, _, sum, _ := uvFixture(t, 3000, workload.UserVisitsOptions{BadEvery: 100})
	for _, b := range sum.BlockIDs {
		hosts := cluster.NameNode().GetHosts(b)
		var ref map[string]int
		var refBad []string
		for i, h := range hosts {
			data, err := cluster.ReadBlockFrom(h, b)
			if err != nil {
				t.Fatal(err)
			}
			paxData, _, err := ParseFrame(data)
			if err != nil {
				t.Fatal(err)
			}
			blk, err := pax.Unmarshal(paxData)
			if err != nil {
				t.Fatal(err)
			}
			rows := make(map[string]int)
			for r := 0; r < blk.NumRows(); r++ {
				rows[schema.RowKey(blk.Row(r))]++
			}
			var bad []string
			for i := 0; i < blk.NumBad(); i++ {
				bad = append(bad, blk.BadRecord(i))
			}
			sort.Strings(bad)
			if i == 0 {
				ref, refBad = rows, bad
				continue
			}
			if len(rows) != len(ref) {
				t.Fatalf("block %d replica %d has %d distinct rows, ref %d", b, i, len(rows), len(ref))
			}
			for k, v := range ref {
				if rows[k] != v {
					t.Fatalf("block %d replica %d: row multiset differs", b, i)
				}
			}
			if strings.Join(bad, "\n") != strings.Join(refBad, "\n") {
				t.Fatalf("block %d replica %d: bad records differ", b, i)
			}
		}
	}
}

func runHailQuery(t *testing.T, cluster *hdfs.Cluster, file string, q *query.Query, splitting bool) *mapred.JobResult {
	t.Helper()
	e := &mapred.Engine{Cluster: cluster}
	res, err := e.Run(&mapred.Job{
		Name:     "hail-query",
		File:     file,
		Input:    &InputFormat{Cluster: cluster, Query: q, Splitting: splitting},
		MapBatch: workload.PassthroughMapBatch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func outputMultiset(res *mapred.JobResult) map[string]int {
	m := make(map[string]int)
	for _, kv := range res.Output {
		m[kv.Key]++
	}
	return m
}

func TestIndexScanMatchesBruteForce(t *testing.T) {
	cluster, _, _, lines := uvFixture(t, 6000, workload.UserVisitsOptions{NeedleEvery: 500})
	for _, bq := range workload.BobQueries() {
		res := runHailQuery(t, cluster, "/uv", bq.Query, false)
		stats := res.TotalStats()
		if stats.IndexScans == 0 {
			t.Errorf("%s: no index scans (filter should hit an indexed attribute)", bq.Name)
		}
		if stats.FullScans != 0 {
			t.Errorf("%s: %d full scans", bq.Name, stats.FullScans)
		}
		// Brute force over the raw text.
		want := make(map[string]int)
		parser := schema.NewParser(workload.UserVisitsSchema())
		for _, l := range lines {
			row, err := parser.ParseLine(l)
			if err != nil {
				continue
			}
			if !bq.Query.MatchesRow(row) {
				continue
			}
			proj := make(schema.Row, len(bq.Query.Projection))
			for j, c := range bq.Query.Projection {
				proj[j] = row[c]
			}
			want[proj.Line(',')]++
		}
		got := outputMultiset(res)
		if len(got) != len(want) {
			t.Fatalf("%s: %d distinct results, want %d", bq.Name, len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("%s: result %q count %d, want %d", bq.Name, k, got[k], v)
			}
		}
	}
}

func TestPAXProjectionReducesBytes(t *testing.T) {
	// HAIL's PAX layout reads only the needed columns: a 1-attribute
	// projection must read far fewer bytes than a 9-attribute one.
	cluster, _, _, _ := uvFixture(t, 6000, workload.UserVisitsOptions{})
	narrowQ, err := query.ParseAnnotation(workload.UserVisitsSchema(),
		`@HailQuery(filter="@3 between(1985-01-01,1995-01-01)", projection={@9})`)
	if err != nil {
		t.Fatal(err)
	}
	wideQ, err := query.ParseAnnotation(workload.UserVisitsSchema(),
		`@HailQuery(filter="@3 between(1985-01-01,1995-01-01)", projection={@1,@2,@3,@4,@5,@6,@7,@8,@9})`)
	if err != nil {
		t.Fatal(err)
	}
	narrow := runHailQuery(t, cluster, "/uv", narrowQ, false).TotalStats()
	wide := runHailQuery(t, cluster, "/uv", wideQ, false).TotalStats()
	if narrow.BytesRead*2 >= wide.BytesRead {
		t.Errorf("narrow projection read %d bytes, wide %d; want <50%%", narrow.BytesRead, wide.BytesRead)
	}
}

func TestIndexScanReadsLessThanFullScan(t *testing.T) {
	// Index pruning works at 1,024-row partition granularity, so this
	// test needs blocks spanning many partitions: Synthetic rows are
	// ~130 B, so 1 MB text blocks hold ~8,000 rows ≈ 8 partitions.
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{
		Cluster: cluster,
		Config: LayoutConfig{
			Schema:      workload.SyntheticSchema(),
			SortColumns: []int{0, 1, 2},
			BlockSize:   1 << 20,
		},
	}
	if _, err := client.Upload("/synix", workload.GenerateSynthetic(32000, 3)); err != nil {
		t.Fatal(err)
	}
	s := workload.SyntheticSchema()
	// Selective filter on the indexed attribute (1% selectivity).
	idxQ, err := query.ParseAnnotation(s, `@HailQuery(filter="@1 between(0,9)", projection={@5})`)
	if err != nil {
		t.Fatal(err)
	}
	// Same projection, filter on a non-indexed attribute: PAX full scan.
	scanQ, err := query.ParseAnnotation(s, `@HailQuery(filter="@10 between(0,9999)", projection={@5})`)
	if err != nil {
		t.Fatal(err)
	}
	idx := runHailQuery(t, cluster, "/synix", idxQ, false).TotalStats()
	scan := runHailQuery(t, cluster, "/synix", scanQ, false).TotalStats()
	if idx.IndexScans == 0 {
		t.Fatal("indexed query did not use the index")
	}
	if scan.FullScans == 0 || scan.IndexScans != 0 {
		t.Fatal("non-indexed query did not fall back to scan")
	}
	if idx.BytesRead*3 >= scan.BytesRead {
		t.Errorf("index scan read %d bytes, full scan %d; want <1/3", idx.BytesRead, scan.BytesRead)
	}
}

func TestHailSplittingCoverage(t *testing.T) {
	cluster, _, sum, _ := uvFixture(t, 8000, workload.UserVisitsOptions{})
	q := workload.BobQueries()[0].Query
	f := &InputFormat{Cluster: cluster, Query: q, Splitting: true, SplitsPerNode: 2}
	splits, _, err := f.Splits("/uv", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Far fewer splits than blocks, and every block covered exactly once.
	if len(splits) >= sum.Blocks {
		t.Errorf("HailSplitting made %d splits for %d blocks", len(splits), sum.Blocks)
	}
	seen := map[hdfs.BlockID]int{}
	for _, s := range splits {
		if len(s.Locations) == 0 {
			t.Error("split has no locations")
		}
		for _, b := range s.Blocks {
			seen[b]++
		}
		for i, b := range s.Blocks {
			if s.Pin(i) != s.Locations[0] {
				t.Errorf("split block %d preferred replica %d != location %d", b, s.Pin(i), s.Locations[0])
			}
		}
	}
	if len(seen) != sum.Blocks {
		t.Fatalf("splits cover %d blocks, want %d", len(seen), sum.Blocks)
	}
	for b, n := range seen {
		if n != 1 {
			t.Errorf("block %d covered %d times", b, n)
		}
	}
	// Results with splitting on must equal results with splitting off.
	off := outputMultiset(runHailQuery(t, cluster, "/uv", q, false))
	on := outputMultiset(runHailQuery(t, cluster, "/uv", q, true))
	if len(off) != len(on) {
		t.Fatalf("splitting changed result size: %d vs %d", len(off), len(on))
	}
	for k, v := range off {
		if on[k] != v {
			t.Fatalf("splitting changed result for %q", k)
		}
	}
}

func TestFullScanFallbackWithoutFilter(t *testing.T) {
	cluster, _, sum, lines := uvFixture(t, 3000, workload.UserVisitsOptions{})
	res := runHailQuery(t, cluster, "/uv", &query.Query{}, true)
	stats := res.TotalStats()
	if stats.FullScans != sum.Blocks || stats.IndexScans != 0 {
		t.Errorf("no-filter job: %d full scans (want %d), %d index scans", stats.FullScans, sum.Blocks, stats.IndexScans)
	}
	if len(res.Output) != len(lines) {
		t.Errorf("full scan returned %d rows, want %d", len(res.Output), len(lines))
	}
	// With full scans HailSplitting must keep default per-block splits so
	// failover is unchanged (§4.3).
	if len(res.Tasks) != sum.Blocks {
		t.Errorf("full-scan job ran %d tasks, want one per block (%d)", len(res.Tasks), sum.Blocks)
	}
}

func TestBadRecordsDeliveredFlagged(t *testing.T) {
	cluster, _, sum, _ := uvFixture(t, 2000, workload.UserVisitsOptions{BadEvery: 100})
	if sum.BadRecords != 20 {
		t.Fatalf("BadRecords = %d, want 20", sum.BadRecords)
	}
	var mu sync.Mutex
	var badSeen int64
	e := &mapred.Engine{Cluster: cluster}
	_, err := e.Run(&mapred.Job{
		Name:  "bad",
		File:  "/uv",
		Input: &InputFormat{Cluster: cluster, Query: workload.BobQueries()[0].Query},
		MapBatch: func(b *mapred.Batch, out mapred.Emitter) {
			for _, raw := range b.Bad {
				mu.Lock()
				badSeen++
				mu.Unlock()
				if !strings.Contains(raw, "CORRUPT") {
					t.Errorf("bad record lost its raw text: %q", raw)
				}
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if badSeen != 20 {
		t.Errorf("map saw %d bad records, want 20", badSeen)
	}
}

// TestBuildIndexedReplicaAllocationsDoNotGrowWithRows is the allocation
// gate of the per-replica transform: arenas, directories, sort keys and
// the frame are a fixed number of allocations per column, so the same
// bound holds for a two-partition and an eight-partition block. A
// per-value allocation creeping back in (the boxed Block this replaced
// made six per row) fails here by two orders of magnitude.
func TestBuildIndexedReplicaAllocationsDoNotGrowWithRows(t *testing.T) {
	const bound = 128
	for _, rows := range []int{2 * pax.PartitionSize, 8 * pax.PartitionSize} {
		paxData := userVisitsPax(t, workload.GenerateUserVisits(rows, 3, workload.UserVisitsOptions{BadEvery: 1000}))
		for _, col := range []int{workload.UVSourceIP, workload.UVVisitDate, workload.UVAdRevenue, workload.UVDuration} {
			allocs := testing.AllocsPerRun(5, func() {
				if _, _, err := BuildIndexedReplica(paxData, col); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > bound {
				t.Errorf("BuildIndexedReplica of %d rows on column %d: %v allocations, want at most %d", rows, col, allocs, bound)
			}
		}
	}
}

// TestUploadAllocatesLittleMoreThanItStores is the allocation gate of the
// whole upload: one 20k-line upload with Bob's replicas may allocate at
// most twice the bytes it stores, and a second upload of the same lines
// into a fresh cluster at most 1.25 times. Every replica is written once —
// the sort is a permutation gathered while marshalling into the frame, the
// pipeline reassembles each block once, the datanode keeps the bytes its
// transform returned — and each block is unmarshalled once for all its
// replicas; lines are parsed straight into the client's arenas. What is
// not stored is recycled: the client's block and serialization buffer
// from one upload to the next, and the receive buffer, the row
// directories, the sort orders and the sort keys from one block to the
// next. The first upload grows all of them (≈1.4 ×); a later one finds
// them grown (≈1.03–1.09 ×), so any garbage made per block shows there.
// Before the recycling both read ≈1.8 ×. The warm figure is the least of
// three uploads: two garbage collections while a buffer sits in its pool
// drop it, and that regrowth belongs to one upload, not to all. Blocks
// are 256 KiB so that ten of them amortize the pools' one-time growth, as
// the 2 MiB blocks of a large upload do. It does not run under the race
// detector, whose runtime drops a random quarter of what is put into a
// sync.Pool.
func TestUploadAllocatesLittleMoreThanItStores(t *testing.T) {
	if raceBuild() {
		t.Skip("the race runtime drops pooled buffers at random")
	}
	lines := workload.GenerateUserVisits(20_000, 1, workload.UserVisitsOptions{NeedleEvery: 25_000, BadEvery: 10_007})
	cfg := bobLayout()
	cfg.BlockSize = 256 << 10
	upload := func() (ratio float64) {
		cluster, err := hdfs.NewCluster(4)
		if err != nil {
			t.Fatal(err)
		}
		client := &Client{Cluster: cluster, Config: cfg}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sum, err := client.Upload("/uv", lines)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocated := after.TotalAlloc - before.TotalAlloc
		ratio = float64(allocated) / float64(sum.StoredBytes)
		t.Logf("%d B allocated for %d B stored in %d blocks (%.2f ×)", allocated, sum.StoredBytes, sum.Blocks, ratio)
		return ratio
	}
	if cold := upload(); cold > 2 {
		t.Errorf("cold upload allocated %.2f × the bytes it stores, want at most 2 ×", cold)
	}
	warm := math.Inf(1)
	for range 3 {
		warm = min(warm, upload())
	}
	if warm > 1.25 {
		t.Errorf("warm upload allocated %.2f × the bytes it stores, want at most 1.25 ×", warm)
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestUploadStoresNULLineAsBadRecord: a line with a NUL byte in a string
// field parses field by field but cannot be stored zero-terminated. It
// used to fail the whole upload at Marshal, after earlier blocks were
// written and registered; it is a bad record — kept verbatim in the
// length-prefixed section — and everything around it is stored as usual.
func TestUploadStoresNULLineAsBadRecord(t *testing.T) {
	lines := workload.GenerateUserVisits(3000, 42, workload.UserVisitsOptions{})
	lines[2499] = strings.Replace(lines[2499], "http://", "http://\x00", 1)
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Cluster: cluster, Config: LayoutConfig{
		Schema:      workload.UserVisitsSchema(),
		SortColumns: []int{workload.UVDestURL, -1, workload.UVAdRevenue},
		BlockSize:   64 << 10,
	}}
	sum, err := client.Upload("/uv", lines)
	if err != nil {
		t.Fatalf("upload with a NUL byte in line 2500: %v", err)
	}
	if sum.Rows != 2999 || sum.BadRecords != 1 {
		t.Fatalf("rows/bad = %d/%d, want 2999/1", sum.Rows, sum.BadRecords)
	}
	res, err := (&mapred.Engine{Cluster: cluster}).Run(&mapred.Job{
		Name:  "all",
		File:  "/uv",
		Input: &InputFormat{Cluster: cluster, Query: &query.Query{}},
		MapBatch: func(b *mapred.Batch, out mapred.Emitter) {
			workload.PassthroughMapBatch(b, mapred.Emit(func(row, _ string) { out.Emit("good", row) }))
			for _, line := range b.Bad {
				out.Emit("bad", line)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]int)
	for _, kv := range res.Output {
		got[kv.Key+" "+kv.Value]++
	}
	for i, line := range lines {
		kind := "good "
		if i == 2499 {
			kind = "bad "
		}
		if got[kind+line] == 0 {
			t.Fatalf("line %d did not come back as a %srecord: %q", i+1, kind, line)
		}
		got[kind+line]--
	}
	if len(res.Output) != len(lines) {
		t.Errorf("%d records came back, want %d", len(res.Output), len(lines))
	}
}

func TestFailoverFallsBackToScan(t *testing.T) {
	// §6.4.3: when the node holding the matching index dies, HAIL reads a
	// surviving replica — whose index does not match — and full-scans it.
	cluster, _, sum, _ := uvFixture(t, 5000, workload.UserVisitsOptions{})
	q := workload.BobQueries()[0].Query // filter on visitDate (replica position 0)

	before := runHailQuery(t, cluster, "/uv", q, false)
	wantResults := outputMultiset(before)

	// Kill every node that holds a visitDate-indexed replica of block 0's
	// file... more precisely: kill one node and verify degraded behaviour.
	victim := cluster.NameNode().GetHostsWithIndex(sum.BlockIDs[0], workload.UVVisitDate)[0]
	if err := cluster.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	after := runHailQuery(t, cluster, "/uv", q, false)
	got := outputMultiset(after)
	if len(got) != len(wantResults) {
		t.Fatalf("results after failover: %d distinct, want %d", len(got), len(wantResults))
	}
	for k, v := range wantResults {
		if got[k] != v {
			t.Fatalf("failover changed result for %q", k)
		}
	}
	stats := after.TotalStats()
	if stats.FullScans == 0 {
		t.Error("expected some blocks to fall back to full scan after node death")
	}
	if stats.IndexScans == 0 {
		t.Error("blocks with surviving indexed replicas should still index-scan")
	}
}

func TestHail1IdxKeepsIndexScansUnderFailure(t *testing.T) {
	// HAIL-1Idx (§6.4.3): the same index on all replicas means failover
	// never degrades to scans.
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{
		Cluster: cluster,
		Config: LayoutConfig{
			Schema:      workload.UserVisitsSchema(),
			SortColumns: []int{workload.UVVisitDate, workload.UVVisitDate, workload.UVVisitDate},
			BlockSize:   32 << 10,
		},
	}
	lines := workload.GenerateUserVisits(4000, 1, workload.UserVisitsOptions{})
	sum, err := client.Upload("/uv1", lines)
	if err != nil {
		t.Fatal(err)
	}
	victim := cluster.NameNode().GetHostsWithIndex(sum.BlockIDs[0], workload.UVVisitDate)[0]
	cluster.KillNode(victim)
	res := runHailQuery(t, cluster, "/uv1", workload.BobQueries()[0].Query, false)
	stats := res.TotalStats()
	if stats.FullScans != 0 {
		t.Errorf("HAIL-1Idx fell back to %d full scans; all replicas carry the index", stats.FullScans)
	}
	if stats.IndexScans == 0 {
		t.Error("no index scans at all")
	}
}

func TestUnsortedReplicaConfig(t *testing.T) {
	// SortColumns entry -1 stores plain PAX without an index (the
	// "0 indexes" upload configurations of Figure 4).
	cluster, err := hdfs.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{
		Cluster: cluster,
		Config: LayoutConfig{
			Schema:      workload.SyntheticSchema(),
			SortColumns: []int{-1, -1, -1},
			BlockSize:   32 << 10,
		},
	}
	lines := workload.GenerateSynthetic(2000, 2)
	sum, err := client.Upload("/syn", lines)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SortedBytes != 0 || sum.IndexBytes != 0 {
		t.Errorf("unsorted upload recorded sorting: %+v", sum)
	}
	// Queries still work via PAX full scan.
	res := runHailQuery(t, cluster, "/syn", workload.SynQueries()[2].Query, false)
	if res.TotalStats().IndexScans != 0 {
		t.Error("index scan without any index")
	}
	if len(res.Output) == 0 {
		t.Error("scan query returned nothing")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	paxData := []byte("pax-bytes-here")
	ixData := []byte("ix")
	framed := FrameReplica(paxData, ixData)
	p, ix, err := ParseFrame(framed)
	if err != nil {
		t.Fatal(err)
	}
	if string(p) != string(paxData) || string(ix) != string(ixData) {
		t.Error("frame round trip mismatch")
	}
	p2, ix2, err := ParseFrame(FrameReplica(paxData, nil))
	if err != nil || ix2 != nil || string(p2) != string(paxData) {
		t.Errorf("frame without index: %v %v %v", p2, ix2, err)
	}
	if _, _, err := ParseFrame(framed[:5]); err == nil {
		t.Error("short frame accepted")
	}
	bad := append([]byte(nil), framed...)
	bad[0] = 'X'
	if _, _, err := ParseFrame(bad); err == nil {
		t.Error("bad magic accepted")
	}
	if _, _, err := ParseFrame(framed[:len(framed)-1]); err == nil {
		t.Error("truncated frame accepted")
	}
}

// recordText is a batch's records as text, in delivery order: each row's
// Line(','), then each raw line, then each bad record behind "bad\x00".
func recordText(b *mapred.Batch) []string {
	text, ends := b.Lines(',')
	out := make([]string, 0, b.NumRows())
	from := int32(0)
	for _, to := range ends {
		out = append(out, text[from:to])
		from = to
	}
	out = append(out, b.Raw...)
	for _, line := range b.Bad {
		out = append(out, "bad\x00"+line)
	}
	return out
}

// TestBlockAtATimeMatchesWholeSplitRead is what the engine's one task loop
// relies on, for every input format: opening a split one narrowed block at
// a time delivers the records, order and summed TaskStats of one
// whole-split Open — so its output, and every result-cache entry, is
// byte-identical to a whole-split read.
func TestBlockAtATimeMatchesWholeSplitRead(t *testing.T) {
	cluster, _, _, lines := uvFixture(t, 3_000, workload.UserVisitsOptions{})
	q := &query.Query{
		Filter: []query.Predicate{
			query.Between(workload.UVVisitDate,
				schema.DateVal(schema.MustDate("1999-01-01")),
				schema.DateVal(schema.MustDate("2000-06-01"))),
		},
		Projection: []int{workload.UVSourceIP, workload.UVAdRevenue},
	}
	hail := &InputFormat{Cluster: cluster, Query: q, Splitting: true, SplitsPerNode: 1}
	if sig, ok := mapred.QuerySigner(hail).QuerySignature(); !ok || sig == "" {
		t.Fatalf("QuerySignature = %q, %v", sig, ok)
	}
	up := &hadoop.Uploader{Cluster: cluster, BlockSize: 64 << 10, Replication: 3}
	if _, err := up.Upload("/text", lines); err != nil {
		t.Fatal(err)
	}
	sys := &trojan.System{
		Cluster: cluster, Schema: workload.UserVisitsSchema(), BlockSize: 64 << 10,
		Replication: 3, IndexColumn: workload.UVVisitDate,
	}
	if _, err := sys.Upload("/trojan", lines); err != nil {
		t.Fatal(err)
	}

	read := func(rr mapred.BatchReader, err error) ([]string, mapred.TaskStats) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		stats, err := rr.ReadBatches(func(b *mapred.Batch) { rows = append(rows, recordText(b)...) })
		if err != nil {
			t.Fatal(err)
		}
		return rows, stats
	}
	for _, tc := range []struct {
		name  string
		file  string
		input mapred.InputFormat
	}{
		{"core", "/uv", hail},
		{"hadoop", "/text", &hadoop.TextInputFormat{Cluster: cluster}},
		{"trojan", "/trojan", &trojan.InputFormat{System: sys, Query: q}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			splits, _, err := tc.input.Splits(tc.file, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The baselines plan one block per split; pack theirs into one so
			// every format is held to the multi-block contract.
			if tc.input != mapred.InputFormat(hail) {
				all := mapred.Split{Locations: splits[0].Locations}
				for _, s := range splits {
					all.Blocks = append(all.Blocks, s.Blocks...)
				}
				splits = []mapred.Split{all}
			}
			multi := 0
			for _, split := range splits {
				if len(split.Blocks) > 1 {
					multi++
				}
				node := split.Locations[0]
				want, wantStats := read(tc.input.Open(split, node))
				var got []string
				var gotStats mapred.TaskStats
				for i := range split.Blocks {
					one := split
					one.Blocks = split.Blocks[i : i+1 : i+1]
					if split.Pins != nil {
						one.Pins = split.Pins[i : i+1 : i+1]
					}
					rows, stats := read(tc.input.Open(one, node))
					got = append(got, rows...)
					gotStats.Add(stats)
				}
				if len(want) == 0 {
					t.Fatal("whole-split read delivered nothing")
				}
				if !slices.Equal(got, want) {
					t.Fatalf("block at a time read %d rows, whole split %d — or an order differs", len(got), len(want))
				}
				if gotStats != wantStats {
					t.Fatalf("summed stats differ:\nblock at a time: %+v\nwhole split:     %+v", gotStats, wantStats)
				}
				// The baselines run no selection kernels: their batches leave
				// the vectorized pipeline's counters alone.
				if st := wantStats; tc.name != "core" && (st.RowsScanned != 0 || st.RowsSelected != 0 || st.BatchesEmitted != 0) {
					t.Fatalf("baseline reader set the batch counters: %+v", st)
				}
			}
			if multi == 0 {
				t.Fatal("no multi-block split exercised")
			}
		})
	}
}
