package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/index"
	"repro/internal/mapred"
	"repro/internal/pax"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// rangeRecorder serves a replica's bytes and remembers every range asked
// of it: the test's way of learning which bytes of a replica a scan
// touches without knowing the PAX layout.
type rangeRecorder struct {
	buf    []byte
	ranges [][2]int // {off, n}
}

func (s *rangeRecorder) Range(off, n int) ([]byte, error) {
	s.ranges = append(s.ranges, [2]int{off, n})
	return s.buf[off : off+n], nil
}

// repinned is an InputFormat whose split phase pins one block at another
// replica and changes nothing else — same splits, same locations, so the
// engine schedules it exactly as it schedules the original. It is how the
// matrix builds "a run that was pinned to that replica from the start".
type repinned struct {
	*InputFormat
	block hdfs.BlockID
	node  hdfs.NodeID
}

func (r repinned) Splits(file string, cached func(hdfs.BlockID) (hdfs.NodeID, bool)) ([]mapred.Split, mapred.TaskStats, error) {
	splits, st, err := r.InputFormat.Splits(file, cached)
	for i, s := range splits {
		if j := slices.Index(s.Blocks, r.block); j >= 0 && s.Pin(j) != hdfs.NoReplica {
			splits[i].Pins = slices.Clone(s.Pins)
			splits[i].Pins[j] = r.node
		}
	}
	return splits, st, err
}

// matrixMap passes good rows and bad records through, so a duplicated or
// missing record of either kind shows in the output.
func matrixMap(b *mapred.Batch, out mapred.Emitter) {
	workload.PassthroughMapBatch(b, out)
	for _, line := range b.Bad {
		out.Emit("bad", line)
	}
}

func sortedOutput(res *mapred.JobResult) []string {
	out := make([]string, len(res.Output))
	for i, kv := range res.Output {
		out[i] = kv.Key + "\x00" + kv.Value
	}
	sort.Strings(out)
	return out
}

func chunksVerified(c *hdfs.Cluster) int64 {
	var n int64
	for i := 0; i < c.NumNodes(); i++ {
		dn, _ := c.DataNode(hdfs.NodeID(i))
		n += dn.ChunksVerified()
	}
	return n
}

// TestCorruptionMatrix flips one bit in each kind of byte an index scan
// looks at — frame header, PAX header, index, filter column, the last
// partition of a projection-only column — and in a chunk it never looks
// at, and runs the query through the engine. A bit flipped where the scan
// looks must fail the block over to its next replica before anything of it
// is emitted: the output has every row exactly once, output and stats are
// those of a run pinned at that replica from the start, plus the counted
// failover, and the bad replica is quarantined: gone from GetHosts, with
// the block's generation one up. A bit flipped elsewhere in the replica must not be
// noticed at all, though a whole-replica read of it still fails. With the
// same chunk bad on every replica the job fails with an error naming block
// and chunk, and every replica but the last is quarantined.
func TestCorruptionMatrix(t *testing.T) {
	cluster, err := hdfs.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Cluster: cluster, Config: LayoutConfig{
		Schema:      workload.UserVisitsSchema(),
		SortColumns: []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue},
		BlockSize:   512 << 10, // ≈4,000 rows a block: four index partitions
	}}
	lines := workload.GenerateUserVisits(32_000, 42, workload.UserVisitsOptions{NeedleEvery: 500, BadEvery: 750})
	sum, err := client.Upload("/uv", lines)
	if err != nil {
		t.Fatal(err)
	}
	// The upper ~45 % of the dates: on the visitDate replica the candidate
	// range is the last partitions of the block, to its last row.
	lo := schema.DateVal(schema.MustDate("1988-01-01"))
	q := &query.Query{
		Filter:     []query.Predicate{query.AtLeast(workload.UVVisitDate, lo)},
		Projection: []int{workload.UVSourceIP, workload.UVDuration},
	}
	f := &InputFormat{Cluster: cluster, Query: q, Splitting: true, SplitsPerNode: 1}
	run := func(input mapred.InputFormat, par int) (*mapred.JobResult, error) {
		e := &mapred.Engine{Cluster: cluster, Parallelism: par}
		return e.Run(&mapred.Job{Name: "matrix", File: "/uv", Input: input, MapBatch: matrixMap, MapSig: "matrix"})
	}
	mustRun := func(input mapred.InputFormat, par int) *mapred.JobResult {
		t.Helper()
		res, err := run(input, par)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// The victim: a block in the middle of a packed split, at the replica
	// the split phase pins.
	splits, _, err := f.Splits("/uv", nil)
	if err != nil {
		t.Fatal(err)
	}
	var victimSplit mapred.Split
	for _, s := range splits {
		if len(s.Blocks) >= 3 {
			victimSplit = s
		}
	}
	if len(victimSplit.Blocks) < 3 {
		t.Fatalf("no split packs three blocks: %+v", splits)
	}
	b, pinned := victimSplit.Blocks[1], victimSplit.Pin(1)
	if pinned == hdfs.NoReplica {
		t.Fatalf("block %d is not pinned", b)
	}
	pinnedDN, _ := cluster.DataNode(pinned)
	// A failover quarantines the replica it left; restore re-registers
	// every replica of the block a run quarantined, with its entry, once
	// the flipped bit is flipped back.
	nn := cluster.NameNode()
	holders := nn.GetHosts(b)
	entries := make(map[hdfs.NodeID]hdfs.ReplicaInfo)
	for _, h := range holders {
		entries[h], _ = nn.ReplicaInfo(b, h)
	}
	restore := func() {
		held := nn.GetHosts(b)
		for _, h := range holders {
			if !slices.Contains(held, h) {
				nn.RegisterReplica(b, h, entries[h])
			}
		}
	}

	// Replay the scan of that replica over a recorder to learn the byte
	// ranges it touches.
	replica, err := cluster.ReadBlockFrom(pinned, b)
	if err != nil {
		t.Fatal(err)
	}
	paxData, ixData, err := ParseFrame(replica)
	if err != nil {
		t.Fatal(err)
	}
	rec := &rangeRecorder{buf: replica}
	reader, err := pax.NewReaderAt(rec, frameHeader, len(paxData))
	if err != nil {
		t.Fatal(err)
	}
	paxHeaderLen := 0
	for _, rg := range rec.ranges {
		paxHeaderLen += rg[1]
	}
	ix, err := index.Unmarshal(ixData)
	if err != nil {
		t.Fatal(err)
	}
	from, to, ok := ix.PartitionRange(&lo, nil)
	if !ok || from == 0 || to != reader.NumRows() || reader.NumRows() < 3*pax.PartitionSize {
		t.Fatalf("candidate range [%d,%d) of %d rows; want a proper suffix of a block of several partitions", from, to, reader.NumRows())
	}
	colRange := make(map[int][2]int) // column -> the range holding its values
	for _, col := range []int{workload.UVSourceIP, workload.UVVisitDate, workload.UVDuration} {
		if _, err := reader.NewColumnCursor(col, from, to); err != nil {
			t.Fatal(err)
		}
		colRange[col] = rec.ranges[len(rec.ranges)-1]
	}
	if bad, err := reader.ReadAllBad(nil); err != nil || len(bad) == 0 {
		t.Fatalf("victim block has %d bad records (%v); want some", len(bad), err)
	}
	touched := append([][2]int{{0, frameHeader}, {frameHeader + len(paxData), len(ixData)}}, rec.ranges...)
	untouched := -1
chunks:
	for c := 0; c*hdfs.ChunkSize < len(replica); c++ {
		for _, rg := range touched {
			if rg[0]/hdfs.ChunkSize <= c && c <= (rg[0]+rg[1]-1)/hdfs.ChunkSize {
				continue chunks
			}
		}
		untouched = c*hdfs.ChunkSize + hdfs.ChunkSize/2
		break
	}
	if untouched < 0 {
		t.Fatal("the scan touches every chunk of the replica")
	}
	ipVals := colRange[workload.UVSourceIP]
	cases := []struct {
		name string
		off  int
	}{
		{"frame header", 7},
		{"PAX header", frameHeader + 11},
		{"index", frameHeader + len(paxData) + len(ixData)/2},
		{"filter column", colRange[workload.UVVisitDate][0] + colRange[workload.UVVisitDate][1]/2},
		{"projection-only column, last value of the last partition", ipVals[0] + ipVals[1] - 2},
		{"projection-only fixed column, first row of the range", colRange[workload.UVDuration][0]},
	}

	for _, par := range []int{1, 4} {
		base := mustRun(f, par)
		baseStats := base.TotalStats()
		if baseStats.IndexScans != sum.Blocks || baseStats.ChecksumFailovers != 0 || len(base.Output) == 0 {
			t.Fatalf("par %d: healthy run: %d outputs, stats %+v", par, len(base.Output), baseStats)
		}
		var runOn hdfs.NodeID = -1
		for _, task := range base.Tasks {
			if slices.Contains(task.Split.Blocks, b) {
				runOn = task.Node
			}
		}

		for _, tc := range cases {
			name := fmt.Sprintf("par %d, bit flipped in the %s", par, tc.name)
			fails0 := pinnedDN.ChecksumFailures()
			gen := nn.Generation(b)
			if err := pinnedDN.CorruptByte(b, tc.off); err != nil {
				t.Fatal(err)
			}
			res := mustRun(f, par)
			if slices.Contains(nn.GetHosts(b), pinned) || nn.Generation(b) != gen+1 {
				t.Errorf("%s: after the failover block %d is on %v at generation %d (was %d); want node %d quarantined and one bump",
					name, b, nn.GetHosts(b), nn.Generation(b), gen, pinned)
			}
			if err := pinnedDN.CorruptByte(b, tc.off); err != nil { // flip it back
				t.Fatal(err)
			}
			restore()
			stats := res.TotalStats()
			if stats.ChecksumFailovers != 1 || pinnedDN.ChecksumFailures() != fails0+1 {
				t.Errorf("%s: %d failovers in the stats, %d failures on the datanode; want one each",
					name, stats.ChecksumFailovers, pinnedDN.ChecksumFailures()-fails0)
			}
			if got, want := sortedOutput(res), sortedOutput(base); !slices.Equal(got, want) {
				t.Errorf("%s: %d records out, healthy run %d: rows duplicated or missing", name, len(got), len(want))
			}
			// The replica that must have served it: the next in the
			// reader's order after the pinned one.
			var served hdfs.NodeID = -1
			for _, h := range cluster.ReplicaOrder(b, runOn) {
				if h != pinned {
					served = h
					break
				}
			}
			ref := mustRun(repinned{f, b, served}, par)
			if !slices.Equal(res.Output, ref.Output) {
				t.Errorf("%s: output differs from a run pinned at node %d from the start", name, served)
			}
			stats.ChecksumFailovers = 0
			if refStats := ref.TotalStats(); stats != refStats {
				t.Errorf("%s: stats differ from a run pinned at node %d from the start:\nfailover: %+v\npinned:   %+v", name, served, stats, refStats)
			}
			if stats.FullScans != 1 || stats.IndexScans != sum.Blocks-1 {
				t.Errorf("%s: %d index scans, %d full scans; want the one block scanned on an unmatched replica", name, stats.IndexScans, stats.FullScans)
			}
		}

		// A flipped bit the scan never looks at.
		name := fmt.Sprintf("par %d, bit flipped outside every range read", par)
		fails0 := pinnedDN.ChecksumFailures()
		if err := pinnedDN.CorruptByte(b, untouched); err != nil {
			t.Fatal(err)
		}
		res := mustRun(f, par)
		if !slices.Equal(res.Output, base.Output) || res.TotalStats() != baseStats {
			t.Errorf("%s: the run noticed:\ngot:  %+v\nwant: %+v", name, res.TotalStats(), baseStats)
		}
		if pinnedDN.ChecksumFailures() != fails0 {
			t.Errorf("%s: %d checksum failures", name, pinnedDN.ChecksumFailures()-fails0)
		}
		if _, err := cluster.ReadBlockFrom(pinned, b); !errors.Is(err, hdfs.ErrCorruptChunk) {
			t.Errorf("%s: whole-replica read: err = %v, want ErrCorruptChunk", name, err)
		}
		if err := pinnedDN.CorruptByte(b, untouched); err != nil {
			t.Fatal(err)
		}

		// The same chunk bad on every replica.
		hosts := cluster.NameNode().GetHosts(b)
		for _, h := range hosts {
			dn, _ := cluster.DataNode(h)
			if err := dn.CorruptByte(b, 3); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := run(f, par); err == nil {
			t.Errorf("par %d: job over a block corrupt on all %d replicas succeeded", par, len(hosts))
		} else if msg := err.Error(); !strings.Contains(msg, fmt.Sprintf("block %d chunk 0: %v", b, hdfs.ErrCorruptChunk)) {
			t.Errorf("par %d: error does not name block %d and chunk 0: %v", par, b, err)
		}
		if held := nn.GetHosts(b); len(held) != 1 {
			t.Errorf("par %d: block %d corrupt everywhere is left on %v; want all but its last replica quarantined", par, b, held)
		}
		for _, h := range hosts {
			dn, _ := cluster.DataNode(h)
			if err := dn.CorruptByte(b, 3); err != nil {
				t.Fatal(err)
			}
		}
		restore()
		if res := mustRun(f, par); !slices.Equal(res.Output, base.Output) {
			t.Errorf("par %d: output changed after every flipped bit was flipped back", par)
		}
	}

	// A reader over the whole packed split reuses its view across blocks:
	// failing over in the middle of the split must not disturb the blocks
	// around it.
	readSplit := func() ([]string, mapred.TaskStats) {
		t.Helper()
		rr, err := f.Open(victimSplit, pinned)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		st, err := rr.ReadBatches(func(b *mapred.Batch) { out = append(out, recordText(b)...) })
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(out)
		return out, st
	}
	want, _ := readSplit()
	if err := pinnedDN.CorruptByte(b, ipVals[0]+ipVals[1]-2); err != nil {
		t.Fatal(err)
	}
	got, st := readSplit()
	if err := pinnedDN.CorruptByte(b, ipVals[0]+ipVals[1]-2); err != nil {
		t.Fatal(err)
	}
	restore()
	if !slices.Equal(got, want) || st.ChecksumFailovers != 1 || st.Blocks != len(victimSplit.Blocks) {
		t.Errorf("whole-split reader: %d records (healthy %d), stats %+v", len(got), len(want), st)
	}

	// Proportionality, the point of range reads: the bytes verified are
	// the bytes the stats say were read, plus the two headers of each
	// block, plus at most two chunks of rounding for each range (one at
	// either end).
	for _, pq := range []*query.Query{
		q,
		{ // one month: a single partition of each block
			Filter: []query.Predicate{query.Between(workload.UVVisitDate,
				schema.DateVal(schema.MustDate("1990-03-01")), schema.DateVal(schema.MustDate("1990-03-31")))},
			Projection: []int{workload.UVSourceIP, workload.UVDuration},
		},
	} {
		pf := &InputFormat{Cluster: cluster, Query: pq, Splitting: true, SplitsPerNode: 1}
		before := chunksVerified(cluster)
		stats := mustRun(pf, 1).TotalStats()
		verified := (chunksVerified(cluster) - before) * hdfs.ChunkSize
		// Ranges a block: frame header, three PAX header reads, index,
		// two fixed columns, a string column (offsets, next offset,
		// values), the bad-record section.
		const rangesPerBlock = 1 + 3 + 1 + 2 + 3 + 1
		blocks := int64(stats.Blocks)
		bound := stats.BytesRead + stats.IndexBytesRead + blocks*int64(frameHeader+paxHeaderLen) +
			blocks*rangesPerBlock*2*hdfs.ChunkSize
		if verified > bound {
			t.Errorf("%s: verified %d bytes, more than the %d the stats account for (%d read, %d index, %d blocks)",
				pq, verified, bound, stats.BytesRead, stats.IndexBytesRead, blocks)
		}
		if pq != q && verified*8 > sum.StoredBytes/3 {
			t.Errorf("%s: verified %d bytes of replicas totalling %d: not a fraction of the block", pq, verified, sum.StoredBytes/3)
		}
	}
}

// TestFileSchemaReadsHeadersOnly: the schema probe verifies the header
// chunks of block 0's first replica and nothing else of it. A bit flipped
// in a data chunk of that replica goes unnoticed; a bit flipped in its
// header chunk fails the probe over to the next holder, as does a dead
// node; with every holder's header bad the probe names block and chunk.
func TestFileSchemaReadsHeadersOnly(t *testing.T) {
	cluster, err := hdfs.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	want := workload.UserVisitsSchema()
	client := &Client{Cluster: cluster, Config: LayoutConfig{
		Schema:      want,
		SortColumns: []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue},
		BlockSize:   256 << 10,
	}}
	if _, err := client.Upload("/uv", workload.GenerateUserVisits(4_000, 7, workload.UserVisitsOptions{})); err != nil {
		t.Fatal(err)
	}
	blocks, err := cluster.NameNode().FileBlocks("/uv")
	if err != nil {
		t.Fatal(err)
	}
	b := blocks[0]
	hosts := cluster.ReplicaOrder(b, 0)
	first, _ := cluster.DataNode(hosts[0])
	probe := func(name string) {
		t.Helper()
		got, err := FileSchema(cluster, "/uv")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: schema %v, want %v", name, got, want)
		}
	}

	size := first.ReplicaSize(b)
	before := chunksVerified(cluster)
	probe("clean")
	if n := chunksVerified(cluster) - before; n*512 > int64(size)/10 {
		t.Errorf("the probe verified %d chunks of a %d-byte replica", n, size)
	}

	// A data chunk: the last byte of the replica is far from both headers.
	if err := first.CorruptByte(b, size-1); err != nil {
		t.Fatal(err)
	}
	fails0 := first.ChecksumFailures()
	probe("bit flipped in a data chunk")
	if first.ChecksumFailures() != fails0 {
		t.Error("the probe read the corrupt data chunk")
	}
	if _, err := cluster.ReadBlockFrom(hosts[0], b); !errors.Is(err, hdfs.ErrCorruptChunk) {
		t.Errorf("whole read of the corrupt replica: err = %v", err)
	}

	// The header chunk: the frame header's first bytes.
	if err := first.CorruptByte(b, 3); err != nil {
		t.Fatal(err)
	}
	fails0 = first.ChecksumFailures()
	probe("bit flipped in the header chunk")
	if first.ChecksumFailures() != fails0+1 {
		t.Errorf("header corruption: %d checksum failures on the first replica, want 1", first.ChecksumFailures()-fails0)
	}

	// A dead second holder on top: the third serves.
	if err := cluster.KillNode(hosts[1]); err != nil {
		t.Fatal(err)
	}
	probe("first replica corrupt, second dead")

	third, _ := cluster.DataNode(hosts[2])
	if err := third.CorruptByte(b, 3); err != nil {
		t.Fatal(err)
	}
	_, err = FileSchema(cluster, "/uv")
	if !errors.Is(err, hdfs.ErrCorruptChunk) || !strings.Contains(err.Error(), fmt.Sprintf("block %d", b)) {
		t.Errorf("every holder unreadable: err = %v", err)
	}
	if _, err := FileSchema(cluster, "/missing"); !errors.Is(err, hdfs.ErrNoSuchFile) {
		t.Errorf("missing file: err = %v", err)
	}
}

// TestDegradedLoadAnswersAsBeforeTheSave: a replica corrupted on disk is
// quarantined when the directory loads, and the queries answer from the
// block's other replicas — each of Bob's queries and a full scan returns
// the rows the cluster returned before it was saved. The victim is the
// visitDate replica of a middle block, so Bob-Q1 loses its index scan
// there and reads a replica sorted another way: rows are compared as
// sorted lists.
func TestDegradedLoadAnswersAsBeforeTheSave(t *testing.T) {
	cluster, _, sum, _ := uvFixture(t, 8000, workload.UserVisitsOptions{NeedleEvery: 500, BadEvery: 750})
	var queries []*query.Query
	for _, bq := range workload.BobQueries() {
		queries = append(queries, bq.Query)
	}
	queries = append(queries, &query.Query{
		Filter:     []query.Predicate{query.Between(workload.UVDuration, schema.IntVal(10), schema.IntVal(30))},
		Projection: []int{workload.UVSourceIP},
	})
	answer := func(c *hdfs.Cluster) [][]string {
		t.Helper()
		var out [][]string
		for _, q := range queries {
			e := &mapred.Engine{Cluster: c, Parallelism: 1}
			res, err := e.Run(&mapred.Job{Name: "degraded", File: "/uv", Input: &InputFormat{Cluster: c, Query: q},
				MapBatch: workload.PassthroughMapBatch, MapSig: workload.PassthroughMapSig})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sortedOutput(res))
		}
		return out
	}
	before := answer(cluster)
	for i, rows := range before {
		if len(rows) == 0 {
			t.Fatalf("query %d returns no rows: nothing to compare", i)
		}
	}

	dir := t.TempDir()
	if err := cluster.Save(dir); err != nil {
		t.Fatal(err)
	}
	b := sum.BlockIDs[len(sum.BlockIDs)/2]
	node := cluster.NameNode().GetHostsWithIndex(b, workload.UVVisitDate)[0]
	path := filepath.Join(dir, fmt.Sprintf("dn%d", node), fmt.Sprintf("blk_%d.dat", b))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, err := hdfs.Load(dir)
	if err != nil {
		t.Fatalf("Load refused a directory with two healthy copies of every block: %v", err)
	}
	nn := loaded.NameNode()
	if q := nn.Quarantined(); len(q) != 1 || q[0].Block != b || q[0].Node != node {
		t.Fatalf("Quarantined = %+v, want block %d on node %d", q, b, node)
	}
	if hosts := nn.GetHosts(b); slices.Contains(hosts, node) || len(hosts) != 2 {
		t.Fatalf("block %d: GetHosts = %v, want the two replicas besides node %d", b, hosts, node)
	}
	for i, got := range answer(loaded) {
		if !slices.Equal(got, before[i]) {
			t.Errorf("query %d: %d rows after the degraded load, %d before the save", i, len(got), len(before[i]))
		}
	}
}
