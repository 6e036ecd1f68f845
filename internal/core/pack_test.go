package core

import (
	"testing"

	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// scanOnlyQuery filters on duration, which no replica of the uvFixture
// layout (visitDate, sourceIP, adRevenue) indexes — every block becomes a
// scan split, the adaptive job-1 shape.
func scanOnlyQuery() *query.Query {
	return &query.Query{
		Filter: []query.Predicate{
			query.Between(workload.UVDuration, schema.IntVal(100), schema.IntVal(500)),
		},
		Projection: []int{workload.UVSourceIP},
	}
}

// assertCoverage checks the packing invariant: every input block is
// covered exactly once, every split has locations, and pinned blocks pin
// the split's primary location.
func assertCoverage(t *testing.T, splits []mapred.Split, blocks []hdfs.BlockID) {
	t.Helper()
	seen := map[hdfs.BlockID]int{}
	for _, s := range splits {
		if len(s.Locations) == 0 {
			t.Error("split has no locations")
		}
		for _, b := range s.Blocks {
			seen[b]++
		}
		if len(s.Blocks) > 1 {
			for _, b := range s.Blocks {
				if s.Replica[b] != s.Locations[0] {
					t.Errorf("packed block %d pinned to %d, split located at %d", b, s.Replica[b], s.Locations[0])
				}
			}
		}
	}
	if len(seen) != len(blocks) {
		t.Fatalf("splits cover %d blocks, want %d", len(seen), len(blocks))
	}
	for b, n := range seen {
		if n != 1 {
			t.Errorf("block %d covered %d times", b, n)
		}
	}
}

// assertAliveLocations is the kill-node regression for the split phase:
// it must never hand the engine a dead-only location list while any
// replica of the block is alive.
func assertAliveLocations(t *testing.T, cluster *hdfs.Cluster, splits []mapred.Split) {
	t.Helper()
	for _, s := range splits {
		for _, n := range s.Locations {
			if dn, err := cluster.DataNode(n); err != nil || !dn.Alive() {
				t.Errorf("split over %v located at dead node %d (locations %v)", s.Blocks, n, s.Locations)
			}
		}
		for b, n := range s.Replica {
			if dn, err := cluster.DataNode(n); err != nil || !dn.Alive() {
				t.Errorf("block %d pinned to dead node %d", b, n)
			}
		}
	}
}

// TestPackedScanSplitsCoverage: PackScans turns per-block scan splits
// into a handful of per-node packed splits, covering every block exactly
// once, with results identical to unpacked execution.
func TestPackedScanSplitsCoverage(t *testing.T) {
	cluster, _, sum, _ := uvFixture(t, 8000, workload.UserVisitsOptions{})
	q := scanOnlyQuery()
	packed := &InputFormat{Cluster: cluster, Query: q, Splitting: true, SplitsPerNode: 2, PackScans: true}
	splits, _, err := packed.SplitsWithStats("/uv")
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) >= sum.Blocks {
		t.Errorf("PackScans made %d splits for %d blocks", len(splits), sum.Blocks)
	}
	if max := cluster.NumNodes() * 2; len(splits) > max {
		t.Errorf("PackScans made %d splits, want ≤ %d (SplitsPerNode × nodes)", len(splits), max)
	}
	assertCoverage(t, splits, sum.BlockIDs)
	assertAliveLocations(t, cluster, splits)

	// Packed execution must be indistinguishable from unpacked.
	unpackedOut := outputMultiset(runHailQuery(t, cluster, "/uv", q, false))
	e := &mapred.Engine{Cluster: cluster}
	res, err := e.Run(&mapred.Job{
		Name: "packed", File: "/uv", Input: packed, Map: workload.PassthroughMap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tasks) != len(splits) {
		t.Errorf("packed job dispatched %d tasks, want %d", len(res.Tasks), len(splits))
	}
	got := outputMultiset(res)
	if len(got) != len(unpackedOut) {
		t.Fatalf("packed result has %d distinct rows, unpacked %d", len(got), len(unpackedOut))
	}
	for k, v := range unpackedOut {
		if got[k] != v {
			t.Fatalf("packing changed result for %q", k)
		}
	}
}

// TestScanSplitLocationsAliveAfterKill is the satellite regression: the
// historical scanSplits (and hailSplits' scan fallback) pinned locations
// via GetHosts without filtering dead nodes, while indexed groups were
// alive-filtered. Both paths must agree on alive hosts.
func TestScanSplitLocationsAliveAfterKill(t *testing.T) {
	cluster, _, sum, _ := uvFixture(t, 5000, workload.UserVisitsOptions{})
	if err := cluster.KillNode(cluster.NameNode().GetHosts(sum.BlockIDs[0])[0]); err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []struct {
		name string
		q    *query.Query
		in   InputFormat
	}{
		{"scan-per-block", scanOnlyQuery(), InputFormat{}},
		{"scan-packed", scanOnlyQuery(), InputFormat{PackScans: true}},
		{"indexed-per-block", workload.BobQueries()[0].Query, InputFormat{}},
		{"indexed-splitting", workload.BobQueries()[0].Query, InputFormat{Splitting: true, SplitsPerNode: 2}},
	} {
		f := cfg.in
		f.Cluster, f.Query = cluster, cfg.q
		splits, _, err := f.SplitsWithStats("/uv")
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		assertCoverage(t, splits, sum.BlockIDs)
		assertAliveLocations(t, cluster, splits)
	}
}

// TestPerBlockIndexPinDeterministic is the satellite regression for
// Replica[b] = hosts[0]: with several replicas indexed on the same column
// (HAIL-1Idx) the pin must be alive-filtered and a pure function of the
// directory contents — the lowest alive indexed host — identical across
// repeated split phases.
func TestPerBlockIndexPinDeterministic(t *testing.T) {
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
	sum, err := client.Upload("/uv1", workload.GenerateUserVisits(4000, 1, workload.UserVisitsOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	victim := cluster.NameNode().GetHostsWithIndex(sum.BlockIDs[0], workload.UVVisitDate)[0]
	if err := cluster.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	q := workload.BobQueries()[0].Query // filter on visitDate
	f := &InputFormat{Cluster: cluster, Query: q}
	var first []mapred.Split
	for i := 0; i < 5; i++ {
		splits, _, err := f.SplitsWithStats("/uv1")
		if err != nil {
			t.Fatal(err)
		}
		assertAliveLocations(t, cluster, splits)
		for _, s := range splits {
			b := s.Blocks[0]
			pin, ok := s.Replica[b]
			if !ok {
				t.Fatalf("block %d has no pinned replica", b)
			}
			// The pin is the lowest alive indexed host — sorted, not
			// registration (pipeline) order.
			want := hdfs.NodeID(-1)
			for _, h := range cluster.NameNode().GetHostsWithIndex(b, workload.UVVisitDate) {
				if dn, err := cluster.DataNode(h); err == nil && dn.Alive() && (want == -1 || h < want) {
					want = h
				}
			}
			if pin != want {
				t.Errorf("block %d pinned to %d, want lowest alive indexed host %d", b, pin, want)
			}
		}
		if i == 0 {
			first = splits
			continue
		}
		if len(splits) != len(first) {
			t.Fatalf("run %d produced %d splits, first run %d", i, len(splits), len(first))
		}
		for j := range splits {
			if splits[j].Blocks[0] != first[j].Blocks[0] ||
				splits[j].Replica[splits[j].Blocks[0]] != first[j].Replica[first[j].Blocks[0]] {
				t.Fatalf("run %d split %d diverged from first run", i, j)
			}
		}
	}
}

// countingObserver records the adaptive split-phase report.
type countingObserver struct{ indexed, missing int }

func (o *countingObserver) ObserveJob(_ string, _ int, indexed, missing []hdfs.BlockID) {
	o.indexed, o.missing = len(indexed), len(missing)
}

// TestSplitPhaseStatsCountNameNodeOps is the regression for hard-coded-zero
// split-phase stats: the adaptive path performs per-block directory
// lookups during the split phase, and those must be accounted — while
// block-header I/O stays zero by design (§6.4.1).
func TestSplitPhaseStatsCountNameNodeOps(t *testing.T) {
	cluster, _, sum, _ := uvFixture(t, 5000, workload.UserVisitsOptions{})
	obs := &countingObserver{}
	f := &InputFormat{Cluster: cluster, Query: scanOnlyQuery(), Adaptive: obs}
	_, st, err := f.SplitsWithStats("/uv")
	if err != nil {
		t.Fatal(err)
	}
	if obs.missing != sum.Blocks {
		t.Fatalf("observer saw %d missing blocks, want %d", obs.missing, sum.Blocks)
	}
	// FileBlocks + per-block probes (pickColumn and partitionByIndex) +
	// per-block location lookups: strictly more than one op per block.
	if st.NameNodeOps <= sum.Blocks {
		t.Errorf("split phase reported %d namenode ops for %d blocks, want > blocks", st.NameNodeOps, sum.Blocks)
	}
	if st.BytesRead != 0 || st.Seeks != 0 || st.IndexBytesRead != 0 {
		t.Errorf("split phase reported block I/O (%+v); HAIL reads no headers at split time", st)
	}

	// The counter is per call, not cumulative, and flows into the
	// engine's JobResult.
	e := &mapred.Engine{Cluster: cluster}
	res, err := e.Run(&mapred.Job{
		Name: "ops", File: "/uv",
		Input: &InputFormat{Cluster: cluster, Query: scanOnlyQuery()},
		Map:   workload.PassthroughMap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SplitPhase.NameNodeOps == 0 {
		t.Error("JobResult.SplitPhase.NameNodeOps = 0, want > 0")
	}
}
