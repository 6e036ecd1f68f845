package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/pax"
	"repro/internal/schema"
	"repro/internal/workload"
)

func TestRecoverFileRestoresIndexes(t *testing.T) {
	cluster, client, sum, _ := uvFixture(t, 4000, workload.UserVisitsOptions{})
	cfg := client.Config
	bq := workload.BobQueries()[0] // filter on visitDate

	// Baseline: all blocks index-scan.
	before := runHailQuery(t, cluster, "/uv", bq.Query, false)
	wantResults := outputMultiset(before)
	if st := before.TotalStats(); st.FullScans != 0 {
		t.Fatalf("baseline has %d full scans", st.FullScans)
	}

	// Kill a node holding visitDate-indexed replicas: some blocks lose
	// their matching index.
	victim := cluster.NameNode().GetHostsWithIndex(sum.BlockIDs[0], workload.UVVisitDate)[0]
	// What each block is about to lose, and who held it before.
	lost := make(map[hdfs.BlockID][]byte)
	holders := make(map[hdfs.BlockID][]hdfs.NodeID)
	for _, b := range sum.BlockIDs {
		holders[b] = cluster.NameNode().GetHosts(b)
		if data, err := cluster.ReadBlockFrom(victim, b); err == nil {
			lost[b] = data
		}
	}
	if err := cluster.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	degraded := runHailQuery(t, cluster, "/uv", bq.Query, false)
	if st := degraded.TotalStats(); st.FullScans == 0 {
		t.Fatal("kill did not degrade any block to a full scan; test premise broken")
	}

	// Recover: lost replicas are rebuilt with their sort order and index.
	rep, err := RecoverFile(cluster, "/uv", cfg)
	if err != nil {
		t.Fatalf("RecoverFile: %v", err)
	}
	if rep.ReplicasRecovered == 0 || rep.IndexesRebuilt == 0 {
		t.Fatalf("nothing recovered: %+v", rep)
	}
	if rep.BlocksScanned != sum.Blocks {
		t.Errorf("scanned %d blocks, want %d", rep.BlocksScanned, sum.Blocks)
	}

	// All blocks index-scan again, and results are unchanged.
	after := runHailQuery(t, cluster, "/uv", bq.Query, false)
	if st := after.TotalStats(); st.FullScans != 0 {
		t.Errorf("still %d full scans after recovery", st.FullScans)
	}
	got := outputMultiset(after)
	if len(got) != len(wantResults) {
		t.Fatalf("results changed after recovery: %d vs %d distinct", len(got), len(wantResults))
	}
	for k, v := range wantResults {
		if got[k] != v {
			t.Fatalf("result %q changed after recovery", k)
		}
	}

	// Each recovered replica is exactly what the one replica builder makes
	// of the survivor recovery read (the first alive holder), and holds the
	// rows of the replica that was lost. Not its bytes: re-sorting a
	// differently sorted survivor orders ties by the survivor's order, the
	// upload ordered them by arrival.
	for b, lostData := range lost {
		var survivor, target hdfs.NodeID = -1, -1
		for _, h := range holders[b] {
			if h != victim && survivor < 0 {
				survivor = h
			}
		}
		for _, h := range cluster.NameNode().GetHosts(b) {
			if !slices.Contains(holders[b], h) {
				target = h
			}
		}
		if survivor < 0 || target < 0 {
			t.Fatalf("block %d: holders %v, now %v: no survivor or no new holder", b, holders[b], cluster.NameNode().GetHosts(b))
		}
		lostPax, _, err := ParseFrame(lostData)
		if err != nil {
			t.Fatal(err)
		}
		lostBlock, err := pax.Unmarshal(lostPax)
		if err != nil {
			t.Fatal(err)
		}
		survivorData, err := cluster.ReadBlockFrom(survivor, b)
		if err != nil {
			t.Fatal(err)
		}
		survivorPax, _, err := ParseFrame(survivorData)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := BuildIndexedReplica(survivorPax, lostBlock.SortColumn())
		if err != nil {
			t.Fatal(err)
		}
		got, err := cluster.ReadBlockFrom(target, b)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("block %d: the replica recovered onto node %d is not BuildIndexedReplica of node %d's block", b, target, survivor)
		}
		gotPax, _, err := ParseFrame(got)
		if err != nil {
			t.Fatal(err)
		}
		gotBlock, err := pax.Unmarshal(gotPax)
		if err != nil {
			t.Fatal(err)
		}
		rows := make(map[string]int)
		for r := 0; r < lostBlock.NumRows(); r++ {
			rows[schema.RowKey(lostBlock.Row(r))]++
		}
		for r := 0; r < gotBlock.NumRows(); r++ {
			rows[schema.RowKey(gotBlock.Row(r))]--
		}
		for k, n := range rows {
			if n != 0 {
				t.Fatalf("block %d: row %q is %+d times in the lost replica over the recovered one", b, k, n)
			}
		}
	}

	// The recovered replicas really are clustered and indexed correctly.
	for _, b := range sum.BlockIDs {
		for _, col := range cfg.SortColumns {
			hosts := cluster.NameNode().GetHostsWithIndex(b, col)
			aliveWithIndex := 0
			for _, h := range hosts {
				dn, err := cluster.DataNode(h)
				if err != nil || !dn.Alive() {
					continue
				}
				aliveWithIndex++
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
				if r.SortColumn() != col || ixData == nil {
					t.Fatalf("block %d on node %d: sortCol=%d ix=%v, want col %d with index",
						b, h, r.SortColumn(), ixData != nil, col)
				}
			}
			if aliveWithIndex == 0 {
				t.Errorf("block %d: no alive replica indexed on %d after recovery", b, col)
			}
		}
	}
}

// TestRecoverFileIsDeterministic repeats one recovery — six nodes, two
// holders of block 0 killed — on fresh clusters and requires one
// post-recovery layout: which node holds which sort order of which block.
func TestRecoverFileIsDeterministic(t *testing.T) {
	lines := workload.GenerateUserVisits(1500, 9, workload.UserVisitsOptions{})
	var first string
	for run := 0; run < 20; run++ {
		cluster, err := hdfs.NewCluster(6)
		if err != nil {
			t.Fatal(err)
		}
		client := &Client{Cluster: cluster, Config: LayoutConfig{
			Schema:      workload.UserVisitsSchema(),
			SortColumns: []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue},
			BlockSize:   32 << 10,
		}}
		sum, err := client.Upload("/uv", lines)
		if err != nil {
			t.Fatal(err)
		}
		for _, victim := range cluster.NameNode().GetHosts(sum.BlockIDs[0])[:2] {
			if err := cluster.KillNode(victim); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := RecoverFile(cluster, "/uv", client.Config); err != nil {
			t.Fatal(err)
		}
		var layout strings.Builder
		for _, b := range sum.BlockIDs {
			for _, h := range cluster.NameNode().GetHosts(b) {
				info, _ := cluster.NameNode().ReplicaInfo(b, h)
				fmt.Fprintf(&layout, "block %d: node %d sorted on %d\n", b, h, info.SortColumn)
			}
		}
		if run == 0 {
			first = layout.String()
		} else if layout.String() != first {
			t.Fatalf("run %d recovered\n%s\nrun 0 recovered\n%s", run, layout.String(), first)
		}
	}
}

func TestRecoverFileNoopWhenHealthy(t *testing.T) {
	cluster, client, sum, _ := uvFixture(t, 1500, workload.UserVisitsOptions{})
	rep, err := RecoverFile(cluster, "/uv", client.Config)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplicasRecovered != 0 || rep.IndexesRebuilt != 0 {
		t.Errorf("healthy file triggered recovery: %+v", rep)
	}
	if rep.BlocksScanned != sum.Blocks {
		t.Errorf("scanned %d, want %d", rep.BlocksScanned, sum.Blocks)
	}
}

func TestRecoverFileAllReplicasLost(t *testing.T) {
	// 3 of 3 nodes dead for some block's replicas: recovery must fail
	// loudly rather than silently dropping data.
	cluster, err := hdfs.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{
		Cluster: cluster,
		Config: LayoutConfig{
			Schema:      workload.UserVisitsSchema(),
			SortColumns: []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue},
			BlockSize:   32 << 10,
		},
	}
	if _, err := client.Upload("/uv", workload.GenerateUserVisits(500, 3, workload.UserVisitsOptions{})); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 3; n++ {
		cluster.KillNode(hdfs.NodeID(n))
	}
	if _, err := RecoverFile(cluster, "/uv", client.Config); err == nil {
		t.Error("recovery with zero alive replicas succeeded")
	}
}

func TestRecoverFileValidatesConfig(t *testing.T) {
	cluster, _ := hdfs.NewCluster(3)
	if _, err := RecoverFile(cluster, "/x", LayoutConfig{}); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestStoreRecoveredReplicaRejectsDuplicates: recovery never stores a
// second replica of a block on a node that already holds one.
func TestStoreRecoveredReplicaRejectsDuplicates(t *testing.T) {
	cluster, client, sum, _ := uvFixture(t, 500, workload.UserVisitsOptions{})
	b := sum.BlockIDs[0]
	holder := cluster.NameNode().GetHosts(b)[0]
	err := recoverReplica(cluster, b, holder, holder, client.Config.SortColumns[0])
	if !errors.Is(err, hdfs.ErrReplicaExists) {
		t.Errorf("recovering onto a holder: err = %v, want ErrReplicaExists", err)
	}
}

// TestRebuildReplicaCopiesNothing: rebuilding a replica from its view
// allocates at least one replica length less than the copying path it
// replaced (ReadBlockFrom + BuildIndexedReplica), and builds the same
// bytes.
func TestRebuildReplicaCopiesNothing(t *testing.T) {
	if raceBuild() {
		t.Skip("the race runtime drops pooled sort keys at random")
	}
	cluster, client, sum, _ := uvFixture(t, 4000, workload.UserVisitsOptions{})
	b := sum.BlockIDs[0]
	node := cluster.NameNode().GetHosts(b)[0]
	col := client.Config.SortColumns[1]
	view, err := cluster.OpenBlockFrom(node, b)
	if err != nil {
		t.Fatal(err)
	}
	var copied, rebuilt []byte
	copyPath := func() {
		data, err := cluster.ReadBlockFrom(node, b)
		if err != nil {
			t.Fatal(err)
		}
		paxData, _, err := ParseFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		if copied, _, err = BuildIndexedReplica(paxData, col); err != nil {
			t.Fatal(err)
		}
	}
	rebuild := func() {
		if rebuilt, _, err = RebuildReplica(view, col); err != nil {
			t.Fatal(err)
		}
	}
	// The fewest bytes one run allocated: a garbage collection that empties
	// the sort keys' pool mid-loop adds the keys to one run, not to all.
	perRun := func(f func()) uint64 {
		least := uint64(math.MaxUint64)
		for range 20 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	copyBytes, rebuildBytes := perRun(copyPath), perRun(rebuild)
	t.Logf("replica %d B: copying path %d B/run, rebuild %d B/run", view.Len(), copyBytes, rebuildBytes)
	if copyBytes < rebuildBytes+uint64(view.Len()) {
		t.Errorf("rebuild allocates %d B/run, the copying path %d: want at least one replica (%d B) less",
			rebuildBytes, copyBytes, view.Len())
	}
	if !bytes.Equal(copied, rebuilt) {
		t.Error("RebuildReplica built other bytes than ReadBlockFrom + BuildIndexedReplica")
	}
}
