package adaptive

import (
	"slices"
	"testing"

	"repro/internal/hdfs"
)

// indexedHost returns a host of block b whose replica carries an index on
// col, per the namenode directory.
func indexedHost(t *testing.T, cluster *hdfs.Cluster, b hdfs.BlockID, col int) hdfs.NodeID {
	t.Helper()
	nn := cluster.NameNode()
	for _, h := range nn.GetHosts(b) {
		if info, ok := nn.ReplicaInfo(b, h); ok && info.HasIndex && info.SortColumn == col {
			return h
		}
	}
	t.Fatalf("no replica of block %d indexed on column %d", b, col)
	return 0
}

// TestRegistryRoundTripsThroughTheManifest: the registry is the
// namenode's adaptive records, so a cluster saved and loaded gives a new
// Indexer the registry the old one had — charges, heat and budget — and a
// heat clock at its hottest replica.
func TestRegistryRoundTripsThroughTheManifest(t *testing.T) {
	cluster, file := upload(t, 4, 700, []int{0, -1})
	idx := New(cluster, 0.5, 0)
	for j := 0; j < 3; j++ {
		runJob(t, cluster, file, idx)
	}
	want := idx.Replicas()
	if len(want) == 0 {
		t.Fatal("three adaptive jobs built nothing")
	}
	touched := false
	for _, r := range want {
		touched = touched || r.Touches > 1
	}
	if !touched {
		t.Fatal("no adaptive replica was index-scanned after its build: the heat is not exercised")
	}
	dir := t.TempDir()
	if err := cluster.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := hdfs.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	again := New(loaded, 0.5, 0)
	if got := again.Replicas(); !slices.Equal(got, want) {
		t.Fatalf("registry after save and load:\n%+v\nwant\n%+v", got, want)
	}
	if got, want := again.ExtraBytes(), idx.ExtraBytes(); got != want {
		t.Errorf("ExtraBytes after save and load = %d, want %d", got, want)
	}
	var hottest uint64
	for _, r := range want {
		hottest = max(hottest, r.LastTouch)
	}
	again.mu.Lock()
	clock := again.clock
	again.mu.Unlock()
	if clock != hottest {
		t.Errorf("clock = %d, want %d (hottest saved stamp)", clock, hottest)
	}
}

// TestNewKeepsSavedStamps: records the directory holds are adopted with
// their logical stamps as saved, however long ago that was, and the heat
// clock fast-forwards to the hottest of them.
func TestNewKeepsSavedStamps(t *testing.T) {
	// Replica 1 of each block is indexed on column 2.
	cluster, file := upload(t, 4, 700, []int{0, 2})
	nn := cluster.NameNode()
	blocks, err := nn.FileBlocks(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 3 {
		t.Fatalf("need ≥3 blocks, got %d", len(blocks))
	}
	want := map[hdfs.BlockID]uint64{}
	for n, last := range []uint64{10, 5, 3} {
		b := blocks[n]
		host := indexedHost(t, cluster, b, 2)
		info, _ := nn.ReplicaInfo(b, host)
		info.Adaptive = &hdfs.AdaptiveRecord{File: file, Charged: 100, Added: true, Touches: int(last), LastTouch: last}
		if err := nn.UpdateReplica(b, host, info); err != nil {
			t.Fatal(err)
		}
		want[b] = last
	}

	idx := New(cluster, 0, 0)
	reps := idx.Replicas()
	if len(reps) != 3 {
		t.Fatalf("adopted %d, want 3", len(reps))
	}
	for _, r := range reps {
		if r.LastTouch != want[r.Block] || r.Touches != int(want[r.Block]) {
			t.Errorf("block %d: adopted LastTouch %d, Touches %d; want both %d as saved", r.Block, r.LastTouch, r.Touches, want[r.Block])
		}
	}
	if got := idx.ExtraBytes(); got != 300 {
		t.Errorf("ExtraBytes = %d, want the three charges, 300", got)
	}
	idx.mu.Lock()
	clock := idx.clock
	idx.mu.Unlock()
	if clock != 10 {
		t.Errorf("clock = %d, want 10 (hottest saved stamp)", clock)
	}
}

// TestEvictionRanksByLogicalTouch: among alive candidates the victim is
// the replica touched by the oldest job, and between equally cold ones the
// column fewer jobs missed goes first.
func TestEvictionRanksByLogicalTouch(t *testing.T) {
	cluster, file := upload(t, 4, 700, []int{0, -1})
	blocks, err := cluster.NameNode().FileBlocks(file)
	if err != nil || len(blocks) < 2 {
		t.Fatalf("blocks: %v err %v", blocks, err)
	}
	victim := func(stamps [2]uint64, misses [2]int) hdfs.BlockID {
		t.Helper()
		idx := New(cluster, 0, 0)
		idx.mu.Lock()
		defer idx.mu.Unlock()
		idx.clock = 20
		for n, b := range blocks[:2] {
			col := 5 + n
			idx.replicas[repID{b, col}] = &replicaRecord{
				file: file, col: col, block: b, node: 3, charged: 100, added: true,
				lastTouch: stamps[n], touches: 1,
			}
			idx.misses[planKey{file, col}] = misses[n]
		}
		idx.extra = 200
		victims := idx.selectVictimsLocked(planKey{file, 9}, 100)
		if len(victims) != 1 {
			t.Fatalf("selected %d victims, want 1", len(victims))
		}
		return victims[0].block
	}
	if got := victim([2]uint64{10, 5}, [2]int{0, 9}); got != blocks[1] {
		t.Errorf("victim = block %d, want block %d, touched by the older job", got, blocks[1])
	}
	if got := victim([2]uint64{7, 7}, [2]int{9, 2}); got != blocks[1] {
		t.Errorf("victim = block %d, want block %d, whose column missed less", got, blocks[1])
	}
}
