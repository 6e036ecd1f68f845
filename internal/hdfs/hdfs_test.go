package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func randBlock(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestBuildPacketsFraming(t *testing.T) {
	payload := ChunksPerPacket * ChunkSize
	cases := []struct {
		size    int
		packets int
	}{
		{0, 1},
		{1, 1},
		{ChunkSize, 1},
		{payload, 1},
		{payload + 1, 2},
		{3*payload + 17, 4},
	}
	for _, c := range cases {
		pkts := BuildPackets(randBlock(c.size, int64(c.size)))
		if len(pkts) != c.packets {
			t.Errorf("size %d: %d packets, want %d", c.size, len(pkts), c.packets)
		}
		if !pkts[len(pkts)-1].Last {
			t.Errorf("size %d: last packet not marked", c.size)
		}
		for i, p := range pkts {
			if p.Seq != i {
				t.Errorf("size %d: packet %d has seq %d", c.size, i, p.Seq)
			}
			wantChunks := (len(p.Data) + ChunkSize - 1) / ChunkSize
			if p.NumChunks() != wantChunks {
				t.Errorf("size %d packet %d: %d sums for %d chunks", c.size, i, p.NumChunks(), wantChunks)
			}
		}
	}
}

func TestPacketVerifyDetectsCorruption(t *testing.T) {
	pkts := BuildPackets(randBlock(5000, 1))
	if err := pkts[0].Verify(); err != nil {
		t.Fatalf("clean packet failed verify: %v", err)
	}
	pkts[0].Data[100] ^= 0x40
	if err := pkts[0].Verify(); err == nil {
		t.Error("corrupted packet passed verify")
	}
}

func TestReassembleRoundTrip(t *testing.T) {
	f := func(seed int64, kb uint8) bool {
		data := randBlock(int(kb)*1024+int(seed%512+512)%512, seed)
		got, err := Reassemble(nil, BuildPackets(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestReassembleRejectsDisorder(t *testing.T) {
	pkts := BuildPackets(randBlock(3*ChunksPerPacket*ChunkSize, 2))
	swapped := []Packet{pkts[1], pkts[0], pkts[2]}
	if _, err := Reassemble(nil, swapped); err == nil {
		t.Error("out-of-order packets reassembled")
	}
	if _, err := Reassemble(nil, nil); err == nil {
		t.Error("empty packet list reassembled")
	}
}

func TestVerifyStoredSingleBitCorruption(t *testing.T) {
	// Property: any single-bit flip anywhere in the block is caught.
	data := randBlock(4*ChunkSize+123, 3)
	sums := checksumChunks(data)
	if err := VerifyStored(data, sums); err != nil {
		t.Fatalf("clean block failed: %v", err)
	}
	f := func(pos uint16, bit uint8) bool {
		p := int(pos) % len(data)
		corrupt := append([]byte(nil), data...)
		corrupt[p] ^= 1 << (bit % 8)
		return VerifyStored(corrupt, sums) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestClusterWriteReadHDFSMode(t *testing.T) {
	c, err := NewCluster(5)
	if err != nil {
		t.Fatal(err)
	}
	data := randBlock(200_000, 4)
	id, stats, err := c.WriteBlock("/logs/uv", data, 3, nil)
	if err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	if !stats.AcksInOrder {
		t.Error("ACKs out of order")
	}
	if stats.TailVerified != stats.Packets {
		t.Errorf("tail verified %d of %d packets", stats.TailVerified, stats.Packets)
	}
	if len(stats.PipelineNodes) != 3 {
		t.Fatalf("pipeline has %d nodes", len(stats.PipelineNodes))
	}
	// All replicas byte-identical in HDFS mode.
	for _, node := range stats.PipelineNodes {
		got, err := c.ReadBlockFrom(node, id)
		if err != nil {
			t.Fatalf("read from %d: %v", node, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("replica on node %d differs from original", node)
		}
	}
	if n := c.NameNode().ReplicaCount(id); n != 3 {
		t.Errorf("namenode has %d replicas, want 3", n)
	}
	blocks, err := c.NameNode().FileBlocks("/logs/uv")
	if err != nil || len(blocks) != 1 || blocks[0] != id {
		t.Errorf("FileBlocks = %v, %v", blocks, err)
	}
}

func TestClusterHAILModeTransformPerReplica(t *testing.T) {
	c, _ := NewCluster(4)
	data := randBlock(50_000, 5)
	// Transform stamps each replica with its pipeline position, modelling
	// per-replica sort orders: replicas differ, sizes differ.
	transform := func(pos int, node NodeID, block []byte) ([]byte, ReplicaInfo, error) {
		out := append([]byte{byte(pos)}, block...)
		out = append(out, make([]byte, pos*100)...)
		return out, ReplicaInfo{SortColumn: pos, HasIndex: true, IndexSize: 64}, nil
	}
	id, stats, err := c.WriteBlock("/f", data, 3, transform)
	if err != nil {
		t.Fatalf("WriteBlock: %v", err)
	}
	sizes := map[int]bool{}
	for pos, node := range stats.PipelineNodes {
		got, err := c.ReadBlockFrom(node, id)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if got[0] != byte(pos) {
			t.Errorf("replica at position %d stamped %d", pos, got[0])
		}
		sizes[len(got)] = true
		info, ok := c.NameNode().ReplicaInfo(id, node)
		if !ok {
			t.Fatalf("no Dir_rep entry for node %d", node)
		}
		if info.SortColumn != pos || !info.HasIndex || info.Size != len(got) {
			t.Errorf("Dir_rep entry wrong: %+v", info)
		}
	}
	if len(sizes) != 3 {
		t.Errorf("expected 3 distinct replica sizes, got %d", len(sizes))
	}
}

// TestHDFSModeKeepsNoCallerBytes pins the one copy HDFS mode makes: the
// caller may reuse its buffer as soon as WriteBlock returns (the HAIL
// client does, block after block), so the replicas — which share that one
// copy — must not alias it, and corrupting one of them must leave its
// siblings verifying.
func TestHDFSModeKeepsNoCallerBytes(t *testing.T) {
	c, _ := NewCluster(4)
	data := randBlock(3*ChunksPerPacket*ChunkSize+77, 12)
	want := bytes.Clone(data)
	id, stats, err := c.WriteBlock("/f", data, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = ^data[i]
	}
	for _, node := range stats.PipelineNodes {
		got, err := c.ReadBlockFrom(node, id)
		if err != nil {
			t.Fatalf("node %d after the caller reused its buffer: %v", node, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("node %d stores the caller's buffer, not a copy of it", node)
		}
	}
	victim, _ := c.DataNode(stats.PipelineNodes[0])
	if err := victim.CorruptByte(id, 1000); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadBlockFrom(victim.ID(), id); !errors.Is(err, ErrCorruptChunk) {
		t.Fatalf("corrupted replica read: %v", err)
	}
	for _, node := range stats.PipelineNodes[1:] {
		if got, err := c.ReadBlockFrom(node, id); err != nil || !bytes.Equal(got, want) {
			t.Errorf("corrupting node %d's replica reached its sibling on node %d (%v)", victim.ID(), node, err)
		}
	}
}

// TestHAILModeStoresWhatTheTransformReturns pins the two ownership rules of
// the HAIL pipeline: the block is reassembled once, so every position's
// transform reads the same bytes, and the datanode keeps the slice its
// transform returned instead of copying it.
func TestHAILModeStoresWhatTheTransformReturns(t *testing.T) {
	c, _ := NewCluster(4)
	data := randBlock(2*ChunksPerPacket*ChunkSize+5, 13)
	// Transforms run concurrently: each records into its own position. The
	// block's bytes are compared while the transform runs: once they have
	// all returned, its buffer may be recycled.
	seen, returned := make([][]byte, 3), make([][]byte, 3)
	same := make([]bool, 3)
	transform := func(pos int, node NodeID, block []byte) ([]byte, ReplicaInfo, error) {
		seen[pos], same[pos] = block, bytes.Equal(block, data)
		out := append([]byte{byte(pos)}, block...)
		returned[pos] = out
		return out, ReplicaInfo{SortColumn: pos}, nil
	}
	id, stats, err := c.WriteBlock("/f", data, 3, transform)
	if err != nil {
		t.Fatal(err)
	}
	for pos, node := range stats.PipelineNodes {
		if !same[pos] {
			t.Fatalf("position %d's transform read other bytes than the block", pos)
		}
		if &seen[pos][0] != &seen[0][0] {
			t.Errorf("position %d's transform read its own reassembly of the block", pos)
		}
		if &seen[pos][0] == &data[0] {
			t.Errorf("position %d's transform read the caller's buffer", pos)
		}
		dn, _ := c.DataNode(node)
		dn.mu.RLock()
		stored := dn.replicas[id].data
		dn.mu.RUnlock()
		if &stored[0] != &returned[pos][0] || len(stored) != len(returned[pos]) {
			t.Errorf("node %d stores a copy of what its transform returned", node)
		}
	}
}

func TestGetHostsWithIndex(t *testing.T) {
	c, _ := NewCluster(5)
	transform := func(pos int, node NodeID, block []byte) ([]byte, ReplicaInfo, error) {
		return block, ReplicaInfo{SortColumn: pos, HasIndex: true}, nil
	}
	id, stats, err := c.WriteBlock("/f", randBlock(10_000, 6), 3, transform)
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < 3; pos++ {
		hosts := c.NameNode().GetHostsWithIndex(id, pos)
		if len(hosts) != 1 || hosts[0] != stats.PipelineNodes[pos] {
			t.Errorf("GetHostsWithIndex(%d) = %v, want [%d]", pos, hosts, stats.PipelineNodes[pos])
		}
	}
	if hosts := c.NameNode().GetHostsWithIndex(id, 99); len(hosts) != 0 {
		t.Errorf("GetHostsWithIndex(99) = %v, want none", hosts)
	}
	if got := c.NameNode().GetHosts(id); len(got) != 3 {
		t.Errorf("GetHosts = %v", got)
	}
}

// TestTransformErrorFailsUpload: a transform failing at any position fails
// the upload and leaves nothing behind — no datanode stores the block, the
// namenode lists no holder for it, and the file does not get it. Every
// position's error is checked before the first flush.
func TestTransformErrorFailsUpload(t *testing.T) {
	c, _ := NewCluster(3)
	transform := func(pos int, node NodeID, block []byte) ([]byte, ReplicaInfo, error) {
		if pos == 1 {
			return nil, ReplicaInfo{}, fmt.Errorf("boom")
		}
		return block, ReplicaInfo{}, nil
	}
	if _, _, err := c.WriteBlock("/f", randBlock(1000, 7), 3, transform); err == nil {
		t.Error("upload with failing transform succeeded")
	}
	const failed = BlockID(0) // the cluster's first block
	for n := 0; n < c.NumNodes(); n++ {
		if dn, _ := c.DataNode(NodeID(n)); dn.HasReplica(failed) {
			t.Errorf("node %d stores a replica of the failed block", n)
		}
	}
	if hosts := c.NameNode().GetHosts(failed); len(hosts) != 0 {
		t.Errorf("GetHosts of the failed block = %v, want none", hosts)
	}
	if blocks, _ := c.NameNode().FileBlocks("/f"); len(blocks) != 0 {
		t.Errorf("file lists blocks %v after its only upload failed", blocks)
	}
}

// TestWriteBlockRunsTransformsConcurrently: every datanode builds its
// replica on its own machine (§3.2 step 7), so no position's transform may
// wait for another's to finish. Each transform here returns only once all
// three have entered; a pipeline that ran them one after another would
// never get past the first.
func TestWriteBlockRunsTransformsConcurrently(t *testing.T) {
	c, _ := NewCluster(3)
	const replication = 3
	var entered sync.WaitGroup
	entered.Add(replication)
	all := make(chan struct{})
	go func() {
		entered.Wait()
		close(all)
	}()
	transform := func(pos int, node NodeID, block []byte) ([]byte, ReplicaInfo, error) {
		entered.Done()
		select {
		case <-all:
			return block, ReplicaInfo{SortColumn: pos}, nil
		case <-time.After(5 * time.Second):
			return nil, ReplicaInfo{}, fmt.Errorf("position %d: the other transforms never started", pos)
		}
	}
	id, stats, err := c.WriteBlock("/f", randBlock(10_000, 14), replication, transform)
	if err != nil {
		t.Fatal(err)
	}
	// Registration still follows the pipeline, as a serial one leaves it.
	if hosts := c.NameNode().GetHosts(id); !slices.Equal(hosts, stats.PipelineNodes) {
		t.Errorf("GetHosts = %v, want the pipeline %v", hosts, stats.PipelineNodes)
	}
}

func TestCorruptReplicaDetectedOnRead(t *testing.T) {
	c, _ := NewCluster(3)
	id, stats, err := c.WriteBlock("/f", randBlock(100_000, 8), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := stats.PipelineNodes[1]
	dn, _ := c.DataNode(victim)
	if err := dn.CorruptByte(id, 31337); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadBlockFrom(victim, id); err == nil {
		t.Error("read of corrupted replica succeeded")
	}
	// ReadBlockAny must fail over to a clean replica.
	data, node, err := c.ReadBlockAny(id, victim)
	if err != nil {
		t.Fatalf("ReadBlockAny: %v", err)
	}
	if node == victim {
		t.Error("ReadBlockAny returned the corrupted replica's node")
	}
	if len(data) != 100_000 {
		t.Errorf("got %d bytes", len(data))
	}
}

func TestKilledNodeFailover(t *testing.T) {
	c, _ := NewCluster(4)
	id, stats, err := c.WriteBlock("/f", randBlock(20_000, 9), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	dead := stats.PipelineNodes[0]
	if err := c.KillNode(dead); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadBlockFrom(dead, id); err == nil {
		t.Error("read from dead node succeeded")
	}
	if _, node, err := c.ReadBlockAny(id, dead); err != nil || node == dead {
		t.Errorf("failover read: node=%d err=%v", node, err)
	}
	if got := len(c.AliveNodes()); got != 3 {
		t.Errorf("AliveNodes = %d, want 3", got)
	}
	// Uploads must avoid the dead node.
	for i := 0; i < 5; i++ {
		_, st, err := c.WriteBlock("/g", randBlock(1000, int64(10+i)), 3, nil)
		if err != nil {
			t.Fatalf("upload after kill: %v", err)
		}
		for _, n := range st.PipelineNodes {
			if n == dead {
				t.Error("pipeline includes dead node")
			}
		}
	}
	// Revive and confirm reads work again.
	dn, _ := c.DataNode(dead)
	dn.Revive()
	if _, err := c.ReadBlockFrom(dead, id); err != nil {
		t.Errorf("read after revive: %v", err)
	}
}

func TestInsufficientAliveNodes(t *testing.T) {
	c, _ := NewCluster(3)
	c.KillNode(0)
	if _, _, err := c.WriteBlock("/f", randBlock(100, 11), 3, nil); err == nil {
		t.Error("upload with 2 alive nodes at replication 3 succeeded")
	}
}

func TestRoundRobinPlacementBalance(t *testing.T) {
	c, _ := NewCluster(10)
	counts := make(map[NodeID]int)
	for i := 0; i < 100; i++ {
		_, stats, err := c.WriteBlock("/f", randBlock(256, int64(i)), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range stats.PipelineNodes {
			counts[n]++
		}
	}
	// 100 blocks × 3 replicas over 10 nodes = 30 per node exactly with
	// round-robin placement.
	for n, got := range counts {
		if got != 30 {
			t.Errorf("node %d stores %d replicas, want 30", n, got)
		}
	}
}

func TestHigherReplicationFactors(t *testing.T) {
	// Figure 4(c) uses replication factors up to 10.
	c, _ := NewCluster(10)
	for _, r := range []int{1, 3, 5, 6, 7, 10} {
		id, stats, err := c.WriteBlock(fmt.Sprintf("/r%d", r), randBlock(5000, int64(r)), r, nil)
		if err != nil {
			t.Fatalf("replication %d: %v", r, err)
		}
		if len(stats.PipelineNodes) != r || c.NameNode().ReplicaCount(id) != r {
			t.Errorf("replication %d: pipeline %d, replicas %d", r, len(stats.PipelineNodes), c.NameNode().ReplicaCount(id))
		}
	}
}

func TestUploadStatsLinkBytes(t *testing.T) {
	c, _ := NewCluster(3)
	data := randBlock(100_000, 12)
	_, stats, err := c.WriteBlock("/f", data, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Every packet crosses 3 links; link bytes must cover 3× the data
	// plus checksum overhead.
	if stats.LinkBytes < 3*int64(len(data)) {
		t.Errorf("LinkBytes = %d, want >= %d", stats.LinkBytes, 3*len(data))
	}
	overhead := float64(stats.LinkBytes) / float64(3*len(data))
	if overhead > 1.02 {
		t.Errorf("checksum overhead %.3f too large", overhead)
	}
}

func TestNameNodeFileOps(t *testing.T) {
	nn := NewNameNode()
	if _, err := nn.FileBlocks("/missing"); err == nil {
		t.Error("FileBlocks on missing file succeeded")
	}
	nn.AddBlock("/b", 1)
	nn.AddBlock("/a", 2)
	nn.AddBlock("/b", 3)
	if files := nn.Files(); len(files) != 2 || files[0] != "/a" || files[1] != "/b" {
		t.Errorf("Files = %v", files)
	}
	bs, err := nn.FileBlocks("/b")
	if err != nil || len(bs) != 2 || bs[0] != 1 || bs[1] != 3 {
		t.Errorf("FileBlocks(/b) = %v, %v", bs, err)
	}
}

// TestExtremeBlockIDs: every BlockID is a directory key. Block ids are
// read back from manifest.json, so the namenode must not assume they are
// the small non-negative numbers WriteBlock hands out.
func TestExtremeBlockIDs(t *testing.T) {
	nn := NewNameNode()
	for _, b := range []BlockID{math.MinInt64, -1, math.MaxInt64} {
		nn.RegisterReplica(b, 3, ReplicaInfo{Size: 7, SortColumn: -1})
		if hosts := nn.GetHosts(b); len(hosts) != 1 || hosts[0] != 3 {
			t.Errorf("block %d: GetHosts = %v, want [3]", b, hosts)
		}
		if info, ok := nn.ReplicaInfo(b, 3); !ok || info.Size != 7 {
			t.Errorf("block %d: ReplicaInfo = %+v, %v", b, info, ok)
		}
		if g := nn.Generation(b); g != 1 {
			t.Errorf("block %d: generation %d, want 1", b, g)
		}
	}
}

func TestDataNodeDoubleFlushRejected(t *testing.T) {
	dn := NewDataNode(0)
	data := randBlock(1000, 13)
	if err := dn.flush(7, data, checksumChunks(data)); err != nil {
		t.Fatal(err)
	}
	if err := dn.flush(7, data, checksumChunks(data)); err == nil {
		t.Error("double flush of same block accepted")
	}
}

func TestEmptyBlockUpload(t *testing.T) {
	c, _ := NewCluster(3)
	id, stats, err := c.WriteBlock("/empty", nil, 3, nil)
	if err != nil {
		t.Fatalf("empty block upload: %v", err)
	}
	if stats.Packets != 1 {
		t.Errorf("empty block framed as %d packets, want 1", stats.Packets)
	}
	got, _, err := c.ReadBlockAny(id, 0)
	if err != nil || len(got) != 0 {
		t.Errorf("empty block read: %v bytes, %v", len(got), err)
	}
}

// TestBlockGenerations: every replica-topology change a reader could
// observe bumps the block's generation and fires the change hook — the
// result cache's invalidation contract.
func TestBlockGenerations(t *testing.T) {
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c.WriteBlock("/f", randBlock(9_000, 1), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	nn := c.NameNode()
	g0 := nn.Generation(id)
	if g0 == 0 {
		t.Error("upload registered replicas without bumping the generation")
	}

	var fired []BlockID
	nn.SetReplicaChangeHook(func(b BlockID) { fired = append(fired, b) })

	// In-place reorganization.
	node := nn.GetHosts(id)[0]
	if err := c.ReplaceReplica(id, node, randBlock(9_000, 2), ReplicaInfo{SortColumn: 1, HasIndex: true}); err != nil {
		t.Fatal(err)
	}
	if g := nn.Generation(id); g != g0+1 {
		t.Errorf("ReplaceReplica: generation %d, want %d", g, g0+1)
	}

	// Additional replica on a free node.
	var free NodeID = -1
	holders := make(map[NodeID]bool)
	for _, h := range nn.GetHosts(id) {
		holders[h] = true
	}
	for _, n := range c.AliveNodes() {
		if !holders[n] {
			free = n
			break
		}
	}
	if err := c.StoreAdditionalReplica(id, free, randBlock(9_000, 3), ReplicaInfo{SortColumn: 2, HasIndex: true}); err != nil {
		t.Fatal(err)
	}
	if g := nn.Generation(id); g != g0+2 {
		t.Errorf("StoreAdditionalReplica: generation %d, want %d", g, g0+2)
	}

	// Node loss and return both invalidate the node's blocks.
	if err := c.KillNode(node); err != nil {
		t.Fatal(err)
	}
	if g := nn.Generation(id); g != g0+3 {
		t.Errorf("KillNode: generation %d, want %d", g, g0+3)
	}
	if err := c.ReviveNode(node); err != nil {
		t.Fatal(err)
	}
	if g := nn.Generation(id); g != g0+4 {
		t.Errorf("ReviveNode: generation %d, want %d", g, g0+4)
	}

	if len(fired) != 4 {
		t.Errorf("change hook fired %d times (%v), want 4", len(fired), fired)
	}
	for _, b := range fired {
		if b != id {
			t.Errorf("change hook fired for block %d, want %d", b, id)
		}
	}
}

// TestDropReplica: dropping a replica unregisters it from the directory,
// deletes the stored bytes, bumps the block's generation and fires the
// change hook exactly once — the contract adaptive eviction and the
// result cache's purge path build on.
func TestDropReplica(t *testing.T) {
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c.WriteBlock("/f", randBlock(9_000, 1), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	nn := c.NameNode()
	victim := nn.GetHosts(id)[1]
	g0 := nn.Generation(id)
	var fired []BlockID
	nn.SetReplicaChangeHook(func(b BlockID) { fired = append(fired, b) })

	if err := c.DropReplica(id, victim); err != nil {
		t.Fatal(err)
	}
	for _, h := range nn.GetHosts(id) {
		if h == victim {
			t.Errorf("dropped node %d still listed in Dir_block", victim)
		}
	}
	if _, ok := nn.ReplicaInfo(id, victim); ok {
		t.Errorf("dropped replica (%d,%d) still in Dir_rep", id, victim)
	}
	if n := nn.ReplicaCount(id); n != 2 {
		t.Errorf("replica count %d after drop, want 2", n)
	}
	dn, _ := c.DataNode(victim)
	if dn.HasReplica(id) {
		t.Errorf("node %d still stores block %d after drop", victim, id)
	}
	if g := nn.Generation(id); g != g0+1 {
		t.Errorf("generation %d after drop, want %d", g, g0+1)
	}
	if len(fired) != 1 || fired[0] != id {
		t.Errorf("change hook fired %v, want exactly once for block %d", fired, id)
	}

	// The block stays readable from the surviving replicas.
	if _, _, err := c.ReadBlockAny(id, victim); err != nil {
		t.Fatalf("block unreadable after dropping one of three replicas: %v", err)
	}
	// Dropping an unregistered replica refuses.
	if err := c.DropReplica(id, victim); err == nil {
		t.Error("double drop succeeded, want error")
	}
	// The freed node can hold a fresh replica again (no ghost bytes).
	if err := c.StoreAdditionalReplica(id, victim, randBlock(9_000, 2), ReplicaInfo{SortColumn: 1, HasIndex: true}); err != nil {
		t.Fatalf("re-store on dropped node: %v", err)
	}
}

// TestSecondStoreIsReplicaExists: a second store of one (block, node),
// the loser of a placement race, sees ErrReplicaExists, the collision the
// adaptive indexer re-picks around; of many concurrent stores, one wins.
func TestSecondStoreIsReplicaExists(t *testing.T) {
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	const b = BlockID(7)
	dn, _ := c.DataNode(2)
	data := randBlock(3_000, 1)
	if err := c.storeReplica(dn, b, data, checksumChunks(data), ReplicaInfo{SortColumn: -1}); err != nil {
		t.Fatal(err)
	}
	if err := c.storeReplica(dn, b, data, checksumChunks(data), ReplicaInfo{SortColumn: -1}); !errors.Is(err, ErrReplicaExists) {
		t.Errorf("second storeReplica: err = %v, want ErrReplicaExists", err)
	}

	const racers = 8
	errs := make([]error, racers)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = c.StoreAdditionalReplica(b+1, 2, randBlock(3_000, int64(i)), ReplicaInfo{SortColumn: -1})
		}()
	}
	wg.Wait()
	won := 0
	for _, err := range errs {
		switch {
		case err == nil:
			won++
		case !errors.Is(err, ErrReplicaExists):
			t.Errorf("losing store: err = %v, want ErrReplicaExists", err)
		}
	}
	if won != 1 {
		t.Errorf("%d of %d concurrent stores won, want exactly 1", won, racers)
	}
}

// TestDropReplicaDeadNode: a dead node's replica can still be dropped from
// the directory — its disk is unreachable, so the bytes linger as a ghost
// — and a post-revival store collides with ErrReplicaExists, the benign
// race the adaptive indexer re-picks around.
func TestDropReplicaDeadNode(t *testing.T) {
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c.WriteBlock("/f", randBlock(6_000, 1), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	nn := c.NameNode()
	victim := nn.GetHosts(id)[0]
	if err := c.KillNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.DropReplica(id, victim); err != nil {
		t.Fatalf("drop on dead node: %v", err)
	}
	if _, ok := nn.ReplicaInfo(id, victim); ok {
		t.Error("dead node's dropped replica still in Dir_rep")
	}
	if err := c.ReviveNode(victim); err != nil {
		t.Fatal(err)
	}
	// The ghost bytes survive on the revived node's disk...
	dn, _ := c.DataNode(victim)
	if !dn.HasReplica(id) {
		t.Fatal("expected ghost bytes on the revived node")
	}
	// ...so a store collides with the typed sentinel.
	err = c.StoreAdditionalReplica(id, victim, randBlock(6_000, 2), ReplicaInfo{SortColumn: -1})
	if !errors.Is(err, ErrReplicaExists) {
		t.Errorf("store over ghost bytes returned %v, want ErrReplicaExists", err)
	}
}

// TestReplicaInfoAllocatesOnlyForAdaptive: looking up an upload's replica
// allocates nothing; only an adaptive replica's record is copied out.
func TestReplicaInfoAllocatesOnlyForAdaptive(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	id, stats, err := c.WriteBlock("/f", randBlock(1_000, 1), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain := stats.PipelineNodes[0]
	extra := NodeID(1 - plain)
	rec := &AdaptiveRecord{File: "/f", Charged: 1_000, Added: true, Touches: 1, LastTouch: 1}
	if err := c.StoreAdditionalReplica(id, extra, randBlock(1_000, 2), ReplicaInfo{SortColumn: 1, HasIndex: true, Adaptive: rec}); err != nil {
		t.Fatal(err)
	}
	nn := c.NameNode()
	if n := testing.AllocsPerRun(100, func() { _, _ = nn.ReplicaInfo(id, plain) }); n != 0 {
		t.Errorf("ReplicaInfo of an upload's replica: %v allocations, want 0", n)
	}
	if info, _ := nn.ReplicaInfo(id, extra); info.Adaptive == nil || *info.Adaptive != *rec || info.Adaptive == rec {
		t.Errorf("ReplicaInfo of the adaptive replica: record %+v, want a copy of %+v", info.Adaptive, *rec)
	}
}

// TestReceiveBufferOutlivesIdentityReplicas pins the receive buffer's
// rule: a block a transform returns as is is stored, so its buffer is
// never reassembled into again. An identity transform writes blocks of
// distinct content one after another, between writes whose copying
// transform lets the buffer be recycled; after the last write every
// replica still holds its own bytes under its own checksums. A transform
// failing at position 2 leaves no replica, and the next write succeeds.
func TestReceiveBufferOutlivesIdentityReplicas(t *testing.T) {
	c, _ := NewCluster(4)
	identity := func(_ int, _ NodeID, block []byte) ([]byte, ReplicaInfo, error) {
		return block, ReplicaInfo{SortColumn: -1}, nil
	}
	copying := func(_ int, _ NodeID, block []byte) ([]byte, ReplicaInfo, error) {
		return bytes.Clone(block), ReplicaInfo{SortColumn: -1}, nil
	}
	failAt2 := func(pos int, _ NodeID, block []byte) ([]byte, ReplicaInfo, error) {
		if pos == 2 {
			return nil, ReplicaInfo{}, fmt.Errorf("boom")
		}
		return block, ReplicaInfo{SortColumn: -1}, nil
	}
	want := map[BlockID][]byte{}
	for i := range 6 {
		data := randBlock(40_000+i*1_000, int64(100+i))
		transform := identity
		if i%2 == 1 {
			transform = copying
		}
		id, _, err := c.WriteBlock("/f", data, 3, transform)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = data
		if i == 3 {
			if _, _, err := c.WriteBlock("/f", randBlock(30_000, 99), 3, failAt2); err == nil {
				t.Fatal("write whose transform fails at position 2 succeeded")
			}
		}
	}
	for n := range c.NumNodes() {
		dn, _ := c.DataNode(NodeID(n))
		dn.mu.RLock()
		held := len(dn.replicas)
		dn.mu.RUnlock()
		for id := range want {
			if dn.HasReplica(id) {
				held--
			}
		}
		if held != 0 {
			t.Errorf("node %d holds %d replica(s) of no successful write", n, held)
		}
	}
	for id, data := range want {
		hosts := c.NameNode().GetHosts(id)
		if len(hosts) != 3 {
			t.Fatalf("block %d has %d holders, want 3", id, len(hosts))
		}
		for _, node := range hosts {
			got, err := c.ReadBlockFrom(node, id)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("block %d on node %d does not read back its own bytes (%v)", id, node, err)
			}
			dn, _ := c.DataNode(node)
			dn.mu.RLock()
			r := dn.replicas[id]
			dn.mu.RUnlock()
			if err := VerifyStored(r.data, r.sums); err != nil {
				t.Errorf("block %d on node %d: %v", id, node, err)
			}
		}
	}
	if _, _, err := c.WriteBlock("/f", randBlock(20_000, 7), 3, identity); err != nil {
		t.Errorf("write after the failed one: %v", err)
	}
}

// TestSharesArray: the recycling check sees every way two slices can
// share a backing array, and only those.
func TestSharesArray(t *testing.T) {
	buf := make([]byte, 100, 128)
	other := make([]byte, 100)
	for _, tc := range []struct {
		name string
		a    []byte
		want bool
	}{
		{"the buffer itself", buf, true},
		{"a prefix", buf[:10], true},
		{"a clipped middle", buf[40:50:60], true},
		{"the spare capacity", buf[100:110], true},
		{"an empty slice of it", buf[:0], true},
		{"another array", other, false},
		{"a copy", bytes.Clone(buf), false},
		{"nil", nil, false},
	} {
		if got := sharesArray(tc.a, buf); got != tc.want {
			t.Errorf("%s: sharesArray = %v, want %v", tc.name, got, tc.want)
		}
		if got := sharesArray(buf, tc.a); got != tc.want {
			t.Errorf("%s, swapped: sharesArray = %v, want %v", tc.name, got, tc.want)
		}
	}
}
