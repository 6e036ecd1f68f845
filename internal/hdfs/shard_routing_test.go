package hdfs

import (
	"math"
	"testing"
)

// TestBlockRoutingTotal: every BlockID has a shard. Block ids are read
// back from manifest.json, so the routing must not assume they are the
// small non-negative numbers WriteBlock hands out.
func TestBlockRoutingTotal(t *testing.T) {
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

// TestBlockRoutingEven: consecutive block ids — what a file's blocks are —
// take the shards in turn, so a file of any size spreads over all of them
// and no shard holds more than its fair share plus one.
func TestBlockRoutingEven(t *testing.T) {
	nn := NewNameNode()
	first := make(map[*dirShard]bool)
	for b := BlockID(0); b < numShards; b++ {
		first[nn.blockShard(b)] = true
	}
	if len(first) != numShards {
		t.Fatalf("blocks 0..%d landed on %d distinct shards, want %d", numShards-1, len(first), numShards)
	}

	const blocks = 10_000
	for b := BlockID(0); b < blocks; b++ {
		nn.RegisterReplica(b, 0, ReplicaInfo{SortColumn: -1})
	}
	fair := blocks / numShards
	for i, s := range nn.shards {
		if n := len(s.blocks); n < fair-1 || n > fair+1 {
			t.Errorf("shard %d holds %d of %d blocks, want %d±1", i, n, blocks, fair)
		}
	}
}
