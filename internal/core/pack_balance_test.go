package core

import (
	"reflect"
	"testing"

	"repro/internal/hdfs"
)

// skewedFixture registers nBlocks blocks whose replica lists all lead
// with node 0 — the placement skew packScanSplits must balance away —
// with two backup replicas spread over nodes 1..nodes-1.
func skewedFixture(t *testing.T, nodes, nBlocks int) (*hdfs.Cluster, []hdfs.BlockID) {
	t.Helper()
	cluster, err := hdfs.NewCluster(nodes)
	if err != nil {
		t.Fatal(err)
	}
	nn := cluster.NameNode()
	blocks := make([]hdfs.BlockID, 0, nBlocks)
	for b := 0; b < nBlocks; b++ {
		id := hdfs.BlockID(b)
		nn.RegisterReplica(id, 0, hdfs.ReplicaInfo{})
		nn.RegisterReplica(id, hdfs.NodeID(1+b%(nodes-1)), hdfs.ReplicaInfo{})
		nn.RegisterReplica(id, hdfs.NodeID(1+(b+3)%(nodes-1)), hdfs.ReplicaInfo{})
		blocks = append(blocks, id)
	}
	return cluster, blocks
}

// TestPackScanSplitsBalanceSkewedPlacement: with every replica list headed
// by node 0, the unbalanced policy would pack all blocks onto node 0.
// Balanced packing caps each node at its fair share and spills the
// overflow to next-preferred alive replicas, preserving exactly-once
// coverage and valid pins.
func TestPackScanSplitsBalanceSkewedPlacement(t *testing.T) {
	const nodes, nBlocks = 8, 32
	cluster, blocks := skewedFixture(t, nodes, nBlocks)
	f := &InputFormat{Cluster: cluster, PackScans: true, SplitsPerNode: 2}
	splits := (&splitPlanner{InputFormat: f}).packScanSplits(blocks)
	assertCoverage(t, splits, blocks)
	assertAliveLocations(t, cluster, splits)

	nn := cluster.NameNode()
	perNode := map[hdfs.NodeID]int{}
	for _, s := range splits {
		for i, b := range s.Blocks {
			pin := s.Pin(i)
			perNode[pin]++
			holder := false
			for _, h := range nn.GetHosts(b) {
				if h == pin {
					holder = true
					break
				}
			}
			if !holder {
				t.Errorf("block %d pinned to node %d, which holds no replica", b, pin)
			}
		}
	}
	share := (nBlocks + nodes - 1) / nodes // 4
	busiest, busiestNode := 0, hdfs.NodeID(-1)
	for n, c := range perNode {
		if c > busiest {
			busiest, busiestNode = c, n
		}
	}
	if busiest > share {
		t.Fatalf("busiest node %d packs %d of %d blocks, want ≤ fair share %d (per-node: %v)",
			busiestNode, busiest, nBlocks, share, perNode)
	}
	// The preferred head keeps its full fair share — balancing spills
	// overflow, it does not shun the hot node.
	if perNode[0] != share {
		t.Errorf("node 0 packs %d blocks, want its full fair share %d", perNode[0], share)
	}

	// Deterministic: identical cluster state must yield identical splits.
	again := (&splitPlanner{InputFormat: f}).packScanSplits(blocks)
	if !reflect.DeepEqual(splits, again) {
		t.Error("packScanSplits is not deterministic across calls")
	}
}

// TestPackScanSplitsSingleHolderExceedsCap: blocks whose only alive
// replica sits on one node cannot spill — they stay on that node even
// past the fair share, and packing still covers them.
func TestPackScanSplitsSingleHolderExceedsCap(t *testing.T) {
	cluster, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	nn := cluster.NameNode()
	var blocks []hdfs.BlockID
	for b := 0; b < 6; b++ {
		id := hdfs.BlockID(b)
		nn.RegisterReplica(id, 2, hdfs.ReplicaInfo{})
		blocks = append(blocks, id)
	}
	f := &InputFormat{Cluster: cluster, PackScans: true, SplitsPerNode: 2}
	splits := (&splitPlanner{InputFormat: f}).packScanSplits(blocks)
	assertCoverage(t, splits, blocks)
	for _, s := range splits {
		if s.Locations[0] != 2 {
			t.Errorf("split located at %v, want node 2 (only holder)", s.Locations)
		}
	}
}

// TestPackScanSplitsEvenPlacementUnchanged: under even pipeline placement
// every head stays below the fair-share cap, so balanced packing must
// produce exactly the head-of-list grouping the unbalanced policy did —
// the guarantee that keeps benchmark outputs byte-identical on the
// standard fixtures.
func TestPackScanSplitsEvenPlacementUnchanged(t *testing.T) {
	const nodes, nBlocks = 4, 12
	cluster, err := hdfs.NewCluster(nodes)
	if err != nil {
		t.Fatal(err)
	}
	nn := cluster.NameNode()
	var blocks []hdfs.BlockID
	for b := 0; b < nBlocks; b++ {
		id := hdfs.BlockID(b)
		for r := 0; r < 3; r++ {
			nn.RegisterReplica(id, hdfs.NodeID((b+r)%nodes), hdfs.ReplicaInfo{})
		}
		blocks = append(blocks, id)
	}
	f := &InputFormat{Cluster: cluster, PackScans: true, SplitsPerNode: 2}
	splits := (&splitPlanner{InputFormat: f}).packScanSplits(blocks)
	assertCoverage(t, splits, blocks)
	for _, s := range splits {
		for i, b := range s.Blocks {
			if want := hdfs.NodeID(int(b) % nodes); s.Pin(i) != want {
				t.Errorf("block %d pinned to %d, want head-of-list %d", b, s.Pin(i), want)
			}
		}
	}
}
