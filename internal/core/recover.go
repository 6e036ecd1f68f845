package core

import (
	"fmt"

	"repro/internal/hdfs"
)

// Replica recovery. When a datanode dies, HDFS re-replicates its blocks
// from surviving replicas. For HAIL the interesting part is *what* to
// recreate: every surviving replica holds the same logical rows (§2.3),
// so the recovered replica can be re-sorted and re-indexed into exactly
// the sort order that was lost — restoring the pre-failure index coverage
// instead of just the byte count. This implements the paper's remark that
// from each replica the logical block can be recovered, extended to
// recovering the *physical design*.

// RecoveryReport summarizes one recovery pass.
type RecoveryReport struct {
	BlocksScanned     int
	ReplicasRecovered int
	IndexesRebuilt    int
}

// RecoverFile restores the replication factor of every block of the file
// whose replica set lost nodes. For each under-replicated block it reads a
// surviving replica, determines which sort orders are missing relative to
// the config, and writes a fresh replica — re-sorted and re-indexed — to
// an alive node that does not yet hold one.
func RecoverFile(cluster *hdfs.Cluster, file string, cfg LayoutConfig) (RecoveryReport, error) {
	var rep RecoveryReport
	if err := cfg.Validate(); err != nil {
		return rep, err
	}
	nn := cluster.NameNode()
	blocks, err := nn.FileBlocks(file)
	if err != nil {
		return rep, err
	}
	aliveSet := make(map[hdfs.NodeID]bool)
	for _, n := range cluster.AliveNodes() {
		aliveSet[n] = true
	}

	for _, b := range blocks {
		rep.BlocksScanned++
		// Which configured sort orders are still served by alive nodes?
		// cfg.SortColumns is a multiset: count each clustering attribute.
		missing := make(map[int]int)
		for _, col := range cfg.SortColumns {
			missing[col]++
		}
		var holders []hdfs.NodeID
		for _, node := range nn.GetHosts(b) {
			if !aliveSet[node] {
				continue
			}
			holders = append(holders, node)
			info, ok := nn.ReplicaInfo(b, node)
			if !ok {
				continue
			}
			if missing[info.SortColumn] > 0 {
				missing[info.SortColumn]--
			}
		}
		if len(holders) == 0 {
			return rep, fmt.Errorf("hail: block %d has no alive replicas, cannot recover", b)
		}

		for col, count := range missing {
			for i := 0; i < count; i++ {
				target, ok := pickTarget(cluster, b, aliveSet)
				if !ok {
					// Not enough distinct alive nodes to restore full
					// replication; recover what is possible.
					continue
				}
				if err := recoverReplica(cluster, b, holders[0], target, col); err != nil {
					return rep, err
				}
				rep.ReplicasRecovered++
				if col >= 0 {
					rep.IndexesRebuilt++
				}
			}
		}
	}
	return rep, nil
}

// pickTarget finds an alive node that does not yet hold a replica of b.
func pickTarget(cluster *hdfs.Cluster, b hdfs.BlockID, alive map[hdfs.NodeID]bool) (hdfs.NodeID, bool) {
	has := make(map[hdfs.NodeID]bool)
	for _, n := range cluster.NameNode().GetHosts(b) {
		if alive[n] {
			// Only alive holders block a target; a dead node's stale
			// replica entry must not prevent re-replication.
			has[n] = true
		}
	}
	for n := range alive {
		if !has[n] {
			return n, true
		}
	}
	return 0, false
}

// recoverReplica reads the block from a surviving holder, builds from its
// rows the replica that was lost — re-sorted on col and re-indexed, or
// unsorted for col < 0 — and stores it on the target node.
func recoverReplica(cluster *hdfs.Cluster, b hdfs.BlockID, from, to hdfs.NodeID, col int) error {
	data, err := cluster.ReadBlockFrom(from, b)
	if err != nil {
		return err
	}
	paxData, _, err := ParseFrame(data)
	if err != nil {
		return err
	}
	framed, info, err := buildReplica(paxData, col)
	if err != nil {
		return err
	}
	info.Size = len(framed)
	return cluster.StoreRecoveredReplica(b, to, framed, info)
}
