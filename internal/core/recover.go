package core

import (
	"fmt"
	"slices"

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
// whose replica set lost nodes. For each under-replicated block it
// determines which sort orders are missing relative to the config, and
// writes a fresh replica — re-sorted and re-indexed, from the first alive
// holder whose replica reads back verified (RebuildBlock) — to an alive
// node that does not yet hold one. A rebuild that quarantined a corrupt
// holder on the way lost that holder's order too, so the block is counted
// again until a round quarantines none (each drops a holder, so the
// rounds end). It is deterministic: missing orders are rebuilt in config
// order, each on the lowest-ID alive node without a replica of the block,
// so equal states recover alike.
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
	alive := cluster.AliveNodes() // ascending IDs

	for _, b := range blocks {
		rep.BlocksScanned++
		for recount := true; recount; {
			// The configured sort orders alive holders still serve, counted:
			// cfg.SortColumns is a multiset.
			served := make(map[int]int)
			var holders []hdfs.NodeID
			for _, node := range nn.GetHosts(b) {
				if !slices.Contains(alive, node) {
					continue
				}
				holders = append(holders, node)
				if info, ok := nn.ReplicaInfo(b, node); ok {
					served[info.SortColumn]++
				}
			}
			if len(holders) == 0 {
				return rep, fmt.Errorf("hail: block %d has no alive replicas, cannot recover", b)
			}

			for _, col := range cfg.SortColumns {
				if served[col] > 0 {
					served[col]--
					continue
				}
				target, ok := pickTarget(cluster, b, alive)
				if !ok {
					// Not enough distinct alive nodes to restore full
					// replication; recover what is possible.
					continue
				}
				framed, info, err := RebuildBlock(cluster, b, holders[0], col)
				if err == nil {
					err = cluster.StoreAdditionalReplica(b, target, framed, info)
				}
				if err != nil {
					return rep, err
				}
				rep.ReplicasRecovered++
				if col >= 0 {
					rep.IndexesRebuilt++
				}
			}
			hosts := nn.GetHosts(b)
			recount = slices.ContainsFunc(holders, func(h hdfs.NodeID) bool { return !slices.Contains(hosts, h) })
		}
	}
	return rep, nil
}

// pickTarget finds the first alive node that does not yet hold a replica
// of b. A dead node's stale replica entry does not block re-replication:
// only alive nodes are candidates. Nor does a node whose replica was
// quarantined qualify: it still stores the bytes, so a store there would
// collide.
func pickTarget(cluster *hdfs.Cluster, b hdfs.BlockID, alive []hdfs.NodeID) (hdfs.NodeID, bool) {
	hosts := cluster.NameNode().GetHosts(b)
	for _, n := range alive {
		if dn, err := cluster.DataNode(n); err == nil && !slices.Contains(hosts, n) && !dn.HasReplica(b) {
			return n, true
		}
	}
	return 0, false
}

// RebuildBlock is RebuildReplica over the first holder of block b, in
// ReplicaOrder from near, whose replica reads back verified: the cluster's
// failover loop (hdfs.Cluster.ReadFrom), which quarantines a corrupt
// replica on the way.
func RebuildBlock(cluster *hdfs.Cluster, b hdfs.BlockID, near hdfs.NodeID, col int) (framed []byte, info hdfs.ReplicaInfo, err error) {
	_, err = cluster.ReadFrom(b, hdfs.NoReplica, near, func(_ hdfs.NodeID, v hdfs.ReplicaView) (err error) {
		framed, info, err = RebuildReplica(v, col)
		return err
	})
	return framed, info, err
}

// RebuildReplica returns what a datanode stores for v's block clustered
// and indexed on col, or for col < 0 unsorted, as buildReplica does. It is
// the one replica builder of recovery and the adaptive indexer. The whole view is read verified — a corrupt chunk is
// an hdfs.ErrCorruptChunk for the caller to fail over on — and nothing is
// copied on the way in: stored bytes are immutable, and pax.Unmarshal
// aliases its input without writing to it.
func RebuildReplica(v hdfs.ReplicaView, col int) ([]byte, hdfs.ReplicaInfo, error) {
	data, err := v.Range(0, v.Len())
	if err != nil {
		return nil, hdfs.ReplicaInfo{}, err
	}
	paxData, _, err := ParseFrame(data)
	if err != nil {
		return nil, hdfs.ReplicaInfo{}, err
	}
	return buildReplica(paxData, col)
}
