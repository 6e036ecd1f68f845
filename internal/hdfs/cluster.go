package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
)

// ErrReplicaExists reports that the target node already stores a replica
// of the block. StoreAdditionalReplica returns it (wrapped) when a
// concurrent build or recovery won the placement race; callers treat it as
// a benign capacity condition — re-pick a node or skip — not a failure.
var ErrReplicaExists = errors.New("node already stores a replica of the block")

// ReplicaTransform customizes what each datanode in an upload pipeline
// stores for a block. HAIL injects per-replica sorting and indexing through
// this hook (§3.2 step 7): position is the node's place in the pipeline
// (0 = DN1), and the returned bytes replace the received block on that
// node only. The returned ReplicaInfo is registered with the namenode's
// Dir_rep. A nil transform gives classic HDFS byte-identical replicas.
//
// block is the block reassembled once and shared by every position: it is
// read-only, and may be returned as is. The returned bytes are handed to
// the datanode, which stores them without a copy, so neither the transform
// nor its caller may write to them afterwards.
//
// Every datanode builds its replica on its own machine, so the transform is
// called concurrently for the positions of one block: it must not share
// mutable state between positions.
type ReplicaTransform func(position int, node NodeID, block []byte) ([]byte, ReplicaInfo, error)

// builtReplica is what one pipeline position will flush: its bytes, their
// checksum file and its Dir_rep entry, or the error its transform returned.
type builtReplica struct {
	data []byte
	sums []uint32
	info ReplicaInfo
	err  error
}

// UploadStats describes one block upload for tests and the cost model.
type UploadStats struct {
	Packets       int   // packets framed for the block
	LinkBytes     int64 // bytes crossing pipeline links (incl. checksums)
	Links         int   // pipeline links the packets traversed
	TailVerified  int   // packets checksum-verified by the tail datanode
	AcksInOrder   bool  // client saw every ACK in sequence order
	ReplicaSizes  []int // stored size per pipeline position
	PipelineNodes []NodeID
}

// Cluster wires a namenode and a set of datanodes together and implements
// the upload pipeline over them.
type Cluster struct {
	mu        sync.Mutex
	nn        *NameNode
	dns       []*DataNode
	nextBlock BlockID
	cursor    int // round-robin placement cursor

	// Incremental-save bookkeeping: which directory the last save
	// targeted (a different target forces a full rewrite) and what it
	// wrote. The dirty-replica marks themselves live in the namenode's
	// directory shards, next to the Dir_rep entries they annotate.
	// Guarded by saveMu, not mu — saves must not block uploads. saveOpMu
	// serializes whole Save calls: two concurrent saves to different
	// directories would otherwise race on consuming the dirty marks and
	// the savedTo transition, letting one of them skip a changed replica.
	saveOpMu sync.Mutex
	saveMu   sync.Mutex
	savedTo  string
	lastSave SaveReport
}

// registerReplicaDirty registers a new replica and marks it dirty as one
// atomic step under the block's directory-shard lock. Save snapshots each
// shard and consumes its dirty marks under the same lock, so it can never
// observe the registration without its dirty mark — the interleaving that
// would persist a manifest entry while skipping the replica's changed
// bytes. The replica-change hook fires after every lock is released, so
// hooks may safely call back into the save API.
func (c *Cluster) registerReplicaDirty(b BlockID, node NodeID, info ReplicaInfo) {
	c.nn.registerReplica(b, node, info, true)
	c.nn.notifyChanged(c.nn.hook(), b)
}

// updateReplicaDirty is registerReplicaDirty's counterpart for in-place
// replica updates (adaptive conversions).
func (c *Cluster) updateReplicaDirty(b BlockID, node NodeID, info ReplicaInfo) error {
	if err := c.nn.updateReplica(b, node, info, true); err != nil {
		return err
	}
	c.nn.notifyChanged(c.nn.hook(), b)
	return nil
}

// NewCluster creates a cluster with n datanodes (IDs 0..n-1).
func NewCluster(n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("hdfs: cluster needs at least one datanode")
	}
	c := &Cluster{nn: NewNameNode()}
	for i := 0; i < n; i++ {
		c.dns = append(c.dns, NewDataNode(NodeID(i)))
	}
	return c, nil
}

// NameNode returns the cluster's namenode.
func (c *Cluster) NameNode() *NameNode { return c.nn }

// DataNode returns the datanode with the given ID.
func (c *Cluster) DataNode(id NodeID) (*DataNode, error) {
	if int(id) < 0 || int(id) >= len(c.dns) {
		return nil, fmt.Errorf("hdfs: no datanode %d", id)
	}
	return c.dns[id], nil
}

// NumNodes returns the cluster size (dead or alive).
func (c *Cluster) NumNodes() int { return len(c.dns) }

// AliveNodes lists the IDs of nodes that are up.
func (c *Cluster) AliveNodes() []NodeID {
	var out []NodeID
	for _, dn := range c.dns {
		if dn.Alive() {
			out = append(out, dn.ID())
		}
	}
	return out
}

// KillNode takes a datanode down (fault-tolerance experiments, §6.4.3).
// Every block with a replica on the node gets its generation bumped: its
// readers will fail over to another replica (possibly sorted differently),
// so cached per-block results computed before the loss must not be served.
func (c *Cluster) KillNode(id NodeID) error {
	dn, err := c.DataNode(id)
	if err != nil {
		return err
	}
	dn.Kill()
	c.nn.InvalidateNode(id)
	return nil
}

// ReviveNode brings a killed datanode back and bumps the generation of its
// blocks — the node's replicas become readable again, which changes the
// replica a reader would pick just as its loss did.
func (c *Cluster) ReviveNode(id NodeID) error {
	dn, err := c.DataNode(id)
	if err != nil {
		return err
	}
	dn.Revive()
	c.nn.InvalidateNode(id)
	return nil
}

// pickPipeline selects `replication` distinct alive datanodes, walking a
// round-robin cursor so block placement spreads evenly — the property the
// scale-out experiments rely on.
func (c *Cluster) pickPipeline(replication int) ([]*DataNode, error) {
	alive := c.AliveNodes()
	if len(alive) < replication {
		return nil, fmt.Errorf("hdfs: need %d alive datanodes, have %d", replication, len(alive))
	}
	start := c.cursor % len(alive)
	c.cursor++
	nodes := make([]*DataNode, 0, replication)
	for i := 0; i < replication; i++ {
		nodes = append(nodes, c.dns[alive[(start+i)%len(alive)]])
	}
	return nodes, nil
}

// WriteBlock uploads one block with the given replication factor, running
// the full packet pipeline: framing into checksummed packets, forwarding
// along the chain, tail-only verification, the backwards ACK chain, and
// per-node flush. With a transform (HAIL mode) the block is reassembled in
// memory once and every datanode transforms it and recomputes its own
// checksums — all positions at once, position 0 on the caller's goroutine —
// and flushes what its transform returned; without one (HDFS mode) nodes
// store the packets' bytes and their checksums. data stays the caller's:
// HDFS mode stores one copy of it and one checksum file, shared by every
// replica. Nothing is flushed until every transform has succeeded, and
// replicas are flushed and registered in pipeline order, so the namenode
// sees exactly what a serial pipeline would leave.
func (c *Cluster) WriteBlock(file string, data []byte, replication int, transform ReplicaTransform) (BlockID, UploadStats, error) {
	c.mu.Lock()
	pipeline, err := c.pickPipeline(replication)
	if err != nil {
		c.mu.Unlock()
		return 0, UploadStats{}, err
	}
	id := c.nextBlock
	c.nextBlock++
	c.mu.Unlock()

	stats := UploadStats{
		AcksInOrder:   true,
		PipelineNodes: make([]NodeID, 0, len(pipeline)),
		ReplicaSizes:  make([]int, 0, len(pipeline)),
	}
	for _, dn := range pipeline {
		stats.PipelineNodes = append(stats.PipelineNodes, dn.ID())
	}

	// Client side: frame the block (§3.2 step 4). In HAIL mode `data` is
	// already a PAX block built by the HAIL client.
	pkts := BuildPackets(data)
	stats.Packets = len(pkts)
	stats.Links = len(pipeline) // client→DN1 plus the inter-DN hops

	// Forward every packet down the chain. Each node receives every
	// packet; only the tail verifies (§3.2: "DN2 believes DN3, DN1
	// believes DN2, and CL believes DN1").
	perPacketBytes := func(p *Packet) int64 { return int64(len(p.Data)) + int64(4*len(p.Sums)) }
	nextAck := 0
	ackIDs := make([]NodeID, 0, len(pipeline))
	for i := range pkts {
		p := &pkts[i]
		for _, dn := range pipeline {
			if !dn.Alive() {
				return 0, stats, fmt.Errorf("hdfs: datanode %d died during upload of block %d", dn.ID(), id)
			}
			dn.mu.Lock()
			dn.packetsRecv++
			dn.mu.Unlock()
			stats.LinkBytes += perPacketBytes(p)
		}
		tail := pipeline[len(pipeline)-1]
		if err := p.Verify(); err != nil {
			return 0, stats, fmt.Errorf("hdfs: tail datanode %d: %v", tail.ID(), err)
		}

		// ACK chain: the ack for packet p travels tail→…→DN1→client with
		// node IDs appended; the client checks sequence order (§3.2 step 15).
		ackIDs = ackIDs[:0]
		for pos := len(pipeline) - 1; pos >= 0; pos-- {
			ackIDs = append(ackIDs, pipeline[pos].ID())
		}
		if len(ackIDs) != len(pipeline) || p.Seq != nextAck {
			stats.AcksInOrder = false
			return 0, stats, fmt.Errorf("hdfs: ACK for packet %d out of order (want %d)", p.Seq, nextAck)
		}
		nextAck++
	}

	// Build phase. In HDFS mode data was logically streamed to disk as
	// packets arrived: every replica is the same bytes with the same
	// checksums, so they share one copy and one checksum file. In HAIL mode
	// each node reassembles, transforms and recomputes checksums for its
	// own bytes (§3.2 steps 6–7) on its own machine: every node receives
	// the same packets, so the block is reassembled once, and the positions'
	// transforms run at once, each writing only its own slot.
	replicas := make([]builtReplica, len(pipeline))
	if transform == nil {
		stored := bytes.Clone(data)
		shared := builtReplica{data: stored, sums: checksumChunks(stored), info: ReplicaInfo{Size: len(data), SortColumn: -1}}
		for pos := range replicas {
			replicas[pos] = shared
		}
	} else {
		block, err := Reassemble(pkts)
		if err != nil {
			return 0, stats, err
		}
		build := func(pos int) {
			r := &replicas[pos]
			if r.data, r.info, r.err = transform(pos, pipeline[pos].ID(), block); r.err == nil {
				// Sort orders differ per replica, so each gets its own
				// checksum file (§3.2 step 7).
				r.info.Size = len(r.data)
				r.sums = checksumChunks(r.data)
			}
		}
		var wg sync.WaitGroup
		for pos := 1; pos < len(pipeline); pos++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				build(pos)
			}()
		}
		build(0)
		wg.Wait()
		// Every error is checked before anything is flushed, so a failed
		// transform leaves no replica of the block behind.
		for pos, r := range replicas {
			if r.err != nil {
				return 0, stats, fmt.Errorf("hdfs: transform on datanode %d: %v", pipeline[pos].ID(), r.err)
			}
		}
	}

	// Flush phase, in pipeline order.
	flushed := make([]NodeID, 0, len(pipeline))
	for pos, dn := range pipeline {
		r := replicas[pos]
		if err := dn.flush(id, r.data, r.sums); err != nil {
			return 0, stats, err
		}
		stats.ReplicaSizes = append(stats.ReplicaSizes, len(r.data))
		// The datanode informs the namenode about its new replica,
		// including size, index and sort order (§3.2 steps 11 and 14).
		c.registerReplicaDirty(id, dn.ID(), r.info)
		flushed = append(flushed, dn.ID())
	}
	if len(flushed) != replication {
		return 0, stats, fmt.Errorf("hdfs: flushed %d replicas, want %d", len(flushed), replication)
	}

	c.nn.AddBlock(file, id)
	stats.TailVerified = len(pkts)
	return id, stats, nil
}

// StoreAdditionalReplica places a block replica on a node outside the
// normal upload pipeline and registers it with the namenode. Two paths
// use it: re-replication after a datanode loss (core.RecoverFile) and
// the adaptive indexer, which stores a freshly sorted+indexed copy of
// a block so later jobs get index scans. The replica's checksum file is
// computed here. data is handed over: the datanode stores it without a
// copy, and the caller must not write to it afterwards.
func (c *Cluster) StoreAdditionalReplica(b BlockID, node NodeID, data []byte, info ReplicaInfo) error {
	dn, err := c.DataNode(node)
	if err != nil {
		return err
	}
	if dn.HasReplica(b) {
		return fmt.Errorf("hdfs: node %d, block %d: %w", node, b, ErrReplicaExists)
	}
	if err := dn.flush(b, data, checksumChunks(data)); err != nil {
		return err
	}
	info.Size = len(data)
	c.registerReplicaDirty(b, node, info)
	return nil
}

// DropReplica removes one replica of a block — the storage side of
// adaptive replica eviction: the lifecycle manager reclaims budget by
// dropping the coldest adaptive replicas. The replica is unregistered from
// the namenode directory (bumping the block's generation, exactly as any
// other replica-topology change does), the stored bytes are deleted when
// the node is alive (a dead node's disk is unreachable; the ghost bytes
// are never served because the directory no longer lists them), and the
// replica-change hook fires after all locks are released so result-cache
// entries pinned at the dropped replica are purged. Replica files a
// previous Save wrote become unreferenced — the manifest rewrite on the
// next Save is authoritative, and Load reads only manifest-listed
// replicas.
func (c *Cluster) DropReplica(b BlockID, node NodeID) error {
	dn, err := c.DataNode(node)
	if err != nil {
		return err
	}
	if err := c.nn.unregisterReplica(b, node); err != nil {
		return err
	}
	dn.drop(b)
	c.nn.notifyChanged(c.nn.hook(), b)
	return nil
}

// ReplaceReplica overwrites an existing replica's stored bytes with a
// reorganized copy (same rows, different sort order, new index) and
// updates the namenode's Dir_rep entry — the adaptive indexer's in-place
// conversion of an unsorted PAX replica into a sorted, indexed one. data
// is handed over as in StoreAdditionalReplica.
func (c *Cluster) ReplaceReplica(b BlockID, node NodeID, data []byte, info ReplicaInfo) error {
	dn, err := c.DataNode(node)
	if err != nil {
		return err
	}
	if err := dn.replace(b, data, checksumChunks(data)); err != nil {
		return err
	}
	info.Size = len(data)
	return c.updateReplicaDirty(b, node, info)
}

// OpenBlockFrom opens a read-only view of the replica a specific datanode
// stores — the read path of anything that wants part of a block: the
// view's Range verifies and returns just the bytes asked for, without a
// copy.
func (c *Cluster) OpenBlockFrom(node NodeID, b BlockID) (ReplicaView, error) {
	dn, err := c.DataNode(node)
	if err != nil {
		return ReplicaView{}, err
	}
	return dn.Open(b)
}

// ReadBlockFrom reads a replica from a specific datanode in full: every
// chunk verified, and the bytes copied so the caller owns them. It is for
// callers that need a whole block of their own (the Hadoop and Trojan
// baselines); a reader that only reads — a query's column ranges, a
// replica rebuild — opens a view instead.
func (c *Cluster) ReadBlockFrom(node NodeID, b BlockID) ([]byte, error) {
	v, err := c.OpenBlockFrom(node, b)
	if err != nil {
		return nil, err
	}
	data, err := v.Range(0, v.Len())
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// ReplicaOrder lists the block's replica holders in the order a reader
// running on the preferred node tries them: that node first if it holds a
// replica (the HDFS client's locality preference), then the rest in
// registration order.
func (c *Cluster) ReplicaOrder(b BlockID, preferred NodeID) []NodeID {
	hosts := c.nn.GetHosts(b)
	for i, h := range hosts {
		if h == preferred {
			copy(hosts[1:i+1], hosts[:i])
			hosts[0] = h
			break
		}
	}
	return hosts
}

// ReadBlockAny reads the block in full from the first replica holder, in
// ReplicaOrder, that is alive and passes verification.
func (c *Cluster) ReadBlockAny(b BlockID, preferred NodeID) ([]byte, NodeID, error) {
	hosts := c.ReplicaOrder(b, preferred)
	if len(hosts) == 0 {
		return nil, 0, fmt.Errorf("hdfs: block %d has no replicas", b)
	}
	var lastErr error
	for _, h := range hosts {
		data, err := c.ReadBlockFrom(h, b)
		if err == nil {
			return data, h, nil
		}
		lastErr = err
	}
	return nil, 0, fmt.Errorf("hdfs: all replicas of block %d unreadable: %v", b, lastErr)
}
