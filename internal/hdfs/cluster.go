package hdfs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"

	"repro/internal/pool"
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
// read-only, and it lives until every position's transform has returned.
// WriteBlock then reuses its buffer for a later block, so a transform
// keeps nothing that aliases it past the build — except its result: block
// may be returned as is, and a buffer that any position's result shares is
// never recycled. The returned bytes are handed to the datanode, which
// stores them without a copy, so neither the transform nor its caller may
// write to them afterwards.
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
	// committed to (a different target forces a full rewrite), the
	// replicas its manifest lists and which of their two file pairs each
	// is in, and what that save wrote. The dirty-replica marks themselves
	// live in the namenode, next to the Dir_rep entries they annotate.
	// saveMu guards them, not mu — saves must not block uploads — and is
	// held across each whole Save: two concurrent saves to different
	// directories would otherwise race on consuming the dirty marks and
	// the savedTo transition, letting one of them skip a changed replica.
	saveMu    sync.Mutex
	savedTo   string
	committed map[repKey]bool
	lastSave  SaveReport
	// storeMu pairs each Dir_rep entry with its bytes: a change to both
	// holds it shared across both, a save snapshot holds it exclusively.
	storeMu sync.RWMutex
	fs      fileSystem // what Save writes through: the OS, or a test's faults
}

// storeReplica flushes a new replica's bytes to a datanode, then registers
// it and marks it dirty in one namenode critical section, so a save can
// never see the registration without its mark. The change hook fires after
// every lock is released, so hooks may call back into the save API.
func (c *Cluster) storeReplica(dn *DataNode, b BlockID, data []byte, sums []uint32, info ReplicaInfo) error {
	c.storeMu.RLock()
	err := dn.flush(b, data, sums)
	if err == nil {
		c.nn.registerReplica(b, dn.ID(), info, true)
	}
	c.storeMu.RUnlock()
	if err == nil {
		c.nn.notifyChanged(c.nn.hook(), b)
	}
	return err
}

// MaxNodes bounds a cluster's size. Every datanode is allocated up front
// (about 160 bytes before it stores anything) and Load takes the count
// from a manifest, so the count is bounded before it becomes an
// allocation size. 1,024 is ten times the paper's largest cluster (100
// nodes, §6.3.4).
const MaxNodes = 1024

// NewCluster creates a cluster with n datanodes (IDs 0..n-1), 1 <= n <=
// MaxNodes.
func NewCluster(n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("hdfs: cluster needs at least one datanode")
	}
	if n > MaxNodes {
		return nil, fmt.Errorf("hdfs: %d datanodes, more than the %d a cluster may have", n, MaxNodes)
	}
	c := &Cluster{nn: NewNameNode(), fs: osFS{}}
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
// and flushes what its transform returned; the buffer the block is
// reassembled into is pooled, and recycled once the transforms are done
// with it (see ReplicaTransform); without one (HDFS mode) nodes
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
		buf := pool.Borrow[byte](&recvBufs, 0)
		block, err := Reassemble(*buf, pkts)
		if err != nil {
			pool.GiveBack(&recvBufs, buf)
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
		*buf = block
		if !slices.ContainsFunc(replicas, func(r builtReplica) bool { return sharesArray(r.data, block) }) {
			pool.GiveBack(&recvBufs, buf)
		}
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
		// The datanode informs the namenode about its new replica,
		// including size, index and sort order (§3.2 steps 11 and 14).
		if err := c.storeReplica(dn, id, r.data, r.sums, r.info); err != nil {
			return 0, stats, err
		}
		stats.ReplicaSizes = append(stats.ReplicaSizes, len(r.data))
		flushed = append(flushed, dn.ID())
	}
	if len(flushed) != replication {
		return 0, stats, fmt.Errorf("hdfs: flushed %d replicas, want %d", len(flushed), replication)
	}

	c.nn.AddBlock(file, id)
	stats.TailVerified = len(pkts)
	return id, stats, nil
}

// recvBufs holds the buffers HAIL-mode pipelines reassemble blocks into:
// one per block in flight, recycled when its transforms are done with it.
var recvBufs sync.Pool

// sharesArray reports whether a and b have an element of one backing
// array in common: it compares the address ranges their capacities span.
func sharesArray(a, b []byte) bool {
	if cap(a) == 0 || cap(b) == 0 {
		return false
	}
	pa, pb := reflect.ValueOf(a).Pointer(), reflect.ValueOf(b).Pointer()
	return pa < pb+uintptr(cap(b)) && pb < pa+uintptr(cap(a))
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
	info.Size = len(data)
	return c.storeReplica(dn, b, data, checksumChunks(data), info)
}

// DropReplica removes one replica of a block — the storage side of
// adaptive replica eviction: the lifecycle manager reclaims budget by
// dropping the coldest adaptive replicas. The replica is unregistered from
// the namenode directory (bumping the block's generation, exactly as any
// other replica-topology change does), the stored bytes are deleted when
// the node is alive (a dead node's disk is unreachable; the ghost bytes
// are never served because the directory no longer lists them), and the
// replica-change hook fires after all locks are released so result-cache
// entries pinned at the dropped replica are purged. The next Save commits
// a manifest without the replica and then removes its files.
func (c *Cluster) DropReplica(b BlockID, node NodeID) error {
	dn, err := c.DataNode(node)
	if err != nil {
		return err
	}
	c.storeMu.RLock()
	err = c.nn.unregisterReplica(b, node)
	if err == nil {
		dn.drop(b)
	}
	c.storeMu.RUnlock()
	if err != nil {
		return err
	}
	c.nn.notifyChanged(c.nn.hook(), b)
	return nil
}

// ReplaceReplica overwrites an existing replica's stored bytes with a
// reorganized copy (same rows, different sort order, new index) and
// updates the namenode's Dir_rep entry — the adaptive indexer's in-place
// conversion of an unsorted PAX replica into a sorted, indexed one. The
// bytes and the entry change together under storeMu, so a Save commits
// each entry with its own bytes. data is handed over as in
// StoreAdditionalReplica.
func (c *Cluster) ReplaceReplica(b BlockID, node NodeID, data []byte, info ReplicaInfo) error {
	dn, err := c.DataNode(node)
	if err != nil {
		return err
	}
	sums := checksumChunks(data)
	info.Size = len(data)
	c.storeMu.RLock()
	if err = dn.replace(b, data, sums); err == nil {
		err = c.nn.updateReplica(b, node, info, true)
	}
	c.storeMu.RUnlock()
	if err != nil {
		return err
	}
	c.nn.notifyChanged(c.nn.hook(), b)
	return nil
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
// chunk verified, and the bytes copied so the caller owns them. It and
// ReadBlockAny are for the benchmark and tests; every reader in the
// engine reads through ReadFrom's views, which copy nothing.
func (c *Cluster) ReadBlockFrom(node NodeID, b BlockID) ([]byte, error) {
	v, err := c.OpenBlockFrom(node, b)
	if err != nil {
		return nil, err
	}
	data, err := v.Range(0, v.Len())
	return append([]byte(nil), data...), err
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

// NoReplica is ReadFrom's first when the reader has no replica to try
// before the others.
const NoReplica NodeID = -1

// ReadFrom is the one failover loop of every reader of a stored block. It
// tries the replica on first (a split's pin) unless first is NoReplica —
// before asking the directory for the rest, so a pinned read that succeeds
// costs no GetHosts — then the other holders in ReplicaOrder(b, near),
// and hands each to read as a view whose Range verifies and copies
// nothing. A replica that cannot be opened (dead node, dropped replica) or
// whose read fails with ErrCorruptChunk is a fault and the loop moves on,
// quarantining a corrupt one first (QuarantineReplica keeps a block's last
// replica in service). Any other error stops the loop. ReadFrom returns
// the node whose replica read took or stopped on; when every replica
// faulted, NoReplica and an error naming the block that wraps the last.
func (c *Cluster) ReadFrom(b BlockID, first, near NodeID, read func(NodeID, ReplicaView) error) (NodeID, error) {
	var fault error
	if first != NoReplica {
		f, err := c.readReplica(b, first, read)
		if f == nil {
			return first, err
		}
		fault = f
	}
	for _, h := range c.ReplicaOrder(b, near) {
		if h == first {
			continue
		}
		f, err := c.readReplica(b, h, read)
		if f == nil {
			return h, err
		}
		fault = f
	}
	if fault == nil {
		return NoReplica, fmt.Errorf("hdfs: block %d has no replicas", b)
	}
	return NoReplica, fmt.Errorf("hdfs: all replicas of block %d unreadable: %w", b, fault)
}

// readReplica is one attempt of ReadFrom: the replica's fault, or nil and
// read's outcome.
func (c *Cluster) readReplica(b BlockID, node NodeID, read func(NodeID, ReplicaView) error) (fault, err error) {
	v, err := c.OpenBlockFrom(node, b)
	if err != nil {
		return err, nil
	}
	if err = read(node, v); errors.Is(err, ErrCorruptChunk) {
		c.nn.QuarantineReplica(b, node, err.Error())
		return err, nil
	}
	return nil, err
}

// ReadBlock is ReadFrom over whole replicas, with no replica tried first:
// the bytes of the first that verifies in full, aliasing the stored ones
// (the caller must not write to them), and the node that served them.
func (c *Cluster) ReadBlock(b BlockID, near NodeID) (data []byte, served NodeID, err error) {
	served, err = c.ReadFrom(b, NoReplica, near, func(_ NodeID, v ReplicaView) (err error) {
		data, err = v.Range(0, v.Len())
		return err
	})
	return data, served, err
}

// ReadBlockAny is ReadBlock plus a copy the caller owns.
func (c *Cluster) ReadBlockAny(b BlockID, preferred NodeID) ([]byte, NodeID, error) {
	data, node, err := c.ReadBlock(b, preferred)
	return append([]byte(nil), data...), node, err
}
