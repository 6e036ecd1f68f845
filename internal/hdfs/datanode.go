package hdfs

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// storedReplica is one replica on a datanode's local disk: the data file
// and its separate checksum file (§3.2: "for each replica two files are
// created on local disk"). Both slices are immutable once stored — every
// change (flush, replace, CorruptByte) installs fresh slices under the
// datanode lock — so a copy of the struct taken under that lock is a
// consistent snapshot that may be read without it.
type storedReplica struct {
	data []byte
	sums []uint32
}

// DataNode stores block replicas and participates in upload pipelines.
type DataNode struct {
	id NodeID

	mu       sync.RWMutex
	alive    bool
	replicas map[BlockID]storedReplica

	// Cumulative counters for tests and the cost model.
	packetsRecv int64

	// Read-side counters, bumped by ReplicaView.Range outside the lock.
	chunksVerified   atomic.Int64
	checksumFailures atomic.Int64
}

// NewDataNode returns an empty, alive datanode.
func NewDataNode(id NodeID) *DataNode {
	return &DataNode{id: id, alive: true, replicas: make(map[BlockID]storedReplica)}
}

// ID returns the node's identifier.
func (dn *DataNode) ID() NodeID { return dn.id }

// Alive reports whether the node is up.
func (dn *DataNode) Alive() bool {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	return dn.alive
}

// Kill marks the node dead: it stops serving reads and cannot join upload
// pipelines. Stored bytes remain (a real machine's disk does not vanish),
// but are unreachable while dead.
func (dn *DataNode) Kill() {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	dn.alive = false
}

// Revive brings a killed node back.
func (dn *DataNode) Revive() {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	dn.alive = true
}

// flush writes a replica's data and checksum files to the local store. It
// stores the slices it is given: the caller hands them over and never
// writes to them again. Replicas on different nodes may share bytes; that
// is safe because stored bytes are immutable and CorruptByte copies on
// write, so corruption on one node cannot leak to its siblings.
func (dn *DataNode) flush(b BlockID, data []byte, sums []uint32) error {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if !dn.alive {
		return fmt.Errorf("hdfs: datanode %d is dead", dn.id)
	}
	if _, dup := dn.replicas[b]; dup {
		return fmt.Errorf("hdfs: datanode %d already stores block %d", dn.id, b)
	}
	dn.replicas[b] = storedReplica{data: data, sums: sums}
	return nil
}

// replace overwrites an existing replica's data and checksum files — the
// datanode side of adaptive reorganization: the block's rows are unchanged
// but their order (and the attached index) differ, so the files are
// rewritten wholesale. Unlike flush it requires the replica to exist; like
// flush it stores the slices it is given.
func (dn *DataNode) replace(b BlockID, data []byte, sums []uint32) error {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if !dn.alive {
		return fmt.Errorf("hdfs: datanode %d is dead", dn.id)
	}
	if _, ok := dn.replicas[b]; !ok {
		return fmt.Errorf("hdfs: datanode %d has no replica of block %d to replace", dn.id, b)
	}
	dn.replicas[b] = storedReplica{data: data, sums: sums}
	return nil
}

// drop removes a stored replica's data and checksum files. A dead node's
// disk is unreachable, so drop is a no-op there: the bytes linger as a
// ghost, but the namenode directory (which the caller updates) no longer
// lists them, so no reader ever resolves to the replica — and a later
// store on the revived node surfaces as an ErrReplicaExists collision the
// caller re-picks around. Reports whether bytes were actually removed.
func (dn *DataNode) drop(b BlockID) bool {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	if !dn.alive {
		return false
	}
	if _, ok := dn.replicas[b]; !ok {
		return false
	}
	delete(dn.replicas, b)
	return true
}

// Open returns a read-only view of the replica as stored right now. The
// datanode lock is held for the map lookup only; verification happens in
// ReplicaView.Range, for exactly the bytes a reader asks for.
func (dn *DataNode) Open(b BlockID) (ReplicaView, error) {
	dn.mu.RLock()
	alive := dn.alive
	rep, ok := dn.replicas[b]
	dn.mu.RUnlock()
	if !alive {
		return ReplicaView{}, fmt.Errorf("hdfs: datanode %d is dead", dn.id)
	}
	if !ok {
		return ReplicaView{}, fmt.Errorf("hdfs: datanode %d has no replica of block %d", dn.id, b)
	}
	return ReplicaView{dn: dn, block: b, rep: rep}, nil
}

// ReplicaView is a snapshot of one stored replica, taken by DataNode.Open.
// Stored bytes are immutable, so the view keeps reading the replica it
// opened whatever happens to the datanode afterwards — replace, drop,
// corruption, death; a fresh Open sees the new state. The zero value is
// an empty replica.
type ReplicaView struct {
	dn    *DataNode
	block BlockID
	rep   storedReplica
}

// Len returns the size of the replica's data file.
func (v *ReplicaView) Len() int { return len(v.rep.data) }

// Range returns bytes [off, off+n) of the replica after checking every
// 512-byte chunk that overlaps them against the stored checksum file —
// HDFS's read-path verification at the granularity the checksum file
// already has (§3.2). The result aliases the stored bytes: no copy is
// made, callers must not write to it, and hdfs never will. A mismatch is
// an ErrCorruptChunk naming node, block and chunk, and is counted in the
// datanode's ChecksumFailures.
func (v *ReplicaView) Range(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+n > len(v.rep.data) {
		return nil, fmt.Errorf("hdfs: block %d: read [%d,%d) outside the %d-byte replica", v.block, off, off+n, len(v.rep.data))
	}
	if n == 0 {
		return nil, nil
	}
	bad, checked := firstCorruptChunk(v.rep.data, v.rep.sums, off, n)
	v.dn.chunksVerified.Add(int64(checked))
	if bad >= 0 {
		v.dn.checksumFailures.Add(1)
		return nil, fmt.Errorf("hdfs: datanode %d block %d chunk %d: %w", v.dn.id, v.block, bad, ErrCorruptChunk)
	}
	return v.rep.data[off : off+n : off+n], nil
}

// ChunksVerified returns how many 512-byte chunks reads of this node's
// replicas have CRC-checked so far: the bytes a query really moved, next
// to the bytes pax.IOStats says it asked for.
func (dn *DataNode) ChunksVerified() int64 { return dn.chunksVerified.Load() }

// ChecksumFailures returns how many reads of this node's replicas hit a
// chunk that failed verification. Readers fail over to another replica;
// this counter is what keeps the bad copy from being skipped silently.
func (dn *DataNode) ChecksumFailures() int64 { return dn.checksumFailures.Load() }

// HasReplica reports whether the node stores the block.
func (dn *DataNode) HasReplica(b BlockID) bool {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	_, ok := dn.replicas[b]
	return ok
}

// ReplicaSize returns the stored size of the replica's data file, or -1.
func (dn *DataNode) ReplicaSize(b BlockID) int {
	dn.mu.RLock()
	defer dn.mu.RUnlock()
	rep, ok := dn.replicas[b]
	if !ok {
		return -1
	}
	return len(rep.data)
}

// CorruptByte flips one bit of a stored replica, for failure-injection
// tests of the checksum machinery. The flip is copy-on-write: views opened
// before it keep the bytes they opened, and replicas on other nodes that
// share those bytes keep them too. The checksum file is not touched,
// so flipping the same bit again restores the replica.
func (dn *DataNode) CorruptByte(b BlockID, offset int) error {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	rep, ok := dn.replicas[b]
	if !ok {
		return fmt.Errorf("hdfs: datanode %d has no replica of block %d", dn.id, b)
	}
	if offset < 0 || offset >= len(rep.data) {
		return fmt.Errorf("hdfs: corrupt offset %d out of range", offset)
	}
	rep.data = append([]byte(nil), rep.data...)
	rep.data[offset] ^= 0x01
	dn.replicas[b] = rep
	return nil
}
