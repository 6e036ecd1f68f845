package hdfs

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// NodeID identifies a datanode.
type NodeID int

// BlockID identifies a logical HDFS block.
type BlockID int64

// ReplicaInfo is the paper's HAILBlockReplicaInfo (§3.3): what the namenode
// knows about one physical replica beyond its existence — the sort order,
// the index, and the replica's (per-replica!) size. Classic HDFS replicas
// have SortColumn == -1 and no index.
type ReplicaInfo struct {
	Size       int
	SortColumn int // clustering/indexed attribute, -1 for unsorted replicas
	HasIndex   bool
	IndexSize  int
}

// numShards is how many independently locked partitions the namenode
// directory has.
const numShards = 8

// NameNode keeps the paper's two directories (§3.3):
//
//	Dir_block: blockID            → set of datanodes
//	Dir_rep:   (blockID,datanode) → HAILBlockReplicaInfo
//
// plus the file → blocks mapping every filesystem needs. Classic HDFS has
// only Dir_block; Dir_rep is HAIL's extension, and is what lets the
// scheduler send map tasks to the replica with the right index.
//
// The directories are partitioned into numShards independently locked
// shards — block-keyed state by block id modulo numShards, file names by
// a hash of the name — so concurrent map tasks, adaptive conversions and
// cache generation reads contend per shard instead of on one global
// lock. The NameNode type itself is a thin façade: every public method
// keeps the exact observable behaviour of a single-map implementation
// (the oracle-equivalence property test in oracle_test.go holds the two
// to identical observations), and cross-shard aggregations return
// deterministic, sorted results.
type NameNode struct {
	shards [numShards]*dirShard

	// onChange, if set, is called (outside every shard lock) with each
	// block whose generation was bumped — the result cache's active
	// invalidation hook. It fires exactly once per affected block per
	// mutating call; multi-block mutations (InvalidateNode) fire it in
	// ascending block order.
	hookMu   sync.RWMutex
	onChange func(BlockID)
}

// dirShard is one partition of the namenode directory. Each shard owns
// the file table, Dir_block, Dir_rep, the replica generations and the
// incremental-save dirty marks for the keys routed to it, under its own
// lock.
type dirShard struct {
	mu     sync.RWMutex
	ops    atomic.Uint64 // directory operations served (lock acquisitions)
	files  map[string][]BlockID
	blocks map[BlockID][]NodeID // Dir_block; insertion order = pipeline order
	reps   map[repKey]ReplicaInfo
	// gens counts replica-topology changes per block: any event that can
	// alter which replica a reader would open — a new replica, an in-place
	// reorganization, a node loss or return — bumps the block's
	// generation. Block-level result-cache entries embed the generation
	// they were computed at, so stale results become unreachable instead
	// of being served.
	gens map[BlockID]uint64
	// dirty marks replicas whose stored bytes changed since the last
	// Save. It lives with the shard so registration and dirty-marking are
	// one atomic step under the shard lock (see Cluster.Save).
	dirty map[repKey]bool
}

type repKey struct {
	block BlockID
	node  NodeID
}

// repEntry is a (key, info) pair from Dir_rep, used by save snapshots.
type repEntry struct {
	key  repKey
	info ReplicaInfo
}

// lock/rlock count the acquisition so per-shard contention is measurable
// (ShardOps, and the gauges BindObs puts on /metrics).
func (s *dirShard) lock() *dirShard {
	s.ops.Add(1)
	s.mu.Lock()
	return s
}

func (s *dirShard) rlock() *dirShard {
	s.ops.Add(1)
	s.mu.RLock()
	return s
}

// NewNameNode returns an empty namenode.
func NewNameNode() *NameNode {
	nn := &NameNode{}
	for i := range nn.shards {
		nn.shards[i] = &dirShard{
			files:  make(map[string][]BlockID),
			blocks: make(map[BlockID][]NodeID),
			reps:   make(map[repKey]ReplicaInfo),
			gens:   make(map[BlockID]uint64),
		}
	}
	return nn
}

// blockShard routes block-keyed state. The id goes through uint64 so that
// any value a manifest can hold, negative ones included, has a shard.
func (nn *NameNode) blockShard(b BlockID) *dirShard {
	return nn.shards[uint64(b)%numShards]
}

// fileShard routes a file's block list by the FNV-1a hash of its name.
func (nn *NameNode) fileShard(file string) *dirShard {
	h := uint32(2166136261)
	for i := 0; i < len(file); i++ {
		h = (h ^ uint32(file[i])) * 16777619
	}
	return nn.shards[h%numShards]
}

// ShardOps returns a snapshot of per-shard directory-operation counts
// (every lock acquisition, read or write).
func (nn *NameNode) ShardOps() []uint64 {
	out := make([]uint64, len(nn.shards))
	for i, s := range nn.shards {
		out[i] = s.ops.Load()
	}
	return out
}

// SetReplicaChangeHook installs fn as the replica-change observer: it is
// called with every block whose generation is bumped, after all namenode
// locks are released. The block-level result cache registers its
// invalidation here. A nil fn removes the hook.
func (nn *NameNode) SetReplicaChangeHook(fn func(BlockID)) {
	nn.hookMu.Lock()
	defer nn.hookMu.Unlock()
	nn.onChange = fn
}

// hook returns the current replica-change observer.
func (nn *NameNode) hook() func(BlockID) {
	nn.hookMu.RLock()
	defer nn.hookMu.RUnlock()
	return nn.onChange
}

// Generation returns the block's replica-topology generation. It starts at
// zero and is bumped by RegisterReplica, UpdateReplica and InvalidateNode.
func (nn *NameNode) Generation(b BlockID) uint64 {
	s := nn.blockShard(b).rlock()
	defer s.mu.RUnlock()
	return s.gens[b]
}

// notifyChanged fires the replica-change hook for the given blocks. Must
// be called with NO shard lock held.
func (nn *NameNode) notifyChanged(fn func(BlockID), blocks ...BlockID) {
	if fn == nil {
		return
	}
	for _, b := range blocks {
		fn(b)
	}
}

// InvalidateNode bumps the generation of every block with a replica on the
// given node. The cluster calls it when a datanode dies or returns: either
// event changes which replica a reader would open (replicas differ in sort
// order), so cached per-block results keyed at the old generation must not
// be served. The hook fires exactly once per affected block, in ascending
// block order — deterministic regardless of how blocks are spread over
// shards.
func (nn *NameNode) InvalidateNode(node NodeID) {
	var changed []BlockID
	for _, s := range nn.shards {
		s.lock()
		for b, nodes := range s.blocks {
			for _, n := range nodes {
				if n == node {
					s.gens[b]++
					changed = append(changed, b)
					break
				}
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i] < changed[j] })
	nn.notifyChanged(nn.hook(), changed...)
}

// ErrNoSuchFile is what FileBlocks returns (wrapped, with the name) for a
// file the namenode has never been given a block of.
var ErrNoSuchFile = errors.New("hdfs: no such file")

// AddBlock appends a block to a file's block list.
func (nn *NameNode) AddBlock(file string, b BlockID) {
	s := nn.fileShard(file).lock()
	defer s.mu.Unlock()
	s.files[file] = append(s.files[file], b)
}

// FileBlocks returns the blocks of a file in order.
func (nn *NameNode) FileBlocks(file string) ([]BlockID, error) {
	s := nn.fileShard(file).rlock()
	defer s.mu.RUnlock()
	bs, ok := s.files[file]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoSuchFile, file)
	}
	return append([]BlockID(nil), bs...), nil
}

// Files lists all registered files, sorted — the cross-shard merge must
// not leak shard (or map) iteration order.
func (nn *NameNode) Files() []string {
	var out []string
	for _, s := range nn.shards {
		s.rlock()
		for f := range s.files {
			out = append(out, f)
		}
		s.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// RegisterReplica records that node stores a replica of block with the
// given metadata. Datanodes call this at the end of the upload pipeline
// (§3.2 steps 11 and 14).
func (nn *NameNode) RegisterReplica(b BlockID, node NodeID, info ReplicaInfo) {
	nn.registerReplica(b, node, info, false)
	nn.notifyChanged(nn.hook(), b)
}

// registerReplica performs the registration under the block's shard lock,
// optionally marking the replica dirty for the next incremental Save in
// the same atomic step — the cluster's register-and-mark-dirty path needs
// the two inseparable so a save snapshot can never observe the
// registration without its dirty mark. The caller fires the change hook
// once it holds no locks.
func (nn *NameNode) registerReplica(b BlockID, node NodeID, info ReplicaInfo, markDirty bool) {
	s := nn.blockShard(b).lock()
	defer s.mu.Unlock()
	key := repKey{b, node}
	if _, dup := s.reps[key]; !dup {
		s.blocks[b] = append(s.blocks[b], node)
	}
	s.reps[key] = info
	s.gens[b]++
	if markDirty {
		s.markDirtyLocked(key)
	}
}

// markDirtyLocked records a replica's bytes as changed since the last
// Save. Caller holds the shard lock.
func (s *dirShard) markDirtyLocked(key repKey) {
	if s.dirty == nil {
		s.dirty = make(map[repKey]bool)
	}
	s.dirty[key] = true
}

// GetHosts is the BlockLocation.getHosts lookup: all datanodes holding a
// replica of the block, in registration order.
func (nn *NameNode) GetHosts(b BlockID) []NodeID {
	s := nn.blockShard(b).rlock()
	defer s.mu.RUnlock()
	return append([]NodeID(nil), s.blocks[b]...)
}

// GetHostsWithIndex is HAIL's new lookup (§4.3): the datanodes whose
// replica of the block carries a clustered index on the given attribute.
func (nn *NameNode) GetHostsWithIndex(b BlockID, column int) []NodeID {
	s := nn.blockShard(b).rlock()
	defer s.mu.RUnlock()
	var out []NodeID
	for _, node := range s.blocks[b] {
		info := s.reps[repKey{b, node}]
		if info.HasIndex && info.SortColumn == column {
			out = append(out, node)
		}
	}
	return out
}

// UpdateReplica replaces Dir_rep's entry for an existing replica — the
// namenode side of adaptive index creation: when a datanode reorganizes a
// replica (sorts it and adds a clustered index) after the initial upload,
// it reports the new sort order and index metadata here. Unlike
// RegisterReplica it refuses to invent a replica that was never uploaded.
func (nn *NameNode) UpdateReplica(b BlockID, node NodeID, info ReplicaInfo) error {
	if err := nn.updateReplica(b, node, info, false); err != nil {
		return err
	}
	nn.notifyChanged(nn.hook(), b)
	return nil
}

// updateReplica is registerReplica's counterpart for Dir_rep updates.
func (nn *NameNode) updateReplica(b BlockID, node NodeID, info ReplicaInfo, markDirty bool) error {
	s := nn.blockShard(b).lock()
	defer s.mu.Unlock()
	key := repKey{b, node}
	if _, ok := s.reps[key]; !ok {
		return fmt.Errorf("hdfs: node %d holds no replica of block %d", node, b)
	}
	s.reps[key] = info
	s.gens[b]++
	if markDirty {
		s.markDirtyLocked(key)
	}
	return nil
}

// UnregisterReplica removes (block, node) from Dir_block and Dir_rep — the
// namenode side of adaptive replica eviction: when the lifecycle manager
// drops a cold adaptive replica to reclaim budget, the directory must stop
// routing readers to it. The block's generation is bumped (the replica
// topology changed exactly as it does on a register or a node loss) and
// the change hook fires, so cached results pinned at the dropped replica
// are purged. Refuses to unregister a replica that was never registered.
func (nn *NameNode) UnregisterReplica(b BlockID, node NodeID) error {
	if err := nn.unregisterReplica(b, node); err != nil {
		return err
	}
	nn.notifyChanged(nn.hook(), b)
	return nil
}

// unregisterReplica performs the removal under the block's shard lock; the
// caller fires the change hook once it holds no locks. Any pending dirty
// mark is consumed too — a dropped replica must not make the next Save
// fail looking for bytes the datanode no longer stores.
func (nn *NameNode) unregisterReplica(b BlockID, node NodeID) error {
	s := nn.blockShard(b).lock()
	defer s.mu.Unlock()
	key := repKey{b, node}
	if _, ok := s.reps[key]; !ok {
		return fmt.Errorf("hdfs: node %d holds no replica of block %d", node, b)
	}
	delete(s.reps, key)
	hosts := s.blocks[b]
	for i, n := range hosts {
		if n == node {
			s.blocks[b] = append(hosts[:i], hosts[i+1:]...)
			break
		}
	}
	if len(s.blocks[b]) == 0 {
		delete(s.blocks, b)
	}
	delete(s.dirty, key)
	s.gens[b]++
	return nil
}

// ReplicaInfo returns Dir_rep's entry for (block, node).
func (nn *NameNode) ReplicaInfo(b BlockID, node NodeID) (ReplicaInfo, bool) {
	s := nn.blockShard(b).rlock()
	defer s.mu.RUnlock()
	info, ok := s.reps[repKey{b, node}]
	return info, ok
}

// ReplicaCount returns the number of registered replicas of a block.
func (nn *NameNode) ReplicaCount(b BlockID) int {
	s := nn.blockShard(b).rlock()
	defer s.mu.RUnlock()
	return len(s.blocks[b])
}

// snapshotForSave copies the file table and Dir_rep and consumes the
// dirty-replica marks, shard by shard. Within a shard the replica copy
// and the dirty consumption are one atomic step under the shard lock, so
// the snapshot can never contain a Dir_rep entry whose dirty mark it
// missed; a registration racing on an already-snapshotted shard keeps
// its mark for the next save.
//
// The two tables are snapshotted in two passes, file tables strictly
// BEFORE replica tables. WriteBlock registers a block's replicas before
// it calls AddBlock, so a block observed under a file in pass one
// already had its replicas registered, and pass two — which starts
// after pass one finishes — cannot miss them: a saved manifest never
// lists a file block without its replicas (which Load would turn into a
// permanently unreadable file). The opposite skew — replicas of a block
// whose AddBlock hasn't landed yet — is benign and was possible under
// the historical single-lock snapshot too: the replicas are persisted,
// and the file entry arrives with the next save.
//
// Replicas are returned sorted by (block, node) so everything
// downstream — the manifest's replica order above all — is
// deterministic instead of leaking shard or map iteration order.
func (nn *NameNode) snapshotForSave() (files map[string][]BlockID, reps []repEntry, dirty map[repKey]bool) {
	files = make(map[string][]BlockID)
	dirty = make(map[repKey]bool)
	for _, s := range nn.shards {
		s.rlock()
		for f, bs := range s.files {
			files[f] = append([]BlockID(nil), bs...)
		}
		s.mu.RUnlock()
	}
	for _, s := range nn.shards {
		s.lock()
		for k, info := range s.reps {
			reps = append(reps, repEntry{k, info})
		}
		for k := range s.dirty {
			dirty[k] = true
		}
		s.dirty = nil
		s.mu.Unlock()
	}
	sort.Slice(reps, func(i, j int) bool {
		if reps[i].key.block != reps[j].key.block {
			return reps[i].key.block < reps[j].key.block
		}
		return reps[i].key.node < reps[j].key.node
	})
	return files, reps, dirty
}

// restoreDirty merges consumed dirty marks back after a failed save, so
// no replica change is ever silently skipped by the next one.
func (nn *NameNode) restoreDirty(dirty map[repKey]bool) {
	for k := range dirty {
		s := nn.blockShard(k.block).lock()
		s.markDirtyLocked(k)
		s.mu.Unlock()
	}
}
