package hdfs

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
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
	// Adaptive is set on a replica the adaptive indexer built, nil on
	// every replica an upload stored.
	Adaptive *AdaptiveRecord `json:",omitempty"`
}

// AdaptiveRecord is what the directory knows of a replica the adaptive
// indexer built: the file whose jobs asked for it, its budget charge,
// whether it was added (evictable) or converted an upload's replica in
// place, and its heat — jobs that index-scanned it, and the latest one.
type AdaptiveRecord struct {
	File      string
	Charged   int64
	Added     bool
	Touches   int
	LastTouch uint64
}

// Heat is one adaptive replica's use, as SetHeat records it.
type Heat struct {
	Block     BlockID
	Node      NodeID
	Touches   int
	LastTouch uint64
}

// NameNode keeps the paper's two directories (§3.3):
//
//	Dir_block: blockID            → set of datanodes
//	Dir_rep:   (blockID,datanode) → HAILBlockReplicaInfo
//
// plus the file → blocks mapping every filesystem needs. Classic HDFS has
// only Dir_block; Dir_rep is HAIL's extension, and is what lets the
// scheduler send map tasks to the replica with the right index.
//
// One lock guards the whole directory. Its critical sections are map
// lookups that take no other lock, and multi-entry outputs (Files,
// InvalidateNode's hook order, the save manifest's replicas) are sorted,
// so no map iteration order leaks out.
type NameNode struct {
	mu     sync.RWMutex
	ops    atomic.Uint64 // directory operations served (lock acquisitions)
	files  map[string][]BlockID
	blocks map[BlockID][]NodeID   // Dir_block; insertion order = pipeline order
	reps   map[repKey]ReplicaInfo // Adaptive is always nil here: see adaptive
	// adaptive holds the adaptive replicas' records beside reps: their heat
	// changes with every job, and heat is not topology (see SetHeat).
	adaptive map[repKey]AdaptiveRecord
	// gens counts replica-topology changes per block: any event that can
	// alter which replica a reader would open — a new replica, an in-place
	// reorganization, a node loss or return — bumps the block's
	// generation. Block-level result-cache entries embed the generation
	// they were computed at, so stale results become unreachable instead
	// of being served.
	gens map[BlockID]uint64
	// dirty marks replicas whose stored bytes changed since the last
	// Save. It lives under the directory lock so registration and
	// dirty-marking are one atomic step (see Cluster.Save).
	dirty map[repKey]bool
	// quarantined maps each replica QuarantineReplica took out of service
	// to the reason it was given.
	quarantined map[repKey]string

	// onChange, if set, is called (outside the directory lock) with each
	// block whose generation was bumped — the result cache's active
	// invalidation hook. It fires exactly once per affected block per
	// mutating call; multi-block mutations (InvalidateNode) fire it in
	// ascending block order.
	hookMu   sync.RWMutex
	onChange func(BlockID)
}

type repKey struct {
	block BlockID
	node  NodeID
}

// Replica is one Dir_rep entry: a block's replica on a node, and what
// the directory knows of it.
type Replica struct {
	Block BlockID     `json:"block"`
	Node  NodeID      `json:"node"`
	Info  ReplicaInfo `json:"info"`
}

// NewNameNode returns an empty namenode.
func NewNameNode() *NameNode {
	return &NameNode{
		files:  make(map[string][]BlockID),
		blocks: make(map[BlockID][]NodeID),
		reps:   make(map[repKey]ReplicaInfo),
		gens:   make(map[BlockID]uint64),
	}
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
// zero and is bumped by RegisterReplica, UpdateReplica, Cluster.DropReplica,
// QuarantineReplica and InvalidateNode.
func (nn *NameNode) Generation(b BlockID) uint64 {
	nn.ops.Add(1)
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	return nn.gens[b]
}

// notifyChanged fires the replica-change hook for the given blocks. Must
// be called with the directory lock NOT held.
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
// block order.
func (nn *NameNode) InvalidateNode(node NodeID) {
	var changed []BlockID
	nn.ops.Add(1)
	nn.mu.Lock()
	for b, nodes := range nn.blocks {
		for _, n := range nodes {
			if n == node {
				nn.gens[b]++
				changed = append(changed, b)
				break
			}
		}
	}
	nn.mu.Unlock()
	sort.Slice(changed, func(i, j int) bool { return changed[i] < changed[j] })
	nn.notifyChanged(nn.hook(), changed...)
}

// ErrNoSuchFile is what FileBlocks returns (wrapped, with the name) for a
// file the namenode has never been given a block of.
var ErrNoSuchFile = errors.New("hdfs: no such file")

// AddBlock appends a block to a file's block list.
func (nn *NameNode) AddBlock(file string, b BlockID) {
	nn.ops.Add(1)
	nn.mu.Lock()
	defer nn.mu.Unlock()
	nn.files[file] = append(nn.files[file], b)
}

// FileBlocks returns the blocks of a file in order.
func (nn *NameNode) FileBlocks(file string) ([]BlockID, error) {
	nn.ops.Add(1)
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	bs, ok := nn.files[file]
	if !ok {
		return nil, fmt.Errorf("%w %q", ErrNoSuchFile, file)
	}
	return append([]BlockID(nil), bs...), nil
}

// RegisterReplica records that node stores a replica of block with the
// given metadata. Datanodes call this at the end of the upload pipeline
// (§3.2 steps 11 and 14).
func (nn *NameNode) RegisterReplica(b BlockID, node NodeID, info ReplicaInfo) {
	nn.registerReplica(b, node, info, false)
	nn.notifyChanged(nn.hook(), b)
}

// registerReplica performs the registration under the directory lock,
// optionally marking the replica dirty for the next incremental Save in
// the same atomic step — the cluster's register-and-mark-dirty path needs
// the two inseparable so a save snapshot can never observe the
// registration without its dirty mark. The caller fires the change hook
// once it holds no locks.
func (nn *NameNode) registerReplica(b BlockID, node NodeID, info ReplicaInfo, markDirty bool) {
	nn.ops.Add(1)
	nn.mu.Lock()
	defer nn.mu.Unlock()
	key := repKey{b, node}
	if _, dup := nn.reps[key]; !dup {
		nn.blocks[b] = append(nn.blocks[b], node)
	}
	nn.setInfoLocked(key, info)
	if markDirty {
		nn.markDirtyLocked(key)
	}
}

// setInfoLocked stores a replica's Dir_rep entry, its adaptive record
// apart, and bumps its block's generation. Caller holds nn.mu.
func (nn *NameNode) setInfoLocked(key repKey, info ReplicaInfo) {
	if info.Adaptive != nil {
		if nn.adaptive == nil {
			nn.adaptive = make(map[repKey]AdaptiveRecord)
		}
		nn.adaptive[key] = *info.Adaptive
		info.Adaptive = nil
	} else {
		delete(nn.adaptive, key)
	}
	nn.reps[key] = info
	nn.gens[key.block]++
}

// infoLocked returns a replica's Dir_rep entry with its adaptive record,
// if it has one. Caller holds nn.mu.
func (nn *NameNode) infoLocked(key repKey) (ReplicaInfo, bool) {
	info, ok := nn.reps[key]
	if rec, adaptive := nn.adaptive[key]; adaptive {
		cp := rec // allocated only here: an upload's replicas cost nothing
		info.Adaptive = &cp
	}
	return info, ok
}

// markDirtyLocked records a replica's bytes as changed since the last
// Save. Caller holds nn.mu.
func (nn *NameNode) markDirtyLocked(key repKey) {
	if nn.dirty == nil {
		nn.dirty = make(map[repKey]bool)
	}
	nn.dirty[key] = true
}

// GetHosts is the BlockLocation.getHosts lookup: all datanodes holding a
// replica of the block, in registration order.
func (nn *NameNode) GetHosts(b BlockID) []NodeID {
	nn.ops.Add(1)
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	return append([]NodeID(nil), nn.blocks[b]...)
}

// GetHostsWithIndex is HAIL's new lookup (§4.3): the datanodes whose
// replica of the block carries a clustered index on the given attribute.
func (nn *NameNode) GetHostsWithIndex(b BlockID, column int) []NodeID {
	nn.ops.Add(1)
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	var out []NodeID
	for _, node := range nn.blocks[b] {
		info := nn.reps[repKey{b, node}]
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
// No binary calls it; it is the genbump audit mutant's target.
func (nn *NameNode) UpdateReplica(b BlockID, node NodeID, info ReplicaInfo) error {
	if err := nn.updateReplica(b, node, info, false); err != nil {
		return err
	}
	nn.notifyChanged(nn.hook(), b)
	return nil
}

// updateReplica is registerReplica's counterpart for Dir_rep updates.
func (nn *NameNode) updateReplica(b BlockID, node NodeID, info ReplicaInfo, markDirty bool) error {
	nn.ops.Add(1)
	nn.mu.Lock()
	defer nn.mu.Unlock()
	key := repKey{b, node}
	if _, ok := nn.reps[key]; !ok {
		return fmt.Errorf("hdfs: node %d holds no replica of block %d", node, b)
	}
	nn.setInfoLocked(key, info)
	if markDirty {
		nn.markDirtyLocked(key)
	}
	return nil
}

// unregisterReplica removes (block, node) from Dir_block and Dir_rep
// under the directory lock and bumps the block's generation — the
// namenode side of Cluster.DropReplica, which fires the change hook once
// it holds no locks. Refuses a replica that was never registered.
func (nn *NameNode) unregisterReplica(b BlockID, node NodeID) error {
	nn.ops.Add(1)
	nn.mu.Lock()
	defer nn.mu.Unlock()
	key := repKey{b, node}
	if _, ok := nn.reps[key]; !ok {
		return fmt.Errorf("hdfs: node %d holds no replica of block %d", node, b)
	}
	nn.removeLocked(key)
	return nil
}

// removeLocked drops a replica, if registered, from Dir_rep and Dir_block
// and bumps its block's generation. Any pending dirty mark is consumed
// too — a dropped replica must not make the next Save fail looking for
// bytes the datanode no longer stores. Caller holds nn.mu.
func (nn *NameNode) removeLocked(key repKey) {
	b := key.block
	delete(nn.reps, key)
	delete(nn.adaptive, key)
	hosts := nn.blocks[b]
	for i, n := range hosts {
		if n == key.node {
			nn.blocks[b] = append(hosts[:i], hosts[i+1:]...)
			break
		}
	}
	if len(nn.blocks[b]) == 0 {
		delete(nn.blocks, b)
	}
	delete(nn.dirty, key)
	nn.gens[b]++
}

// Quarantine is one replica taken out of service because its stored
// bytes failed to verify, and why.
type Quarantine struct {
	Block  BlockID
	Node   NodeID
	Reason string
}

// QuarantineReplica takes (block, node) out of service: the replica is
// unregistered if it was registered, the block's generation is bumped and
// the change hook fires, as on any replica-topology change, and the reason
// is kept for Quarantined. It refuses, and reports false, when the replica
// is the block's last registered one: a copy that fails some reads still
// serves the others. Load calls it for a replica whose files are missing
// or do not verify, Cluster.ReadFrom for one that failed a checksum.
func (nn *NameNode) QuarantineReplica(b BlockID, node NodeID, reason string) bool {
	key := repKey{b, node}
	nn.ops.Add(1)
	nn.mu.Lock()
	if _, ok := nn.reps[key]; ok && len(nn.blocks[b]) == 1 {
		nn.mu.Unlock()
		return false
	}
	nn.removeLocked(key)
	if nn.quarantined == nil {
		nn.quarantined = make(map[repKey]string)
	}
	nn.quarantined[key] = reason
	nn.mu.Unlock()
	nn.notifyChanged(nn.hook(), b)
	return true
}

// Quarantined lists every quarantined replica, sorted by (block, node).
func (nn *NameNode) Quarantined() []Quarantine {
	nn.mu.RLock()
	out := make([]Quarantine, 0, len(nn.quarantined))
	for k, why := range nn.quarantined {
		out = append(out, Quarantine{k.block, k.node, why})
	}
	nn.mu.RUnlock()
	slices.SortFunc(out, func(a, b Quarantine) int { return cmp.Or(cmp.Compare(a.Block, b.Block), cmp.Compare(a.Node, b.Node)) })
	return out
}

// ReplicaInfo returns Dir_rep's entry for (block, node).
func (nn *NameNode) ReplicaInfo(b BlockID, node NodeID) (ReplicaInfo, bool) {
	nn.ops.Add(1)
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	return nn.infoLocked(repKey{b, node})
}

// AdaptiveReplicas lists the replicas with an adaptive record, sorted by
// (block, node): the registry the adaptive indexer starts from.
func (nn *NameNode) AdaptiveReplicas() []Replica {
	nn.ops.Add(1)
	nn.mu.RLock()
	out := make([]Replica, 0, len(nn.adaptive))
	for k := range nn.adaptive {
		info, _ := nn.infoLocked(k)
		out = append(out, Replica{Block: k.block, Node: k.node, Info: info})
	}
	nn.mu.RUnlock()
	slices.SortFunc(out, func(a, b Replica) int { return cmp.Or(cmp.Compare(a.Block, b.Block), cmp.Compare(a.Node, b.Node)) })
	return out
}

// SetHeat records the heat of adaptive replicas still registered with a
// record. Heat is not topology: it bumps no generation and fires no hook,
// so no cached result is purged for it.
func (nn *NameNode) SetHeat(hs []Heat) {
	nn.ops.Add(1)
	nn.mu.Lock()
	defer nn.mu.Unlock()
	for _, h := range hs {
		key := repKey{h.Block, h.Node}
		if rec, ok := nn.adaptive[key]; ok {
			rec.Touches, rec.LastTouch = h.Touches, h.LastTouch
			nn.adaptive[key] = rec
		}
	}
}

// ReplicaCount returns the number of registered replicas of a block.
func (nn *NameNode) ReplicaCount(b BlockID) int {
	nn.ops.Add(1)
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	return len(nn.blocks[b])
}

// restoreDirty merges consumed dirty marks back after a failed save, so
// no replica change is ever silently skipped by the next one.
func (nn *NameNode) restoreDirty(dirty map[repKey]bool) {
	nn.ops.Add(1)
	nn.mu.Lock()
	defer nn.mu.Unlock()
	for k := range dirty {
		nn.markDirtyLocked(k)
	}
}
