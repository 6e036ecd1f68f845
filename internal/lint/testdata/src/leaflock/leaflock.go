// The leaflock fixture models the storage layer's leaf locks: a NameNode
// or DataNode critical section does its own map work and calls only the
// standard library and lock-free functions of its package. The query
// import is another module package, which a leaf section may not call,
// locking or not.
package leaflock

import (
	"sort"
	"sync"

	"query"
)

type NameNode struct {
	mu   sync.RWMutex
	reps map[int][]int
}

// Lookup locks the namenode.
func (n *NameNode) Lookup(b int) []int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.reps[b]
}

// helper takes no lock.
func (n *NameNode) helper() int { return len(n.reps) }

// count is an unexported method that does lock.
func (n *NameNode) count() int {
	n.mu.RLock()
	total := len(n.reps)
	n.mu.RUnlock()
	return total
}

type DataNode struct {
	mu     sync.Mutex
	id     int
	blocks map[int][]byte
}

// ID takes no lock, though it is exported.
func (dn *DataNode) ID() int { return dn.id }

type Cluster struct {
	mu   sync.Mutex
	nn   *NameNode
	dead map[int]bool
}

// KillNode locks the cluster.
func (c *Cluster) KillNode(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	was := c.dead[id]
	c.dead[id] = true
	return !was
}

// register is the namenode mutant's shape: a locking lookup inside the
// namenode's own section, a self-deadlock against any writer.
func (n *NameNode) register(b, node int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	_ = n.Lookup(b) // want `Lookup called while leaf lock n\.mu is held`
	n.reps[b] = append(n.reps[b], node)
}

// recvPacket is the datanode mutant's shape: a namenode lookup inside a
// datanode section.
func (c *Cluster) recvPacket(dn *DataNode, b int) {
	dn.mu.Lock()
	dn.blocks[b] = nil
	_ = c.nn.Lookup(b) // want `Lookup called while leaf lock dn\.mu is held`
	dn.mu.Unlock()
}

// unexportedLockingUnderLock: an unexported function that locks is
// reported like an exported one.
func unexportedLockingUnderLock(s, nn *NameNode) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return nn.count() // want `count called while leaf lock s\.mu is held`
}

// lockingCallInCondition: calls in a condition and in a loop body are
// inside the section too.
func lockingCallInCondition(nn *NameNode, c *Cluster) {
	nn.mu.Lock()
	if c.KillNode(1) { // want `KillNode called while leaf lock nn\.mu is held`
		nn.mu.Unlock()
		return
	}
	for b := range nn.reps {
		c.KillNode(b) // want `KillNode called while leaf lock nn\.mu is held`
	}
	nn.mu.Unlock()
}

// otherPackageUnderLock: a call into another module package is reported
// even if it takes no lock: the rule does not look past its package.
func otherPackageUnderLock(nn *NameNode, p query.Predicate) string {
	nn.mu.RLock()
	defer nn.mu.RUnlock()
	return p.Canonical() // want `Canonical called while leaf lock nn\.mu is held`
}

// sectionInGoroutine: a goroutine's own leaf section is checked on its own
// stack.
func sectionInGoroutine(dn *DataNode, nn *NameNode) {
	go func() {
		dn.mu.Lock()
		nn.Lookup(1) // want `Lookup called while leaf lock dn\.mu is held`
		dn.mu.Unlock()
	}()
}

// nestNameNodeDataNode: a datanode lock under the namenode's is a second
// lock, as if one process held the other's.
func nestNameNodeDataNode(nn *NameNode, dn *DataNode) {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	dn.mu.Lock() // want `dn\.mu taken while leaf lock nn\.mu is held`
	dn.blocks[1] = nil
	dn.mu.Unlock()
}

// nestDataNodeNameNode: the reverse order is reported too.
func nestDataNodeNameNode(nn *NameNode, dn *DataNode) {
	dn.mu.Lock()
	nn.mu.RLock() // want `nn\.mu taken while leaf lock dn\.mu is held`
	_ = nn.reps[1]
	nn.mu.RUnlock()
	dn.mu.Unlock()
}

// clusterLockUnderLeaf: so is any other mutex.
func (c *Cluster) clusterLockUnderLeaf(dn *DataNode) {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	c.mu.Lock() // want `c\.mu taken while leaf lock dn\.mu is held`
	c.dead[dn.id] = true
	c.mu.Unlock()
}

// hosts takes no lock itself, but calls one of this package's functions
// that does.
func (n *NameNode) hosts(b int) int { return len(n.Lookup(b)) }

// lockingViaWrapper: a lock-free wrapper around a locking call is reported
// at the call under the lock.
func lockingViaWrapper(nn *NameNode, dn *DataNode) int {
	dn.mu.Lock()
	defer dn.mu.Unlock()
	return nn.hosts(1) // want `hosts called while leaf lock dn\.mu is held`
}

// exportedLockFreeUnderLock: an exported method that takes no lock is
// fine under one.
func exportedLockFreeUnderLock(nn *NameNode, dn *DataNode) int {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return dn.ID()
}

// unexportedUnderLock: so is an unexported one, and the standard library.
func unexportedUnderLock(s *NameNode, keys []int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	sort.Ints(keys)
	return s.helper() + len(keys)
}

// lookupAfterRelease: once the lock drops, locking calls are fine.
func lookupAfterRelease(s, nn *NameNode) []int {
	s.mu.Lock()
	s.reps[1] = nil
	s.mu.Unlock()
	return nn.Lookup(1)
}

// releaseInBranch: an unlock inside a branch ends the section for the rest
// of that branch.
func releaseInBranch(nn *NameNode, c *Cluster, b int) bool {
	nn.mu.Lock()
	if len(nn.reps[b]) == 0 {
		nn.mu.Unlock()
		return c.KillNode(b)
	}
	nn.mu.Unlock()
	return false
}

// goroutineOwnStack: a spawned goroutine runs on its own stack; its lock
// use is not under ours.
func goroutineOwnStack(s, nn *NameNode) {
	s.mu.Lock()
	go func() {
		nn.Lookup(1)
	}()
	s.mu.Unlock()
}

// clusterSection: the cluster's own mutex is no leaf lock.
func (c *Cluster) clusterSection() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nn.Lookup(1)
}
