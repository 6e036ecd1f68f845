package lockgraph

import "sync"

// The storage layer's leaf locks: a NameNode or DataNode critical section
// does its own map work and takes no other lock, directly or through any
// callee. lock/rlock return holding the namenode lock, so their call sites
// are acquisitions.
type NameNode struct {
	mu    sync.RWMutex
	reps  map[int][]int
	locks int
}

func (n *NameNode) lock() *NameNode  { n.mu.Lock(); n.locks++; return n }
func (n *NameNode) rlock() *NameNode { n.mu.RLock(); return n }

// Lookup really locks the namenode, through the helper.
func (n *NameNode) Lookup(b int) []int {
	s := n.rlock()
	defer s.mu.RUnlock()
	return s.reps[b]
}

// helper takes no lock.
func (n *NameNode) helper() {}

// count is an unexported method that does lock.
func (n *NameNode) count() int {
	n.rlock()
	total := len(n.reps)
	n.mu.RUnlock()
	return total
}

type DataNode struct {
	mu     sync.Mutex
	id     int
	blocks map[int][]byte
}

// ID takes no lock: calling it inside a critical section is fine.
func (dn *DataNode) ID() int { return dn.id }

// lockNode returns nothing but the lock it leaves held.
func (dn *DataNode) lockNode() { dn.mu.Lock() }

type Cluster struct {
	mu   sync.Mutex
	nn   *NameNode
	dead map[int]bool
}

// KillNode really locks the cluster.
func (c *Cluster) KillNode(id int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	was := c.dead[id]
	c.dead[id] = true
	return !was
}

// nestTwoNameNodes is the canonical deadlock shape: A→B here, B→A elsewhere.
func nestTwoNameNodes(a, b *NameNode) {
	a.mu.Lock()
	b.mu.Lock() // want `nested acquisition within lock class lockgraph\.NameNode\.mu`
	b.mu.Unlock()
	a.mu.Unlock()
}

// nestViaHelper: the counting helper acquires just as surely as mu.Lock.
func nestViaHelper(nn *NameNode, dn *DataNode) {
	nn.lock()
	dn.mu.Lock() // want `acquiring lockgraph\.DataNode\.mu while leaf lock lockgraph\.NameNode\.mu is held`
	dn.mu.Unlock()
	nn.mu.Unlock()
}

// nestViaVoidHelper: a helper with no return statement still returns
// holding what it locked, under the caller's receiver expression — which
// dn.mu.Unlock() then releases, so the second namenode section is fine.
func nestViaVoidHelper(dn *DataNode, nn *NameNode) {
	dn.lockNode()
	nn.mu.Lock() // want `acquiring lockgraph\.NameNode\.mu while leaf lock lockgraph\.DataNode\.mu is held`
	nn.mu.Unlock()
	dn.mu.Unlock()
	nn.mu.Lock()
	nn.mu.Unlock()
}

// lookupUnderDeferredLock: a deferred RUnlock pins the section open to the
// function's end, so Lookup's lock nests under the read lock.
func lookupUnderDeferredLock(s, nn *NameNode) []int {
	s.rlock()
	defer s.mu.RUnlock()
	return nn.Lookup(1) // want `nested acquisition within lock class lockgraph\.NameNode\.mu`
}

// lockingCallInCondition: locking calls hidden in an if condition count too.
func lockingCallInCondition(nn *NameNode, c *Cluster) {
	nn.mu.Lock()
	if c.KillNode(1) { // want `acquiring lockgraph\.Cluster\.mu while leaf lock lockgraph\.NameNode\.mu is held`
		nn.mu.Unlock()
		return
	}
	nn.mu.Unlock()
}

// goroutineOwnStack: a spawned goroutine runs on its own stack and
// synchronizes on its own; its lock use is not "under" ours.
func goroutineOwnStack(s, nn *NameNode) {
	s.mu.Lock()
	go func() {
		nn.Lookup(1)
	}()
	s.mu.Unlock()
}

// unexportedUnderLock: a helper that takes no lock is fine under one.
func unexportedUnderLock(s, nn *NameNode) {
	s.mu.Lock()
	nn.helper()
	s.mu.Unlock()
}

// unexportedLockingUnderLock: an unexported helper that does lock is a
// nesting like any other — a name-based rule for exported methods misses
// it.
func unexportedLockingUnderLock(s, nn *NameNode) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return nn.count() // want `nested acquisition within lock class lockgraph\.NameNode\.mu`
}

// exportedLockFreeUnderLock: an exported method that takes no lock is
// fine under one.
func exportedLockFreeUnderLock(nn *NameNode, dn *DataNode) int {
	nn.mu.Lock()
	defer nn.mu.Unlock()
	return dn.ID()
}

// lookupAfterRelease: once the lock drops, locking calls are fine.
func lookupAfterRelease(s, nn *NameNode) []int {
	s.mu.Lock()
	s.mu.Unlock()
	return nn.Lookup(1)
}

// deferredReleaseBalances: Lookup's deferred RUnlock runs before it
// returns, so Lookup is no lock-returning helper and the DataNode section
// after the call nests under nothing.
func deferredReleaseBalances(nn *NameNode, dn *DataNode) []int {
	reps := nn.Lookup(1)
	dn.mu.Lock()
	dn.blocks[1] = nil
	dn.mu.Unlock()
	return reps
}

// assignedHelperBalances: the helper's lock is held under the name its
// result is assigned to, so s.mu.Unlock() releases it.
func assignedHelperBalances(nn *NameNode, b int) []int {
	s := nn.lock()
	s.reps[b] = nil
	s.mu.Unlock()
	return nn.Lookup(b)
}
