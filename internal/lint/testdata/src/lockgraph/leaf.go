package lockgraph

import "sync"

// The storage layer's leaf locks: a dirShard or DataNode critical section
// does its own map work and takes no other lock, directly or through any
// callee. lock/rlock return holding the shard lock, so their call sites
// are acquisitions.
type dirShard struct {
	mu    sync.RWMutex
	reps  map[int][]int
	locks int
}

func (s *dirShard) lock() *dirShard  { s.mu.Lock(); s.locks++; return s }
func (s *dirShard) rlock() *dirShard { s.mu.RLock(); return s }

type DataNode struct {
	mu     sync.Mutex
	id     int
	blocks map[int][]byte
}

// ID takes no lock: calling it inside a critical section is fine.
func (dn *DataNode) ID() int { return dn.id }

// lockNode returns nothing but the lock it leaves held.
func (dn *DataNode) lockNode() { dn.mu.Lock() }

type NameNode struct {
	shards []*dirShard
}

// Lookup really locks a shard, through the helper.
func (n *NameNode) Lookup(b int) []int {
	s := n.shards[b%len(n.shards)].rlock()
	defer s.mu.RUnlock()
	return s.reps[b]
}

// helper takes no lock.
func (n *NameNode) helper() {}

// count is an unexported method that does lock: every shard in turn.
func (n *NameNode) count() int {
	total := 0
	for _, s := range n.shards {
		s.rlock()
		total += len(s.reps)
		s.mu.RUnlock()
	}
	return total
}

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

// nestTwoShards is the canonical deadlock shape: A→B here, B→A elsewhere.
func nestTwoShards(a, b *dirShard) {
	a.mu.Lock()
	b.mu.Lock() // want `nested acquisition within lock class lockgraph\.dirShard\.mu`
	b.mu.Unlock()
	a.mu.Unlock()
}

// nestViaHelper: the counting helper acquires just as surely as mu.Lock.
func nestViaHelper(s *dirShard, dn *DataNode) {
	s.lock()
	dn.mu.Lock() // want `acquiring lockgraph\.DataNode\.mu while leaf lock lockgraph\.dirShard\.mu is held`
	dn.mu.Unlock()
	s.mu.Unlock()
}

// nestViaVoidHelper: a helper with no return statement still returns
// holding what it locked, under the caller's receiver expression — which
// dn.mu.Unlock() then releases, so the second shard section is fine.
func nestViaVoidHelper(dn *DataNode, s *dirShard) {
	dn.lockNode()
	s.mu.Lock() // want `acquiring lockgraph\.dirShard\.mu while leaf lock lockgraph\.DataNode\.mu is held`
	s.mu.Unlock()
	dn.mu.Unlock()
	s.mu.Lock()
	s.mu.Unlock()
}

// facadeUnderDeferredLock: a deferred RUnlock pins the section open to the
// function's end, so Lookup's shard lock nests under the read lock.
func facadeUnderDeferredLock(s *dirShard, nn *NameNode) []int {
	s.rlock()
	defer s.mu.RUnlock()
	return nn.Lookup(1) // want `nested acquisition within lock class lockgraph\.dirShard\.mu`
}

// facadeInCondition: locking calls hidden in an if condition count too.
func facadeInCondition(s *dirShard, c *Cluster) {
	s.mu.Lock()
	if c.KillNode(1) { // want `acquiring lockgraph\.Cluster\.mu while leaf lock lockgraph\.dirShard\.mu is held`
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
}

// goroutineOwnStack: a spawned goroutine runs on its own stack and
// synchronizes on its own; its lock use is not "under" ours.
func goroutineOwnStack(s *dirShard, nn *NameNode) {
	s.mu.Lock()
	go func() {
		nn.Lookup(1)
	}()
	s.mu.Unlock()
}

// unexportedUnderLock: a helper that takes no lock is fine under one.
func unexportedUnderLock(s *dirShard, nn *NameNode) {
	s.mu.Lock()
	nn.helper()
	s.mu.Unlock()
}

// unexportedLockingUnderLock: an unexported helper that does lock is a
// nesting like any other — a name-based façade rule misses it.
func unexportedLockingUnderLock(s *dirShard, nn *NameNode) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return nn.count() // want `nested acquisition within lock class lockgraph\.dirShard\.mu`
}

// exportedLockFreeUnderLock: an exported method that takes no lock is
// fine under one.
func exportedLockFreeUnderLock(s *dirShard, dn *DataNode) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return dn.ID()
}

// facadeAfterRelease: once the lock drops, locking calls are fine.
func facadeAfterRelease(s *dirShard, nn *NameNode) []int {
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
	s := nn.shards[b].lock()
	s.reps[b] = nil
	s.mu.Unlock()
	return nn.Lookup(b)
}
