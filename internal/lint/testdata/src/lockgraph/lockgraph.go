// The lockgraph fixture drives the module-wide lock-acquisition graph
// through the facts mechanism in both directions: a call into the lockz
// dependency under a held local lock contributes the callee's
// transitive acquisitions (object fact), lockz's internal Store.mu →
// Reg.Mu nesting arrives as a package fact, and a direct section on the
// dependency's exported lock closes the cycle — which no single package
// can see. RWMutex upgrades and intra-class nesting are reported too;
// ordered acyclic nesting, sequential sections, TryLock, and
// goroutine-fresh stacks are the accepted shapes. leaf.go models the
// storage layer's leaf locks and its lock-returning helpers.
package lockgraph

import (
	"sync"

	"lockz"
)

type A struct {
	mu    sync.Mutex
	count int
}

// Flush stores under the A lock: with lockz's facts, this is the edge
// lockgraph.A.mu → lockz.Store.mu (and, transitively, → lockz.Reg.Mu).
// Together with Touch's Reg.Mu → A.mu edge the class graph is cyclic.
func (a *A) Flush(s *lockz.Store) {
	a.mu.Lock()
	s.Put(1) // want `lock-acquisition cycle across lockgraph\.A\.mu ⇄ lockz\.Reg\.Mu ⇄ lockz\.Store\.mu`
	a.mu.Unlock()
}

// Touch takes the registry lock first, then the A lock — the reverse
// ordering that makes the cycle reachable.
func (a *A) Touch(r *lockz.Reg) {
	r.Mu.Lock()
	a.mu.Lock()
	a.count++
	a.mu.Unlock()
	r.Mu.Unlock()
}

// Upgrade re-acquires the same RWMutex instance for writing while its
// read lock is held — the classic self-deadlock against any concurrent
// writer.
func Upgrade(r *lockz.Reg) int {
	r.Mu.RLock()
	n := r.N
	r.Mu.Lock() // want `read-to-write upgrade of lockz\.Reg\.Mu while its read lock is held`
	r.N = 0
	r.Mu.Unlock()
	r.Mu.RUnlock()
	return n
}

type Node struct {
	mu sync.Mutex
	v  int
}

type B struct {
	mu sync.Mutex
}

// Transfer locks two instances of one class with no global order —
// Transfer(x, y) here and Transfer(y, x) elsewhere deadlocks.
func Transfer(a, b *Node) {
	a.mu.Lock()
	b.mu.Lock() // want `nested acquisition within lock class lockgraph\.Node\.mu`
	a.v--
	b.v++
	b.mu.Unlock()
	a.mu.Unlock()
}

// Ordered nests B.mu → Node.mu only; with no reverse edge anywhere the
// pair stays a DAG and is accepted.
func Ordered(b *B, n *Node) {
	b.mu.Lock()
	n.mu.Lock()
	n.v++
	n.mu.Unlock()
	b.mu.Unlock()
}

// Sequential sections never overlap: releasing before the dependency
// call means no edge at all.
func (a *A) Sequential(s *lockz.Store) {
	a.mu.Lock()
	a.count++
	a.mu.Unlock()
	s.Put(2)
}

// TryCollect uses TryLock under Node.mu: a nonblocking acquisition
// cannot complete a deadlock cycle, so no Node.mu → B.mu edge is added
// (which would otherwise close a cycle with Ordered).
func TryCollect(n *Node, b *B) {
	n.mu.Lock()
	if b.mu.TryLock() {
		b.mu.Unlock()
	}
	n.mu.Unlock()
}

// SpawnCollector's goroutine runs on a fresh stack: its B.mu section is
// not an edge from the Node.mu the spawner holds (attributing it would
// likewise close a cycle with Ordered).
func SpawnCollector(n *Node, b *B) {
	n.mu.Lock()
	defer n.mu.Unlock()
	go func() {
		b.mu.Lock()
		b.mu.Unlock()
	}()
	n.v++
}
