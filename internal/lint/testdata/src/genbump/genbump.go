// Fixture for the genbump analyzer: exported entry points that mutate the
// NameNode's replica/generation maps must (transitively) fire
// notifyChanged. The package declares its own NameNode, which is how the
// analyzer self-scopes.
package genbump

type blockID int

type NameNode struct {
	reps   map[blockID][]int
	gens   map[blockID]uint64
	blocks map[blockID][]int
	files  map[string][]blockID
}

func (n *NameNode) notifyChanged(b blockID) {}

// RegisterReplica models the real split: unexported locked writer,
// exported wrapper that fires the hook. Clean.
func (n *NameNode) RegisterReplica(b blockID, node int) {
	n.registerLocked(b, node)
	n.notifyChanged(b)
}

func (n *NameNode) registerLocked(b blockID, node int) {
	n.reps[b] = append(n.reps[b], node)
}

// SilentBump reaches a generation-map write through a helper but never
// notifies: the cached results for the block go stale.
func (n *NameNode) SilentBump(b blockID) { // want `SilentBump mutates NameNode replica/generation maps but never fires notifyChanged`
	n.bumpGen(b)
}

func (n *NameNode) bumpGen(b blockID) {
	n.gens[b]++
}

// Evict mutates through the delete built-in, which has no *types.Func.
func (n *NameNode) Evict(b blockID) { // want `Evict mutates NameNode replica/generation maps but never fires notifyChanged`
	delete(n.reps, b)
}

// Rename touches only the file table, which does not affect replica
// routing: no notification required.
func (n *NameNode) Rename(oldName, newName string) {
	n.files[newName] = n.files[oldName]
	delete(n.files, oldName)
}

// NotifyOnly fires the hook without writing anything: harmless.
func (n *NameNode) NotifyOnly(b blockID) {
	n.notifyChanged(b)
}
