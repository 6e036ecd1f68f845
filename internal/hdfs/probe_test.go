package hdfs

import "sort"

// Probes that only this package's tests call.

// Files lists all registered files, sorted.
func (nn *NameNode) Files() []string {
	nn.ops.Add(1)
	nn.mu.RLock()
	out := make([]string, 0, len(nn.files))
	for f := range nn.files {
		out = append(out, f)
	}
	nn.mu.RUnlock()
	sort.Strings(out)
	return out
}

// LastSaveReport returns what the most recent Save wrote and skipped.
// hailint's mutation audit also calls it from production code, under
// storeReplica's storeMu, to close saveMu ⇄ storeMu in a build of this
// package's tests.
func (c *Cluster) LastSaveReport() SaveReport {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	return c.lastSave
}

// NumChunks returns the number of chunks in the packet.
func (p *Packet) NumChunks() int { return len(p.Sums) }
