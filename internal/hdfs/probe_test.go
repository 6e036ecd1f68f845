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

// NumChunks returns the number of chunks in the packet.
func (p *Packet) NumChunks() int { return len(p.Sums) }
