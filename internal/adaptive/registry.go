package adaptive

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Registry persistence: the lifecycle manager's replica registry — which
// replicas are adaptive, what they cost against the budget, and how hot
// they are — is in-process state. A CLI like hailquery builds one Indexer
// per invocation, so without persistence the budget would reset every
// run and eviction could never see a "cold" replica. SaveRegistry and
// LoadRegistry store the registry as a small JSON sidecar next to the
// filesystem manifest, and AdoptReplicas seeds a fresh Indexer from it,
// re-validating every entry against the namenode directory (a replica
// dropped or lost since the save is simply not adopted).

// AdoptReplicas seeds the lifecycle registry with replicas a previous
// Indexer built (LoadRegistry's output). Entries whose (block, node) the
// namenode no longer lists with a matching index are skipped — the
// directory is authoritative. Adopted charges count against the budget,
// and the heat clock fast-forwards past the hottest adopted entry so
// relative coldness survives the restart. Returns the number of replicas
// adopted.
func (i *Indexer) AdoptReplicas(reps []ReplicaHeat) int {
	nn := i.Cluster.NameNode()
	adopted := 0
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, r := range reps {
		info, ok := nn.ReplicaInfo(r.Block, r.Node)
		if !ok || !info.HasIndex || info.SortColumn != r.Column {
			continue
		}
		id := repID{r.Block, r.Column}
		if _, dup := i.replicas[id]; dup {
			continue
		}
		i.replicas[id] = &replicaRecord{
			file: r.File, col: r.Column, block: r.Block, node: r.Node,
			charged: r.Bytes, added: r.Added,
			lastTouch: r.LastTouch, touches: r.Touches,
		}
		i.extra += r.Bytes
		if r.LastTouch > i.clock {
			i.clock = r.LastTouch
		}
		adopted++
	}
	return adopted
}

// SaveRegistry writes the registry snapshot as JSON to path. The write is
// atomic — data goes to a temp file in the same directory which is then
// renamed into place — so a crash mid-write leaves either the previous
// snapshot or the new one, never a torn file.
func SaveRegistry(path string, reps []ReplicaHeat) error {
	data, err := json.MarshalIndent(reps, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadRegistry reads a registry snapshot written by SaveRegistry. A
// missing file is an empty registry, not an error — and so is a corrupt
// or truncated one: the registry is a cache of lifecycle state that
// AdoptReplicas re-validates against the namenode anyway, so a torn
// sidecar (pre-atomic-write crash, disk corruption) degrades to a cold
// start with a warning instead of wedging every subsequent invocation.
// Fields older sidecars carry that ReplicaHeat no longer has (a
// wall-clock TouchedAt) are ignored.
func LoadRegistry(path string) ([]ReplicaHeat, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var reps []ReplicaHeat
	if err := json.Unmarshal(raw, &reps); err != nil {
		fmt.Fprintf(os.Stderr, "adaptive: ignoring corrupt registry %s: %v\n", path, err)
		return nil, nil
	}
	return reps, nil
}

// RegistryFile is the registry sidecar's conventional filename, next to
// the filesystem manifest.
const RegistryFile = "adaptive-registry.json"
