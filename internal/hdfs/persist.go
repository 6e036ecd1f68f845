package hdfs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// On-disk persistence for a cluster, mirroring HDFS's storage layout: each
// replica is a data file plus a separate checksum file (one CRC-32 per
// 512-byte chunk), and the namenode's directories are a manifest. This is
// what lets the hailload and hailquery commands operate across process
// runs.

// manifest is the serialized namenode + cluster state.
type manifest struct {
	Nodes     int                  `json:"nodes"`
	NextBlock BlockID              `json:"next_block"`
	Files     map[string][]BlockID `json:"files"`
	Replicas  []manifestReplica    `json:"replicas"`
}

type manifestReplica struct {
	Block BlockID     `json:"block"`
	Node  NodeID      `json:"node"`
	Info  ReplicaInfo `json:"info"`
}

func replicaDataPath(dir string, node NodeID, b BlockID) string {
	return filepath.Join(dir, fmt.Sprintf("dn%d", node), fmt.Sprintf("blk_%d.dat", b))
}

func replicaSumPath(dir string, node NodeID, b BlockID) string {
	return filepath.Join(dir, fmt.Sprintf("dn%d", node), fmt.Sprintf("blk_%d.crc", b))
}

// SaveReport summarizes what one Save actually wrote: replicas whose data
// and checksum files were (re)written versus replicas skipped because they
// were unchanged since the previous save to the same directory.
type SaveReport struct {
	ReplicasWritten int
	ReplicasSkipped int
}

// Save writes the cluster's state to dir: a manifest plus per-datanode
// subdirectories holding each replica's data and checksum files.
//
// Saves are incremental: the cluster tracks which replicas changed since
// the last Save (new uploads, adaptive conversions, re-replications), and
// a repeat Save to the same directory rewrites only those — an adaptive
// query that converted three blocks persists three replicas, not the whole
// filesystem. The manifest is always rewritten (it is small and holds the
// authoritative Dir_block/Dir_rep state). Saving to a different directory,
// or from a cluster that never saved, writes everything.
func (c *Cluster) Save(dir string) error {
	// Whole saves are serialized: concurrent saves to different
	// directories would race on the dirty-mark consumption and the
	// savedTo transition (the second save could treat itself as
	// incremental against marks the first one consumed). Uploads are not
	// blocked — they synchronize with the save only through the
	// namenode's lock, which both sides hold briefly.
	c.saveOpMu.Lock()
	defer c.saveOpMu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Snapshot the namenode and consume its dirty marks in one critical
	// section (snapshotForSave): a manifest entry is never paired with
	// stale replica files. Uploads racing with the save leave fresh marks
	// for the next Save; on failure the consumed marks are merged back.
	c.saveMu.Lock()
	full := c.savedTo != dir
	c.saveMu.Unlock()
	files, reps, dirty := c.nn.snapshotForSave()
	m := manifest{
		Nodes: c.NumNodes(),
		Files: files,
	}
	success := false
	defer func() {
		if !success {
			c.nn.restoreDirty(dirty)
		}
	}()
	// Snapshot the block counter after the namenode state: any block the
	// snapshot saw was allocated under c.mu before its replicas were
	// registered, so this read is guaranteed past it and a Load can never
	// hand out an ID the manifest already uses.
	c.mu.Lock()
	m.NextBlock = c.nextBlock
	c.mu.Unlock()

	var report SaveReport
	for _, rp := range reps {
		m.Replicas = append(m.Replicas, manifestReplica{
			Block: rp.key.block, Node: rp.key.node, Info: rp.info,
		})
		dataPath := replicaDataPath(dir, rp.key.node, rp.key.block)
		sumPath := replicaSumPath(dir, rp.key.node, rp.key.block)
		if !full && !dirty[rp.key] {
			// Unchanged since the last save of this directory; still guard
			// against files removed behind our back. Both files must be
			// present — Load needs the checksum file too.
			_, dataErr := os.Stat(dataPath)
			_, sumErr := os.Stat(sumPath)
			if dataErr == nil && sumErr == nil {
				report.ReplicasSkipped++
				continue
			}
		}
		dn := c.dns[rp.key.node]
		dn.mu.RLock()
		stored, ok := dn.replicas[rp.key.block]
		dn.mu.RUnlock()
		if !ok {
			return fmt.Errorf("hdfs: namenode lists replica (%d,%d) the datanode does not store",
				rp.key.block, rp.key.node)
		}
		if err := os.MkdirAll(filepath.Dir(dataPath), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(dataPath, stored.data, 0o644); err != nil {
			return err
		}
		sums := make([]byte, 0, 4*len(stored.sums))
		for _, s := range stored.sums {
			sums = binary.LittleEndian.AppendUint32(sums, s)
		}
		if err := os.WriteFile(sumPath, sums, 0o644); err != nil {
			return err
		}
		report.ReplicasWritten++
	}

	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), data, 0o644); err != nil {
		return err
	}
	c.saveMu.Lock()
	c.savedTo = dir
	c.lastSave = report
	c.saveMu.Unlock()
	success = true
	return nil
}

// LastSaveReport returns what the most recent Save wrote and skipped.
func (c *Cluster) LastSaveReport() SaveReport {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	return c.lastSave
}

// Load reconstructs a cluster from a directory written by Save, verifying
// every replica against its checksum file. A replica whose files cannot
// be read or do not verify — a missing data file, a wrong length, a
// checksum mismatch — is quarantined (NameNode.Quarantined names it and
// why) and the cluster loads without it; Load fails only when that leaves
// a file block with no replica.
func Load(dir string) (*Cluster, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("hdfs: bad manifest: %v", err)
	}
	c, err := NewCluster(m.Nodes)
	if err != nil {
		return nil, err
	}
	c.nextBlock = m.NextBlock
	for f, bs := range m.Files {
		for _, b := range bs {
			c.nn.AddBlock(f, b)
		}
	}
	for _, rp := range m.Replicas {
		if int(rp.Node) < 0 || int(rp.Node) >= m.Nodes {
			return nil, fmt.Errorf("hdfs: manifest replica on unknown node %d", rp.Node)
		}
		data, sums, err := readReplica(dir, rp.Node, rp.Block)
		if err != nil {
			c.nn.QuarantineReplica(rp.Block, rp.Node, err.Error())
			continue
		}
		if err := c.dns[rp.Node].flush(rp.Block, data, sums); err != nil {
			return nil, err
		}
		c.nn.RegisterReplica(rp.Block, rp.Node, rp.Info)
	}
	for _, f := range slices.Sorted(maps.Keys(m.Files)) {
		for _, b := range m.Files[f] {
			if c.nn.ReplicaCount(b) > 0 {
				continue
			}
			var why []string
			for _, q := range c.nn.Quarantined() {
				if q.Block == b {
					why = append(why, fmt.Sprintf("node %d: %s", q.Node, q.Reason))
				}
			}
			return nil, fmt.Errorf("hdfs: block %d of %s has no replica that verifies (%s)", b, f, strings.Join(why, "; "))
		}
	}
	// Everything just read from dir is by definition in sync with it: a
	// later Save back to the same directory only writes what changes.
	// (Load registers replicas through the non-dirty path, so the
	// namenode holds no dirty marks.)
	c.saveMu.Lock()
	c.savedTo = dir
	c.saveMu.Unlock()
	return c, nil
}

// readReplica reads one replica's data and checksum files from dir and
// verifies the one against the other.
func readReplica(dir string, node NodeID, b BlockID) ([]byte, []uint32, error) {
	data, err := os.ReadFile(replicaDataPath(dir, node, b))
	if err != nil {
		return nil, nil, err
	}
	rawSums, err := os.ReadFile(replicaSumPath(dir, node, b))
	if err != nil {
		return nil, nil, err
	}
	if len(rawSums)%4 != 0 {
		return nil, nil, fmt.Errorf("hdfs: checksum file of %d bytes is not whole checksums", len(rawSums))
	}
	sums := make([]uint32, len(rawSums)/4)
	for i := range sums {
		sums[i] = binary.LittleEndian.Uint32(rawSums[i*4:])
	}
	if err := VerifyStored(data, sums); err != nil {
		return nil, nil, err
	}
	return data, sums, nil
}
