package hdfs

import (
	"cmp"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// On-disk persistence for a cluster, mirroring HDFS's storage layout: each
// replica is a data file plus a separate checksum file (one CRC-32 per
// 512-byte chunk), and the namenode's directories — the adaptive indexer's
// records among them — are a manifest. This is what lets the hailload,
// hailquery and haild commands operate across process runs.
//
// The manifest's rename is the one commit point. A save writes every
// replica file it needs to a path the directory's committed manifest does
// not list, fsyncs it, and only then replaces the manifest, so a save that
// dies at any step leaves the directory loading as it was before the save
// or as the save meant it to be.

// manifest is the serialized namenode + cluster state.
type manifest struct {
	Nodes     int                  `json:"nodes"`
	NextBlock BlockID              `json:"next_block"`
	Files     map[string][]BlockID `json:"files"`
	Replicas  []manifestReplica    `json:"replicas"`
}

// manifestReplica is one manifest entry: a Dir_rep entry and which of the
// replica's two file pairs holds its bytes.
type manifestReplica struct {
	Replica
	// Alt is set when the bytes are in blk_<b>_alt.dat and .crc rather
	// than blk_<b>.dat and .crc. A save that rewrites a replica the
	// committed manifest lists writes the pair that manifest does not
	// name, so it never overwrites committed bytes.
	Alt bool `json:"alt,omitempty"`
}

// listing maps every replica the manifest lists to its file pair.
func (m *manifest) listing() map[repKey]bool {
	out := make(map[repKey]bool, len(m.Replicas))
	for _, rp := range m.Replicas {
		out[repKey{rp.Block, rp.Node}] = rp.Alt
	}
	return out
}

// replicaFiles returns the paths of a replica's data and checksum files in
// its primary or its alternate pair.
func replicaFiles(dir string, node NodeID, b BlockID, alt bool) (data, sums string) {
	name := fmt.Sprintf("blk_%d", b)
	if alt {
		name += "_alt"
	}
	base := filepath.Join(dir, fmt.Sprintf("dn%d", node), name)
	return base + ".dat", base + ".crc"
}

// fileSystem is the file operations Save performs: the operating system's,
// or in tests one that fails on cue.
type fileSystem interface {
	writeFile(path string, data []byte) error // create or truncate, write, fsync
	rename(oldpath, newpath string) error
	remove(path string) error
	syncDir(path string) error
}

type osFS struct{}

func (osFS) writeFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	return syncClose(f, err)
}

func (osFS) rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) remove(path string) error { return os.Remove(path) }

func (osFS) syncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	return syncClose(d, nil)
}

// syncClose fsyncs f unless err is set already, closes it, and returns
// the first error.
func syncClose(f *os.File, err error) error {
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SaveReport summarizes what one Save actually wrote: replicas whose data
// and checksum files were (re)written versus replicas skipped because they
// were unchanged since the previous save to the same directory.
type SaveReport struct {
	ReplicasWritten int
	ReplicasSkipped int
}

// savedReplica is one replica as a save snapshot saw it: its Dir_rep entry
// and the bytes stored under that entry.
type savedReplica struct {
	Replica
	stored storedReplica
}

// snapshotForSave copies the file table and Dir_rep and consumes the dirty
// marks in one namenode critical section, and takes every listed replica's
// bytes while it holds storeMu exclusively: each entry comes with its own
// bytes and dirty mark, and no file block without its replicas (WriteBlock
// registers them before AddBlock). A later change keeps its mark for the
// next save. Replicas are sorted by (block, node), for a deterministic
// manifest.
func (c *Cluster) snapshotForSave() (map[string][]BlockID, []savedReplica, map[repKey]bool, error) {
	c.storeMu.Lock()
	defer c.storeMu.Unlock()
	nn := c.nn
	nn.ops.Add(1)
	nn.mu.Lock()
	files := make(map[string][]BlockID, len(nn.files))
	for f, bs := range nn.files {
		files[f] = append([]BlockID(nil), bs...)
	}
	reps := make([]savedReplica, 0, len(nn.reps))
	for k := range nn.reps {
		info, _ := nn.infoLocked(k)
		reps = append(reps, savedReplica{Replica: Replica{k.block, k.node, info}})
	}
	dirty := nn.dirty
	nn.dirty = nil
	nn.mu.Unlock()
	slices.SortFunc(reps, func(a, b savedReplica) int { return cmp.Or(cmp.Compare(a.Block, b.Block), cmp.Compare(a.Node, b.Node)) })
	for i := range reps {
		rp := &reps[i]
		ok := int(rp.Node) >= 0 && int(rp.Node) < len(c.dns)
		if ok {
			dn := c.dns[rp.Node]
			dn.mu.RLock()
			rp.stored, ok = dn.replicas[rp.Block]
			dn.mu.RUnlock()
		}
		if !ok {
			nn.restoreDirty(dirty)
			return nil, nil, nil, fmt.Errorf("hdfs: namenode lists replica (%d,%d) the datanode does not store", rp.Block, rp.Node)
		}
	}
	return files, reps, dirty, nil
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
//
// Save commits once, by renaming the manifest into place. Before that it
// writes and fsyncs each replica file at a path the committed manifest
// does not list; after it, it removes the replica files the new manifest
// does not list — dropped, evicted and quarantined replicas, and whatever
// an interrupted save left behind.
func (c *Cluster) Save(dir string) error {
	// Whole saves are serialized (see saveMu). Uploads are not blocked:
	// they wait for a save only while its snapshot holds storeMu.
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	fs := c.fs
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	full, committed := c.savedTo != dir, c.committed
	if full {
		committed = committedIn(dir)
	}
	files, reps, dirty, err := c.snapshotForSave()
	if err != nil {
		return err
	}
	// On failure the consumed marks are merged back.
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
	m := manifest{Nodes: c.NumNodes(), NextBlock: c.nextBlock, Files: files}
	c.mu.Unlock()

	present := c.replicaFilesIn(dir)
	listed := make(map[string]bool, 2*len(reps))
	written := make(map[string]bool) // node directories that got new files
	var report SaveReport
	for _, rp := range reps {
		key := repKey{rp.Block, rp.Node}
		alt, wasListed := committed[key]
		data, sums := replicaFiles(dir, rp.Node, rp.Block, alt)
		if wasListed && !full && !dirty[key] && present[data] && present[sums] {
			report.ReplicasSkipped++
		} else {
			alt = wasListed && !alt
			data, sums = replicaFiles(dir, rp.Node, rp.Block, alt)
			if nodeDir := filepath.Dir(data); !written[nodeDir] {
				if err := os.MkdirAll(nodeDir, 0o755); err != nil {
					return err
				}
				written[nodeDir] = true
			}
			if err := fs.writeFile(data, rp.stored.data); err != nil {
				return err
			}
			raw := make([]byte, 0, 4*len(rp.stored.sums))
			for _, s := range rp.stored.sums {
				raw = binary.LittleEndian.AppendUint32(raw, s)
			}
			if err := fs.writeFile(sums, raw); err != nil {
				return err
			}
			report.ReplicasWritten++
		}
		listed[data], listed[sums] = true, true
		m.Replicas = append(m.Replicas, manifestReplica{rp.Replica, alt})
	}
	for _, nodeDir := range slices.Sorted(maps.Keys(written)) {
		if err := fs.syncDir(nodeDir); err != nil {
			return err
		}
	}

	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	manifestPath := filepath.Join(dir, "manifest.json")
	tmp := manifestPath + ".tmp"
	if err := fs.writeFile(tmp, data); err != nil {
		return err
	}
	if err := fs.rename(tmp, manifestPath); err != nil {
		return err
	}
	// Committed: whatever fails from here on leaves the new state.
	c.savedTo, c.committed, c.lastSave = dir, m.listing(), report
	success = true
	if err := fs.syncDir(dir); err != nil {
		return err
	}
	for _, path := range slices.Sorted(maps.Keys(present)) {
		if listed[path] {
			continue
		}
		if err := fs.remove(path); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("hdfs: saved %s, but removing a stale file: %w", dir, err)
		}
	}
	return nil
}

// committedIn returns the replica listing of dir's manifest, or nil when
// dir holds no manifest that parses.
func committedIn(dir string) map[repKey]bool {
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil
	}
	var m manifest
	if json.Unmarshal(raw, &m) != nil {
		return nil
	}
	return m.listing()
}

// replicaFilesIn lists the replica files, and the leftovers of interrupted
// saves, in dir's datanode subdirectories. A directory that cannot be read
// holds nothing: Save then rewrites every replica it would have skipped.
func (c *Cluster) replicaFilesIn(dir string) map[string]bool {
	present := make(map[string]bool)
	for n := range c.dns {
		nodeDir := filepath.Join(dir, fmt.Sprintf("dn%d", n))
		entries, _ := os.ReadDir(nodeDir)
		for _, e := range entries {
			if !e.IsDir() && strings.HasPrefix(e.Name(), "blk_") {
				present[filepath.Join(nodeDir, e.Name())] = true
			}
		}
	}
	return present
}

// LastSaveReport returns what the most recent Save wrote and skipped.
// Tests and hailint's lockgraph_cycle audit mutant call it; no binary does.
func (c *Cluster) LastSaveReport() SaveReport {
	c.saveMu.Lock()
	defer c.saveMu.Unlock()
	return c.lastSave
}

// Load reconstructs a cluster from a directory written by Save, verifying
// every replica against its checksum file. A replica whose files cannot
// be read or do not verify — a missing data file, a length other than its
// entry's size, a checksum mismatch — is quarantined (NameNode.Quarantined
// names it and why) and the cluster loads without it; Load fails only when
// that leaves a file block with no replica. Files the manifest does not
// list are ignored.
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
	// The block counter starts past every block the manifest lists,
	// whatever its next_block says.
	c.nextBlock = m.NextBlock
	useID := func(b BlockID) error {
		if b == math.MaxInt64 {
			return fmt.Errorf("hdfs: manifest lists block %d, leaving no block ID to hand out", b)
		}
		c.nextBlock = max(c.nextBlock, b+1)
		return nil
	}
	for f, bs := range m.Files {
		for _, b := range bs {
			if err := useID(b); err != nil {
				return nil, err
			}
			c.nn.AddBlock(f, b)
		}
	}
	for _, rp := range m.Replicas {
		if int(rp.Node) < 0 || int(rp.Node) >= m.Nodes {
			return nil, fmt.Errorf("hdfs: manifest replica on unknown node %d", rp.Node)
		}
		if err := useID(rp.Block); err != nil {
			return nil, err
		}
		data, sums, err := readReplica(dir, rp)
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
	c.savedTo, c.committed = dir, m.listing()
	return c, nil
}

// readReplica reads one manifest entry's data and checksum files from dir
// and verifies them against the entry's size and each other.
func readReplica(dir string, rp manifestReplica) ([]byte, []uint32, error) {
	dataPath, sumPath := replicaFiles(dir, rp.Node, rp.Block, rp.Alt)
	data, err := os.ReadFile(dataPath)
	if err != nil {
		return nil, nil, err
	}
	rawSums, err := os.ReadFile(sumPath)
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
	if len(data) != rp.Info.Size {
		return nil, nil, fmt.Errorf("hdfs: data file of %d bytes, the manifest says %d", len(data), rp.Info.Size)
	}
	return data, sums, nil
}
