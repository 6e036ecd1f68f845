package hdfs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// replicaDataPath and replicaSumPath are a replica's files in its primary
// pair, where a first save puts them.
func replicaDataPath(dir string, node NodeID, b BlockID) string {
	data, _ := replicaFiles(dir, node, b, false)
	return data
}

func replicaSumPath(dir string, node NodeID, b BlockID) string {
	_, sums := replicaFiles(dir, node, b, false)
	return sums
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	// Mix of HDFS-mode and transformed (HAIL-style) blocks.
	var ids []BlockID
	for i := 0; i < 5; i++ {
		id, _, err := c.WriteBlock("/plain", randBlock(20_000+i, int64(i)), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	transform := func(pos int, node NodeID, block []byte) ([]byte, ReplicaInfo, error) {
		out := append([]byte{byte(pos + 1)}, block...)
		return out, ReplicaInfo{SortColumn: pos, HasIndex: true, IndexSize: 10}, nil
	}
	hailID, _, err := c.WriteBlock("/hail", randBlock(30_000, 99), 3, transform)
	if err != nil {
		t.Fatal(err)
	}

	if err := c.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Files and blocks survive.
	for _, f := range []string{"/plain", "/hail"} {
		orig, _ := c.NameNode().FileBlocks(f)
		got, err := loaded.NameNode().FileBlocks(f)
		if err != nil || len(got) != len(orig) {
			t.Fatalf("file %s: %v blocks, err=%v", f, got, err)
		}
	}
	// Replica bytes identical, checksums verified on read.
	for _, id := range ids {
		for _, node := range c.NameNode().GetHosts(id) {
			want, err := c.ReadBlockFrom(node, id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := loaded.ReadBlockFrom(node, id)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("block %d on node %d differs after reload", id, node)
			}
		}
	}
	// Dir_rep metadata survives (the HAIL essential).
	for pos, node := range c.NameNode().GetHosts(hailID) {
		info, ok := loaded.NameNode().ReplicaInfo(hailID, node)
		if !ok || info.SortColumn != pos || !info.HasIndex {
			t.Errorf("replica info lost for node %d: %+v ok=%v", node, info, ok)
		}
	}
	// getHostsWithIndex works on the loaded cluster.
	if hosts := loaded.NameNode().GetHostsWithIndex(hailID, 1); len(hosts) != 1 {
		t.Errorf("GetHostsWithIndex after reload: %v", hosts)
	}
	// New uploads continue from the saved block counter (no ID reuse).
	newID, _, err := loaded.WriteBlock("/more", randBlock(1000, 7), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if newID <= hailID {
		t.Errorf("block ID %d reused after reload (last was %d)", newID, hailID)
	}
}

// savedThreeBlocks saves three HDFS-mode blocks of /f, three replicas each
// on four nodes, and returns the directory, the cluster and the blocks'
// pipelines.
func savedThreeBlocks(t *testing.T) (string, *Cluster, [][]NodeID) {
	t.Helper()
	dir := t.TempDir()
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	var pipelines [][]NodeID
	for i := 0; i < 3; i++ {
		_, stats, err := c.WriteBlock("/f", randBlock(50_000, int64(i)), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		pipelines = append(pipelines, stats.PipelineNodes)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	return dir, c, pipelines
}

// flipStoredByte flips one byte of a saved replica's data file.
func flipStoredByte(t *testing.T, dir string, node NodeID, b BlockID) {
	t.Helper()
	path := replicaDataPath(dir, node, b)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[1234] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLoadDetectsTamperedReplica: a replica whose stored bytes fail to
// verify — a flipped byte, a truncated data file, a missing data file —
// is quarantined, and the directory loads without it: the other replicas
// serve, Quarantined names each bad one in (block, node) order, and the
// gauge counts them.
func TestLoadDetectsTamperedReplica(t *testing.T) {
	dir, c, pipelines := savedThreeBlocks(t)
	victims := []NodeID{pipelines[0][1], pipelines[1][0], pipelines[2][2]}
	flipStoredByte(t, dir, victims[0], 0)
	if err := os.Truncate(replicaDataPath(dir, victims[1], 1), 49_000); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(replicaDataPath(dir, victims[2], 2)); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("Load refused a directory with two healthy copies of every block: %v", err)
	}
	nn := loaded.NameNode()
	q := nn.Quarantined()
	if len(q) != 3 {
		t.Fatalf("Quarantined = %+v, want the three tampered replicas", q)
	}
	for b, reason := range []string{ErrCorruptChunk.Error(), "checksum file has", "no such file"} {
		if q[b].Block != BlockID(b) || q[b].Node != victims[b] || !strings.Contains(q[b].Reason, reason) {
			t.Errorf("Quarantined[%d] = %+v, want block %d on node %d, reason containing %q", b, q[b], b, victims[b], reason)
		}
		hosts := nn.GetHosts(BlockID(b))
		if slices.Contains(hosts, victims[b]) || len(hosts) != 2 {
			t.Errorf("block %d: GetHosts = %v, want the two replicas besides node %d", b, hosts, victims[b])
		}
		for _, h := range hosts {
			got, err := loaded.ReadBlockFrom(h, BlockID(b))
			want, _ := c.ReadBlockFrom(h, BlockID(b))
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("block %d on node %d: read %v after a degraded load", b, h, err)
			}
		}
	}
	reg := obs.NewRegistry()
	nn.BindObs(reg)
	gauge := int64(-1)
	for _, m := range reg.Snapshot() {
		if m.Name == "hdfs.namenode.quarantined" {
			gauge = m.Value
		}
	}
	if gauge != 3 {
		t.Errorf("hdfs.namenode.quarantined = %d, want 3 (-1: no such gauge)", gauge)
	}
}

// TestLoadFailsWhenEveryReplicaOfABlockIsBad: with no replica of a file
// block left to serve it, Load refuses the directory and names the block.
func TestLoadFailsWhenEveryReplicaOfABlockIsBad(t *testing.T) {
	dir, _, pipelines := savedThreeBlocks(t)
	for _, node := range pipelines[1] {
		flipStoredByte(t, dir, node, 1)
	}
	_, err := Load(dir)
	if err == nil || !strings.Contains(err.Error(), "block 1 of /f") {
		t.Fatalf("Load = %v, want an error naming block 1 of /f", err)
	}
	t.Log(err)
}

// TestSaveAfterDegradedLoad: a cluster loaded without a quarantined replica
// saves a manifest that no longer lists it, so saving it back — to the
// same directory or a fresh one — and loading again is clean.
func TestSaveAfterDegradedLoad(t *testing.T) {
	dir, _, pipelines := savedThreeBlocks(t)
	flipStoredByte(t, dir, pipelines[0][0], 0)
	degraded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{dir, t.TempDir()} {
		if err := degraded.Save(target); err != nil {
			t.Fatal(err)
		}
		reloaded, err := Load(target)
		if err != nil {
			t.Fatalf("reload of %s: %v", target, err)
		}
		nn := reloaded.NameNode()
		if q := nn.Quarantined(); len(q) != 0 {
			t.Errorf("reload of %s quarantined %+v", target, q)
		}
		for b := BlockID(0); b < 3; b++ {
			if got, want := nn.GetHosts(b), degraded.NameNode().GetHosts(b); !slices.Equal(got, want) {
				t.Errorf("reload of %s: block %d on %v, want %v", target, b, got, want)
			}
		}
	}
}

func TestLoadMissingOrBadManifest(t *testing.T) {
	if _, err := Load(t.TempDir()); err == nil {
		t.Error("Load of empty dir succeeded")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("Load of corrupt manifest succeeded")
	}
}

func TestSaveLoadEmptyCluster(t *testing.T) {
	dir := t.TempDir()
	c, _ := NewCluster(2)
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumNodes() != 2 {
		t.Errorf("NumNodes = %d", loaded.NumNodes())
	}
}

// TestSaveIncremental: a second Save to the same directory rewrites only
// replicas that changed since the first (the ROADMAP's "Save rewrites
// every replica on every save" fix).
func TestSaveIncremental(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	var ids []BlockID
	for i := 0; i < 4; i++ {
		id, _, err := c.WriteBlock("/f", randBlock(8_000+i, int64(i)), 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	if rep := c.LastSaveReport(); rep.ReplicasWritten != 12 || rep.ReplicasSkipped != 0 {
		t.Fatalf("first save wrote %+v, want 12 written", rep)
	}

	// Nothing changed: nothing rewritten.
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	if rep := c.LastSaveReport(); rep.ReplicasWritten != 0 || rep.ReplicasSkipped != 12 {
		t.Fatalf("idle save wrote %+v, want 0 written / 12 skipped", rep)
	}

	// One replica reorganized in place: exactly one rewrite.
	node := c.nn.GetHosts(ids[1])[0]
	if err := c.ReplaceReplica(ids[1], node, randBlock(8_001, 77), ReplicaInfo{SortColumn: 2, HasIndex: true}); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	if rep := c.LastSaveReport(); rep.ReplicasWritten != 1 || rep.ReplicasSkipped != 11 {
		t.Fatalf("post-replace save wrote %+v, want 1 written / 11 skipped", rep)
	}

	// A loaded cluster continues incrementally: one adaptive-style extra
	// replica persists alone.
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	free := NodeID(3)
	for _, h := range loaded.nn.GetHosts(ids[0]) {
		if h == free {
			t.Fatalf("test setup: node %d unexpectedly holds block %d", free, ids[0])
		}
	}
	if err := loaded.StoreAdditionalReplica(ids[0], free, randBlock(8_000, 0), ReplicaInfo{SortColumn: 1, HasIndex: true}); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(dir); err != nil {
		t.Fatal(err)
	}
	if rep := loaded.LastSaveReport(); rep.ReplicasWritten != 1 || rep.ReplicasSkipped != 12 {
		t.Fatalf("post-load save wrote %+v, want 1 written / 12 skipped", rep)
	}

	// A deleted file is restored even when clean, in the pair the
	// committed manifest did not name.
	holder := loaded.nn.GetHosts(ids[2])[0]
	if err := os.Remove(replicaDataPath(dir, holder, ids[2])); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Save(dir); err != nil {
		t.Fatal(err)
	}
	assertRestored(t, dir, holder, ids[2])

	// Saving to a fresh directory writes everything again.
	dir2 := t.TempDir()
	if err := loaded.Save(dir2); err != nil {
		t.Fatal(err)
	}
	if rep := loaded.LastSaveReport(); rep.ReplicasWritten != 13 {
		t.Fatalf("save to new dir wrote %+v, want all 13", rep)
	}
	if _, err := Load(dir2); err != nil {
		t.Fatalf("Load of incremental-save dir: %v", err)
	}
}

// TestSaveRestoresMissingChecksumFile: the incremental skip guard must
// notice a deleted .crc file, not just a deleted data file — Load needs
// both.
func TestSaveRestoresMissingChecksumFile(t *testing.T) {
	dir := t.TempDir()
	c, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	id, _, err := c.WriteBlock("/f", randBlock(6_000, 5), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	holder := c.nn.GetHosts(id)[0]
	if err := os.Remove(replicaSumPath(dir, holder, id)); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	assertRestored(t, dir, holder, id)
}

// assertRestored checks that a save rewrote a replica whose committed
// files were damaged into its alternate pair, removed what was left of the
// old pair, and that the directory loads with nothing quarantined.
func assertRestored(t *testing.T, dir string, node NodeID, b BlockID) {
	t.Helper()
	if alt := committedIn(dir)[repKey{b, node}]; !alt {
		t.Errorf("block %d on node %d: the manifest names its primary pair, want the alternate", b, node)
	}
	data, sums := replicaFiles(dir, node, b, true)
	for _, path := range []string{data, sums} {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("replica file not restored: %v", err)
		}
	}
	for _, path := range []string{replicaDataPath(dir, node, b), replicaSumPath(dir, node, b)} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s outlived the save that stopped listing it (stat: %v)", path, err)
		}
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatalf("Load after the restore: %v", err)
	}
	if q := loaded.NameNode().Quarantined(); len(q) != 0 {
		t.Errorf("Load after the restore quarantined %+v", q)
	}
}

// TestSaveConcurrentWithUploads races Save against WriteBlock — the
// dirty map is consumed atomically, so `go test -race` must stay quiet
// and no marks may be lost. The race runs under a deadline of its own
// (it takes about 0.1 s under -race), so that a lock-order deadlock
// between the two fails in seconds with every goroutine's stack, not at
// go test's timeout.
func TestSaveConcurrentWithUploads(t *testing.T) {
	const deadline = 5 * time.Second
	dir := t.TempDir()
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.WriteBlock("/f", randBlock(4_000, 0), 3, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	go func() {
		for i := 1; i <= 20; i++ {
			if _, _, err := c.WriteBlock("/f", randBlock(4_000+i, int64(i)), 3, nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	go func() {
		for i := 0; i < 10; i++ {
			if err := c.Save(dir); err != nil {
				done <- fmt.Errorf("save %d: %w", i, err)
				return
			}
		}
		done <- nil
	}()
	timeout := time.After(deadline)
	for range 2 {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-timeout:
			stacks := make([]byte, 1<<20)
			t.Fatalf("saves and uploads still running after %v: deadlocked?\n%s", deadline, stacks[:runtime.Stack(stacks, true)])
		}
	}
	// A final save flushes whatever the races left dirty; the directory
	// must load with all 21 blocks intact.
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	bs, err := loaded.NameNode().FileBlocks("/f")
	if err != nil {
		t.Fatal(err)
	}
	if len(bs) != 21 {
		t.Fatalf("loaded %d blocks, want 21", len(bs))
	}
}

// TestSaveRemovesUnlistedReplicas: a dropped replica's files and a
// quarantined one's go with the save that stops listing them, and the last
// replica of a block is never quarantined.
func TestSaveRemovesUnlistedReplicas(t *testing.T) {
	dir, c, pipelines := savedThreeBlocks(t)
	dropped, bad := pipelines[0][0], pipelines[1][1]
	if err := c.DropReplica(0, dropped); err != nil {
		t.Fatal(err)
	}
	if !c.nn.QuarantineReplica(1, bad, "checksum") {
		t.Fatal("a replica with two siblings was not quarantined")
	}
	for _, node := range pipelines[2][1:] {
		if err := c.DropReplica(2, node); err != nil {
			t.Fatal(err)
		}
	}
	last := pipelines[2][0]
	if c.nn.QuarantineReplica(2, last, "checksum") || !slices.Equal(c.nn.GetHosts(2), []NodeID{last}) {
		t.Fatalf("block 2's last replica was quarantined: hosts %v", c.nn.GetHosts(2))
	}
	if err := c.Save(dir); err != nil {
		t.Fatal(err)
	}
	for _, gone := range []repKey{{0, dropped}, {1, bad}, {2, pipelines[2][1]}, {2, pipelines[2][2]}} {
		for _, path := range []string{replicaDataPath(dir, gone.node, gone.block), replicaSumPath(dir, gone.node, gone.block)} {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("%s outlived the save that stopped listing it (stat: %v)", path, err)
			}
		}
	}
	assertOnlyListed(t, dir)
}

// TestLoadQuarantinesAnEntryOfAnotherSize: a manifest entry whose size is
// not its data file's length is quarantined, even though the files verify
// against each other — they are some other version's bytes.
func TestLoadQuarantinesAnEntryOfAnotherSize(t *testing.T) {
	dir, _, pipelines := savedThreeBlocks(t)
	path := filepath.Join(dir, "manifest.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	victim := repKey{1, pipelines[1][2]}
	for i, rp := range m.Replicas {
		if (repKey{rp.Block, rp.Node}) == victim {
			m.Replicas[i].Info.Size--
		}
	}
	if raw, err = json.Marshal(&m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := loaded.NameNode().Quarantined()
	if len(q) != 1 || (repKey{q[0].Block, q[0].Node}) != victim || !strings.Contains(q[0].Reason, "the manifest says") {
		t.Fatalf("Quarantined = %+v, want block %d on node %d for its size", q, victim.block, victim.node)
	}
}
