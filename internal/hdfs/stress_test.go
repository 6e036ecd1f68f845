package hdfs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

// assertManifestConsistent fails if a saved manifest lists a file block
// with no replica entries — the interleaving a Save racing an upload
// could produce if the snapshot read the replica table before the file
// table (Load refuses such a manifest: the block has no replica).
func assertManifestConsistent(t *testing.T, dir string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		t.Errorf("manifest read: %v", err)
		return
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Errorf("manifest decode: %v", err)
		return
	}
	have := make(map[BlockID]bool)
	for _, rp := range m.Replicas {
		have[rp.Block] = true
	}
	for f, bs := range m.Files {
		for _, b := range bs {
			if !have[b] {
				t.Errorf("manifest file %q lists block %d with no replicas", f, b)
			}
		}
	}
}

// Race-stress for the namenode directory: concurrent replica
// registrations and updates, generation and host reads, whole-directory
// aggregations, node kill/revive cycles, real block uploads and
// incremental saves all hammer the directory at once. Run under -race
// (the CI has a dedicated lane for this package); the assertions only
// check invariants that hold under any interleaving.
func TestNameNodeStress(t *testing.T) {
	const nodes = 6
	iters := 400
	if testing.Short() {
		iters = 80
	}

	c, err := NewCluster(nodes)
	if err != nil {
		t.Fatal(err)
	}
	nn := c.NameNode()

	var hookFires atomic.Int64
	nn.SetReplicaChangeHook(func(BlockID) { hookFires.Add(1) })
	defer nn.SetReplicaChangeHook(nil)

	// Pre-store bytes for every (block, node) pair the registrars may
	// announce — Save refuses a namenode entry the datanode cannot back,
	// and Load one whose size is not its bytes' — then register one
	// replica per block so readers always have targets.
	const baseBlocks = 64
	payload := []byte("stress-payload")
	for b := BlockID(0); b < baseBlocks; b++ {
		for n := 0; n < nodes; n++ {
			if err := c.dns[n].flush(b, payload, checksumChunks(payload)); err != nil {
				t.Fatal(err)
			}
		}
		nn.AddBlock(fmt.Sprintf("/f%d", b%7), b)
		nn.RegisterReplica(b, NodeID(int(b)%nodes), ReplicaInfo{Size: len(payload), SortColumn: -1})
	}

	dir := t.TempDir()
	var wg sync.WaitGroup
	start := make(chan struct{})
	spawn := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				fn(i)
			}
		}()
	}

	// Registrars: new replicas across the whole block population.
	for g := 0; g < 3; g++ {
		g := g
		spawn(func(i int) {
			b := BlockID((g*iters + i) % baseBlocks)
			info := ReplicaInfo{Size: len(payload), SortColumn: i % 4, HasIndex: i%2 == 0, IndexSize: i}
			nn.RegisterReplica(b, NodeID((i+g)%nodes), info)
		})
	}

	// Updaters: in-place Dir_rep updates; refusals are fine.
	spawn(func(i int) {
		_ = nn.UpdateReplica(BlockID(i%baseBlocks), NodeID(i%nodes), ReplicaInfo{Size: len(payload), SortColumn: 1, HasIndex: true})
	})

	// Readers: every lookup the scheduler and the caches use.
	for g := 0; g < 3; g++ {
		spawn(func(i int) {
			b := BlockID(i % baseBlocks)
			_ = nn.Generation(b)
			_ = nn.GetHosts(b)
			_ = nn.GetHostsWithIndex(b, i%4)
			_, _ = nn.ReplicaInfo(b, NodeID(i%nodes))
			_ = nn.ReplicaCount(b)
			if i%32 == 0 {
				_ = nn.Files()
				_, _ = nn.FileBlocks(fmt.Sprintf("/f%d", i%7))
				_ = nn.Quarantined()
			}
		})
	}

	// Quarantines of replicas nothing else touches: negative block ids,
	// which WriteBlock never hands out.
	spawn(func(i int) {
		nn.QuarantineReplica(BlockID(-1-i%8), NodeID(i%nodes), "stress")
	})

	// Kill/revive cycles: whole-directory invalidations through the cluster.
	spawn(func(i int) {
		n := NodeID(1 + i%(nodes-1)) // keep node 0 alive for uploads
		if i%2 == 0 {
			_ = c.KillNode(n)
		} else {
			_ = c.ReviveNode(n)
		}
	})

	// Uploader + saver: real pipeline writes (register-and-mark-dirty)
	// racing with incremental saves consuming the dirty marks. A
	// write may legitimately fail when its pipeline node is killed
	// mid-upload; it must just never corrupt the directory.
	var uploads atomic.Int64
	spawn(func(i int) {
		if i%8 == 0 {
			if err := c.Save(dir); err != nil {
				t.Errorf("save: %v", err)
				return
			}
			// This goroutine is the only saver and saves are serialized,
			// so the manifest is stable until its next Save call.
			assertManifestConsistent(t, dir)
			return
		}
		if _, _, err := c.WriteBlock("/stream", []byte("stress-payload"), 1, nil); err == nil {
			uploads.Add(1)
		}
	})

	close(start)
	wg.Wait()

	if hookFires.Load() == 0 {
		t.Fatal("replica-change hook never fired under stress")
	}
	if uploads.Load() == 0 {
		t.Fatal("no upload ever succeeded under stress")
	}
	// Post-quiescence sanity: directory still answers coherently and a
	// final save drains the remaining dirty marks.
	if got := len(nn.Files()); got == 0 {
		t.Fatal("no files after stress")
	}
	for b := BlockID(0); b < baseBlocks; b++ {
		if nn.ReplicaCount(b) == 0 {
			t.Fatalf("block %d lost its replicas", b)
		}
	}
	if err := c.Save(dir); err != nil {
		t.Fatalf("final save: %v", err)
	}
	if loaded, err := Load(dir); err != nil {
		t.Fatalf("reload after stress: %v", err)
	} else if len(loaded.NameNode().Files()) != len(nn.Files()) {
		t.Fatalf("reload lost files: %d vs %d", len(loaded.NameNode().Files()), len(nn.Files()))
	}
}
