package adaptive

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hdfs"
)

// TestSaveRegistryRoundTrip checks the sidecar survives a save/load cycle
// with the heat stamps intact and leaves no temp-file litter behind.
func TestSaveRegistryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, RegistryFile)
	in := []ReplicaHeat{
		{File: "/t", Column: 2, Block: 3, Node: 1, Bytes: 4096, Added: true,
			Touches: 7, LastTouch: 9},
	}
	if err := SaveRegistry(path, in); err != nil {
		t.Fatal(err)
	}
	// Atomic write must not leave its temp file behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != RegistryFile {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("expected only %s in dir, got %v", RegistryFile, names)
	}
	out, err := LoadRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("got %d entries, want 1", len(out))
	}
	if out[0] != in[0] {
		t.Fatalf("round trip changed entry: got %+v want %+v", out[0], in[0])
	}
}

// TestLoadRegistryToleratesTornFile is the crash-safety gate: a corrupt or
// truncated sidecar (a crash before writes were atomic, or disk damage)
// must load as an empty registry with a warning, never wedge the caller.
func TestLoadRegistryToleratesTornFile(t *testing.T) {
	dir := t.TempDir()
	good := []ReplicaHeat{{File: "/t", Column: 2, Block: 3, Node: 1, Bytes: 4096}}
	path := filepath.Join(dir, RegistryFile)
	if err := SaveRegistry(path, good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, contents := range map[string][]byte{
		"truncated": raw[:len(raw)/2],
		"garbage":   []byte("not json at all\x00\x01"),
		"empty":     {},
	} {
		t.Run(name, func(t *testing.T) {
			torn := filepath.Join(dir, "torn-"+name+".json")
			if err := os.WriteFile(torn, contents, 0o644); err != nil {
				t.Fatal(err)
			}
			reps, err := LoadRegistry(torn)
			if err != nil {
				t.Fatalf("torn file must not error, got: %v", err)
			}
			if len(reps) != 0 {
				t.Fatalf("torn file must load empty, got %d entries", len(reps))
			}
		})
	}
	// The intact file still loads.
	reps, err := LoadRegistry(path)
	if err != nil || len(reps) != 1 {
		t.Fatalf("intact registry: got %d entries, err %v", len(reps), err)
	}
}

// TestSaveRegistryReplacesAtomically overwrites an existing sidecar and
// verifies the new contents landed — the rename path, not a fresh create.
func TestSaveRegistryReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), RegistryFile)
	if err := SaveRegistry(path, []ReplicaHeat{{File: "/old", Column: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := SaveRegistry(path, []ReplicaHeat{{File: "/new", Column: 2}}); err != nil {
		t.Fatal(err)
	}
	reps, err := LoadRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].File != "/new" {
		t.Fatalf("overwrite not visible: %+v", reps)
	}
	raw, _ := os.ReadFile(path)
	if strings.Contains(string(raw), "/old") {
		t.Fatal("old contents survived the overwrite")
	}
}

// indexedHost returns a host of block b whose replica carries an index on
// col, per the namenode directory.
func indexedHost(t *testing.T, cluster *hdfs.Cluster, b hdfs.BlockID, col int) hdfs.NodeID {
	t.Helper()
	nn := cluster.NameNode()
	for _, h := range nn.GetHosts(b) {
		if info, ok := nn.ReplicaInfo(b, h); ok && info.HasIndex && info.SortColumn == col {
			return h
		}
	}
	t.Fatalf("no replica of block %d indexed on column %d", b, col)
	return 0
}

// TestAdoptKeepsSavedStampsOfOldRegistry: a sidecar written when entries
// also carried a wall-clock "TouchedAt" still loads, and its entries adopt
// with their logical stamps as saved, however long ago that was; the heat
// clock fast-forwards to the hottest of them.
func TestAdoptKeepsSavedStampsOfOldRegistry(t *testing.T) {
	// Replica 1 of each block is indexed on column 2, so registry entries
	// for (block, col 2) pass AdoptReplicas' directory validation.
	cluster, file := upload(t, 4, 700, []int{0, 2})
	blocks, err := cluster.NameNode().FileBlocks(file)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) < 3 {
		t.Fatalf("need ≥3 blocks, got %d", len(blocks))
	}
	var entries []string
	want := map[hdfs.BlockID]uint64{}
	for n, stamp := range []struct {
		last uint64
		at   string
	}{{10, "2026-08-08T04:00:00Z"}, {5, "2026-08-08T11:30:00Z"}, {3, "2026-08-04T08:00:00Z"}} {
		b := blocks[n]
		entries = append(entries, fmt.Sprintf(`{"File": %q, "Column": 2, "Block": %d, "Node": %d, "Bytes": 100, "Added": true, "Touches": %d, "LastTouch": %d, "TouchedAt": %q}`,
			file, b, indexedHost(t, cluster, b, 2), stamp.last, stamp.last, stamp.at))
		want[b] = stamp.last
	}
	path := filepath.Join(t.TempDir(), RegistryFile)
	if err := os.WriteFile(path, []byte("["+strings.Join(entries, ",\n")+"]\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	reps, err := LoadRegistry(path)
	if err != nil || len(reps) != 3 {
		t.Fatalf("loaded %d entries, err %v; want 3", len(reps), err)
	}

	idx := New(cluster, 0, 0)
	if n := idx.AdoptReplicas(reps); n != 3 {
		t.Fatalf("adopted %d, want 3", n)
	}
	for _, r := range idx.Replicas() {
		if r.LastTouch != want[r.Block] || r.Touches != int(want[r.Block]) {
			t.Errorf("block %d: adopted LastTouch %d, Touches %d; want both %d as saved", r.Block, r.LastTouch, r.Touches, want[r.Block])
		}
	}
	idx.mu.Lock()
	clock := idx.clock
	idx.mu.Unlock()
	if clock != 10 {
		t.Errorf("clock = %d, want 10 (hottest saved stamp)", clock)
	}
}

// TestEvictionRanksByLogicalTouch: among alive candidates the victim is
// the replica touched by the oldest job, and between equally cold ones the
// column fewer jobs missed goes first.
func TestEvictionRanksByLogicalTouch(t *testing.T) {
	cluster, file := upload(t, 4, 700, []int{0, -1})
	blocks, err := cluster.NameNode().FileBlocks(file)
	if err != nil || len(blocks) < 2 {
		t.Fatalf("blocks: %v err %v", blocks, err)
	}
	victim := func(stamps [2]uint64, misses [2]int) hdfs.BlockID {
		t.Helper()
		idx := New(cluster, 0, 0)
		idx.mu.Lock()
		defer idx.mu.Unlock()
		idx.clock = 20
		for n, b := range blocks[:2] {
			col := 5 + n
			idx.replicas[repID{b, col}] = &replicaRecord{
				file: file, col: col, block: b, node: 3, charged: 100, added: true,
				lastTouch: stamps[n], touches: 1,
			}
			idx.misses[planKey{file, col}] = misses[n]
		}
		idx.extra = 200
		victims := idx.selectVictimsLocked(planKey{file, 9}, 100)
		if len(victims) != 1 {
			t.Fatalf("selected %d victims, want 1", len(victims))
		}
		return victims[0].block
	}
	if got := victim([2]uint64{10, 5}, [2]int{0, 9}); got != blocks[1] {
		t.Errorf("victim = block %d, want block %d, touched by the older job", got, blocks[1])
	}
	if got := victim([2]uint64{7, 7}, [2]int{9, 2}); got != blocks[1] {
		t.Errorf("victim = block %d, want block %d, whose column missed less", got, blocks[1])
	}
}
