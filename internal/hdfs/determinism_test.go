package hdfs

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// Regression tests for deterministic aggregation: every multi-entry
// output of the namenode must be in a sorted, stable order instead of
// leaking Go map iteration order.

// TestFilesSortedAcrossShards: Files() returns exactly the sorted names,
// whatever the insertion order, over enough distinct names (several
// hundred) that Go's randomized map order cannot pass for sorted by chance.
func TestFilesSortedAcrossShards(t *testing.T) {
	nn := NewNameNode()
	rng := rand.New(rand.NewSource(7))
	var names []string
	for i := 0; i < 1024; i++ {
		names = append(names, filepath.Join("/dir", string(rune('a'+rng.Intn(26))), string(rune('a'+i%26))))
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	for i, f := range names {
		nn.AddBlock(f, BlockID(i))
	}
	want := append([]string(nil), names...)
	sort.Strings(want)
	want = dedupeSorted(want)
	if len(want) < 500 {
		t.Fatalf("only %d distinct names; too few for map order to show", len(want))
	}
	if got := nn.Files(); !slices.Equal(got, want) {
		t.Fatalf("Files() = %d names, sorted %v; want the %d distinct names sorted", len(got), sort.StringsAreSorted(got), len(want))
	}
}

func dedupeSorted(in []string) []string {
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// TestInvalidateNodeHookOrder: the replica-change hook fires exactly once
// per affected block, in ascending block order — never in map iteration
// order.
func TestInvalidateNodeHookOrder(t *testing.T) {
	nn := NewNameNode()
	for b := BlockID(0); b < 40; b++ {
		nn.RegisterReplica(b, 1, ReplicaInfo{SortColumn: -1})
		if b%2 == 0 {
			nn.RegisterReplica(b, 2, ReplicaInfo{SortColumn: -1})
		}
	}
	var fired []BlockID
	nn.SetReplicaChangeHook(func(b BlockID) { fired = append(fired, b) })
	nn.InvalidateNode(1)
	if len(fired) != 40 {
		t.Fatalf("hook fired %d times, want once per affected block (40)", len(fired))
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] <= fired[i-1] {
			t.Fatalf("hook order not strictly ascending at %d: %v", i, fired)
		}
	}

	// A node holding replicas of only some blocks fires for exactly those.
	fired = nil
	nn.InvalidateNode(2)
	if len(fired) != 20 {
		t.Fatalf("hook fired %d times for node 2, want 20", len(fired))
	}
	for i, b := range fired {
		if b != BlockID(2*i) {
			t.Fatalf("hook fired for %v, want even blocks in order", fired)
		}
	}
}

// TestManifestReplicaOrderDeterministic: Save writes manifest replicas
// sorted by (block, node), so two saves of equal state produce identical
// manifests whatever order the directory's maps were walked in.
func TestManifestReplicaOrderDeterministic(t *testing.T) {
	write := func(dir string) []manifestReplica {
		t.Helper()
		c, err := NewCluster(4)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			if _, _, err := c.WriteBlock("/f", []byte("payload-data"), 2, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Save(dir); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
		if err != nil {
			t.Fatal(err)
		}
		var m manifest
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		return m.Replicas
	}

	reps1 := write(t.TempDir())
	reps2 := write(t.TempDir())
	if len(reps1) == 0 || len(reps1) != len(reps2) {
		t.Fatalf("manifest replica counts differ: %d vs %d", len(reps1), len(reps2))
	}
	for i := range reps1 {
		if reps1[i] != reps2[i] {
			t.Fatalf("manifest replica %d differs between two saves of equal state: %+v vs %+v", i, reps1[i], reps2[i])
		}
		if i > 0 {
			prev, cur := reps1[i-1], reps1[i]
			if cur.Block < prev.Block || (cur.Block == prev.Block && cur.Node <= prev.Node) {
				t.Fatalf("manifest replicas not sorted by (block, node) at %d: %+v after %+v", i, cur, prev)
			}
		}
	}
}
