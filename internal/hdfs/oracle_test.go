package hdfs

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// Oracle-equivalence property test for the namenode directory: the
// NameNode and a single-map reference model — plain maps, no lock, no
// dirty marks, the directory's semantics and nothing else — are driven
// with the same randomized operation sequence and must produce identical
// observations after every step: GetHosts order, GetHostsWithIndex,
// generations, Dir_rep entries, file listings, and per-block
// replica-change hook counts.

// oracleDir is the reference model: one map per directory,
// observation-complete but unlocked (the property test is
// single-goroutine).
type oracleDir struct {
	files  map[string][]BlockID
	blocks map[BlockID][]NodeID
	reps   map[repKey]ReplicaInfo
	gens   map[BlockID]uint64
	hook   func(BlockID)
}

func newOracle() *oracleDir {
	return &oracleDir{
		files:  make(map[string][]BlockID),
		blocks: make(map[BlockID][]NodeID),
		reps:   make(map[repKey]ReplicaInfo),
		gens:   make(map[BlockID]uint64),
	}
}

func (o *oracleDir) addBlock(file string, b BlockID) {
	o.files[file] = append(o.files[file], b)
}

func (o *oracleDir) registerReplica(b BlockID, node NodeID, info ReplicaInfo) {
	key := repKey{b, node}
	if _, dup := o.reps[key]; !dup {
		o.blocks[b] = append(o.blocks[b], node)
	}
	o.reps[key] = info
	o.gens[b]++
	if o.hook != nil {
		o.hook(b)
	}
}

func (o *oracleDir) updateReplica(b BlockID, node NodeID, info ReplicaInfo) error {
	key := repKey{b, node}
	if _, ok := o.reps[key]; !ok {
		return fmt.Errorf("oracle: node %d holds no replica of block %d", node, b)
	}
	o.reps[key] = info
	o.gens[b]++
	if o.hook != nil {
		o.hook(b)
	}
	return nil
}

func (o *oracleDir) unregisterReplica(b BlockID, node NodeID) error {
	key := repKey{b, node}
	if _, ok := o.reps[key]; !ok {
		return fmt.Errorf("oracle: node %d holds no replica of block %d", node, b)
	}
	delete(o.reps, key)
	hosts := o.blocks[b]
	for i, n := range hosts {
		if n == node {
			o.blocks[b] = append(hosts[:i], hosts[i+1:]...)
			break
		}
	}
	if len(o.blocks[b]) == 0 {
		delete(o.blocks, b)
	}
	o.gens[b]++
	if o.hook != nil {
		o.hook(b)
	}
	return nil
}

func (o *oracleDir) invalidateNode(node NodeID) {
	var changed []BlockID
	for b, nodes := range o.blocks {
		for _, n := range nodes {
			if n == node {
				o.gens[b]++
				changed = append(changed, b)
				break
			}
		}
	}
	if o.hook != nil {
		for _, b := range changed {
			o.hook(b)
		}
	}
}

func (o *oracleDir) filesSorted() []string {
	var out []string
	for f := range o.files {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// oracleOpsPerSequence is sized so a sequence reliably mixes every op
// kind while 1000 sequences stay fast.
const oracleOpsPerSequence = 40

func TestOracleEquivalence(t *testing.T) {
	const sequences = 1000
	files := []string{"/a", "/b", "/logs/uv", "/Synthetic", "/deep/nested/file", "/z"}
	for seed := 0; seed < sequences; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			nodes := 3 + rng.Intn(4) // 3..6 datanodes
			maxBlocks := BlockID(2 + rng.Intn(8))

			cluster, err := NewCluster(nodes)
			if err != nil {
				t.Fatal(err)
			}
			nn := cluster.NameNode()
			oracle := newOracle()

			gotFires := make(map[BlockID]int)
			wantFires := make(map[BlockID]int)
			nn.SetReplicaChangeHook(func(b BlockID) { gotFires[b]++ })
			oracle.hook = func(b BlockID) { wantFires[b]++ }

			randomInfo := func() ReplicaInfo {
				info := ReplicaInfo{Size: rng.Intn(1 << 16), SortColumn: -1}
				if rng.Intn(2) == 0 {
					info.SortColumn = rng.Intn(3)
					info.HasIndex = rng.Intn(4) > 0
					info.IndexSize = rng.Intn(1 << 10)
				}
				return info
			}

			for op := 0; op < oracleOpsPerSequence; op++ {
				b := BlockID(rng.Int63n(int64(maxBlocks)))
				node := NodeID(rng.Intn(nodes))
				switch k := rng.Intn(12); {
				case k < 2: // AddBlock
					f := files[rng.Intn(len(files))]
					nn.AddBlock(f, b)
					oracle.addBlock(f, b)
				case k < 5: // RegisterReplica
					info := randomInfo()
					nn.RegisterReplica(b, node, info)
					oracle.registerReplica(b, node, info)
				case k < 7: // UpdateReplica (may refuse)
					info := randomInfo()
					gotErr := nn.UpdateReplica(b, node, info)
					wantErr := oracle.updateReplica(b, node, info)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("op %d: UpdateReplica(%d,%d) error mismatch: namenode %v, oracle %v",
							op, b, node, gotErr, wantErr)
					}
				case k < 9: // DropReplica through the cluster (may refuse)
					gotErr := cluster.DropReplica(b, node)
					wantErr := oracle.unregisterReplica(b, node)
					if (gotErr == nil) != (wantErr == nil) {
						t.Fatalf("op %d: DropReplica(%d,%d) error mismatch: namenode %v, oracle %v",
							op, b, node, gotErr, wantErr)
					}
				case k < 10: // InvalidateNode directly
					nn.InvalidateNode(node)
					oracle.invalidateNode(node)
				case k < 11: // KillNode through the cluster
					if err := cluster.KillNode(node); err != nil {
						t.Fatalf("op %d: KillNode(%d): %v", op, node, err)
					}
					oracle.invalidateNode(node)
				default: // ReviveNode through the cluster
					if err := cluster.ReviveNode(node); err != nil {
						t.Fatalf("op %d: ReviveNode(%d): %v", op, node, err)
					}
					oracle.invalidateNode(node)
				}
				compareObservations(t, op, nn, oracle, files, maxBlocks, nodes)
				compareFires(t, op, gotFires, wantFires)
			}
		})
	}
}

// compareObservations checks every public lookup the namenode offers
// against the oracle's answer.
func compareObservations(t *testing.T, op int, nn *NameNode, oracle *oracleDir, files []string, maxBlocks BlockID, nodes int) {
	t.Helper()

	got := nn.Files()
	want := oracle.filesSorted()
	if len(got) != len(want) {
		t.Fatalf("op %d: Files() = %v, want %v", op, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("op %d: Files() = %v, want %v", op, got, want)
		}
	}

	for _, f := range files {
		gotBS, gotErr := nn.FileBlocks(f)
		wantBS, wantOK := oracle.files[f]
		if (gotErr == nil) != wantOK {
			t.Fatalf("op %d: FileBlocks(%q) error mismatch: %v vs ok=%v", op, f, gotErr, wantOK)
		}
		if len(gotBS) != len(wantBS) {
			t.Fatalf("op %d: FileBlocks(%q) = %v, want %v", op, f, gotBS, wantBS)
		}
		for i := range gotBS {
			if gotBS[i] != wantBS[i] {
				t.Fatalf("op %d: FileBlocks(%q) = %v, want %v", op, f, gotBS, wantBS)
			}
		}
	}

	for b := BlockID(0); b < maxBlocks; b++ {
		if g, w := nn.Generation(b), oracle.gens[b]; g != w {
			t.Fatalf("op %d: Generation(%d) = %d, want %d", op, b, g, w)
		}
		gotHosts := nn.GetHosts(b)
		wantHosts := oracle.blocks[b]
		if len(gotHosts) != len(wantHosts) {
			t.Fatalf("op %d: GetHosts(%d) = %v, want %v", op, b, gotHosts, wantHosts)
		}
		for i := range gotHosts {
			if gotHosts[i] != wantHosts[i] {
				t.Fatalf("op %d: GetHosts(%d) = %v, want %v (registration order must survive)",
					op, b, gotHosts, wantHosts)
			}
		}
		if g, w := nn.ReplicaCount(b), len(wantHosts); g != w {
			t.Fatalf("op %d: ReplicaCount(%d) = %d, want %d", op, b, g, w)
		}
		for col := -1; col < 3; col++ {
			gotIdx := nn.GetHostsWithIndex(b, col)
			var wantIdx []NodeID
			for _, n := range wantHosts {
				info := oracle.reps[repKey{b, n}]
				if info.HasIndex && info.SortColumn == col {
					wantIdx = append(wantIdx, n)
				}
			}
			if len(gotIdx) != len(wantIdx) {
				t.Fatalf("op %d: GetHostsWithIndex(%d,%d) = %v, want %v", op, b, col, gotIdx, wantIdx)
			}
			for i := range gotIdx {
				if gotIdx[i] != wantIdx[i] {
					t.Fatalf("op %d: GetHostsWithIndex(%d,%d) = %v, want %v", op, b, col, gotIdx, wantIdx)
				}
			}
		}
		for n := 0; n < nodes; n++ {
			gotInfo, gotOK := nn.ReplicaInfo(b, NodeID(n))
			wantInfo, wantOK := oracle.reps[repKey{b, NodeID(n)}]
			if gotOK != wantOK || gotInfo != wantInfo {
				t.Fatalf("op %d: ReplicaInfo(%d,%d) = (%+v,%v), want (%+v,%v)",
					op, b, n, gotInfo, gotOK, wantInfo, wantOK)
			}
		}
	}
}

// compareFires asserts the replica-change hook fired exactly as often per
// block on the namenode as on the oracle — exactly once per affected
// block per mutation, never duplicated or dropped.
func compareFires(t *testing.T, op int, got, want map[BlockID]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("op %d: hook fired for blocks %v, want %v", op, got, want)
	}
	for b, n := range want {
		if got[b] != n {
			t.Fatalf("op %d: hook fired %d times for block %d, want %d", op, got[b], b, n)
		}
	}
}
