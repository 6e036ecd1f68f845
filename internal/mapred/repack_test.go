package mapred

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/hdfs"
)

// fakeBlockInput is a fakeInput whose reader fails when a block's pinned
// replica node is dead — the shape the engine needs to exercise
// packed-split repacking — and can be told to fail a block mid-read, once.
type fakeBlockInput struct {
	fakeInput
	mu sync.Mutex
	// blockOpens counts Open calls per block.
	blockOpens map[hdfs.BlockID]int
	// failOnce makes the read of a block fail once, then succeed.
	failOnce map[hdfs.BlockID]bool
	// failLate makes a failing read deliver the block's records first.
	failLate bool
	// killOn kills a node while the block is being read, once: the
	// block's records are delivered, then its pinned replica is gone.
	killOn map[hdfs.BlockID]hdfs.NodeID
}

func (f *fakeBlockInput) Open(split Split, node hdfs.NodeID) (BatchReader, error) {
	f.mu.Lock()
	if f.blockOpens == nil {
		f.blockOpens = make(map[hdfs.BlockID]int)
	}
	for _, b := range split.Blocks {
		f.blockOpens[b]++
	}
	f.mu.Unlock()
	return &fakeBlockReader{input: f, split: split}, nil
}

type fakeBlockReader struct {
	input *fakeBlockInput
	split Split
}

func (r *fakeBlockReader) ReadBatches(fn func(*Batch)) (TaskStats, error) {
	f := r.input
	var stats TaskStats
	for _, b := range r.split.Blocks {
		f.mu.Lock()
		fail := f.failOnce[b]
		delete(f.failOnce, b)
		f.mu.Unlock()
		failed := fmt.Errorf("block %d read failed (injected)", b)
		if fail && !f.failLate {
			return stats, failed
		}
		// A pinned replica on a dead node is unreadable.
		if pin, ok := r.split.Replica[b]; ok {
			dn, err := f.cluster.DataNode(pin)
			if err != nil || !dn.Alive() {
				return stats, fmt.Errorf("block %d: pinned replica on dead node %d", b, pin)
			}
		}
		stats.Blocks++
		lines := f.records[b]
		stats.RecordsScanned += int64(len(lines))
		stats.RecordsDelivered += int64(len(lines))
		fn(&Batch{Raw: lines})
		if fail {
			return stats, failed
		}
		f.mu.Lock()
		victim, kill := f.killOn[b]
		delete(f.killOn, b)
		f.mu.Unlock()
		if kill {
			if err := f.cluster.KillNode(victim); err != nil {
				return stats, err
			}
			return stats, fmt.Errorf("block %d: node %d died mid-read", b, victim)
		}
	}
	return stats, nil
}

// packedFixture builds a cluster whose namenode knows two replicas per
// block, plus one packed split pinning every block to pin.
func packedFixture(t *testing.T, nodes, blocks int, pin, backup hdfs.NodeID) (*hdfs.Cluster, *fakeBlockInput) {
	t.Helper()
	c, err := hdfs.NewCluster(nodes)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeBlockInput{}
	f.cluster = c
	f.records = make(map[hdfs.BlockID][]string)
	split := Split{Locations: []hdfs.NodeID{pin}, Replica: make(map[hdfs.BlockID]hdfs.NodeID)}
	for b := 0; b < blocks; b++ {
		id := hdfs.BlockID(b)
		c.NameNode().RegisterReplica(id, pin, hdfs.ReplicaInfo{})
		c.NameNode().RegisterReplica(id, backup, hdfs.ReplicaInfo{})
		for i := 0; i < 3; i++ {
			f.records[id] = append(f.records[id], fmt.Sprintf("b%d-r%d", b, i))
		}
		split.Blocks = append(split.Blocks, id)
		split.Replica[id] = pin
	}
	f.splits = []Split{split}
	return c, f
}

// TestSplitFallbackRepinsOnlyDeadPins: Split.Fallback re-resolves exactly
// the blocks pinned to dead nodes, leaves alive pins untouched, and
// recomputes the locations from the surviving pins.
func TestSplitFallbackRepinsOnlyDeadPins(t *testing.T) {
	c, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	nn := c.NameNode()
	// Blocks 0,1 replicated on {1,2}; block 2 on {3}.
	for _, b := range []hdfs.BlockID{0, 1} {
		nn.RegisterReplica(b, 1, hdfs.ReplicaInfo{})
		nn.RegisterReplica(b, 2, hdfs.ReplicaInfo{})
	}
	nn.RegisterReplica(2, 3, hdfs.ReplicaInfo{})
	split := Split{
		Blocks:    []hdfs.BlockID{0, 1, 2},
		Locations: []hdfs.NodeID{1},
		Replica:   map[hdfs.BlockID]hdfs.NodeID{0: 1, 1: 1, 2: 3},
	}
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	alive := func(n hdfs.NodeID) bool {
		dn, err := c.DataNode(n)
		return err == nil && dn.Alive()
	}
	out, repinned := split.Fallback(nn, alive)
	if repinned != 2 {
		t.Fatalf("repinned = %d, want 2", repinned)
	}
	if out.Replica[0] != 2 || out.Replica[1] != 2 {
		t.Errorf("blocks 0,1 re-pinned to %d,%d, want 2,2", out.Replica[0], out.Replica[1])
	}
	if out.Replica[2] != 3 {
		t.Errorf("block 2's alive pin changed to %d", out.Replica[2])
	}
	// Locations: node 2 carries two pins, node 3 one.
	if len(out.Locations) != 2 || out.Locations[0] != 2 || out.Locations[1] != 3 {
		t.Errorf("locations = %v, want [2 3]", out.Locations)
	}
	// The original split is untouched (Fallback returns a copy).
	if split.Replica[0] != 1 {
		t.Error("Fallback mutated the original split")
	}
}

// TestPackedSplitRepackedWhenPinDies: a packed split whose pinned node is
// dead by execution time is repacked before any read — the task succeeds
// on the first attempt with zero re-executed blocks.
func TestPackedSplitRepackedWhenPinDies(t *testing.T) {
	c, f := packedFixture(t, 4, 6, 1, 2)
	if err := c.KillNode(1); err != nil {
		t.Fatal(err)
	}
	e := &Engine{Cluster: c}
	res, err := e.Run(&Job{Name: "repack", Input: f, Map: func(r Record, emit Emit) { emit(r.Raw, "1") }})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 18 {
		t.Fatalf("output = %d rows, want 18", len(res.Output))
	}
	if res.Repacked != 1 {
		t.Errorf("Repacked = %d, want 1", res.Repacked)
	}
	if res.BlocksRerun != 0 || res.ReExecuted != 0 {
		t.Errorf("rerun=%d reexecuted=%d, want 0,0 (repack precedes any read)", res.BlocksRerun, res.ReExecuted)
	}
	task := res.Tasks[0]
	if task.Split.Replica[0] != 2 {
		t.Errorf("executed split still pinned to dead node: %v", task.Split.Replica)
	}
}

// TestPackedSplitMidTaskFailureRerunsOnlyAffectedBlocks: a block read
// failing mid-split must not rescan the split's completed blocks — the
// retry re-executes only the failed block and the remainder.
func TestPackedSplitMidTaskFailureRerunsOnlyAffectedBlocks(t *testing.T) {
	c, f := packedFixture(t, 4, 6, 1, 2)
	f.failOnce = map[hdfs.BlockID]bool{3: true}
	e := &Engine{Cluster: c}
	res, err := e.Run(&Job{Name: "midfail", Input: f, Map: func(r Record, emit Emit) { emit(r.Raw, "1") }})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 18 {
		t.Fatalf("output = %d rows, want 18", len(res.Output))
	}
	if res.BlocksRerun != 1 {
		t.Errorf("BlocksRerun = %d, want 1 (only the failed block)", res.BlocksRerun)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for b, n := range f.blockOpens {
		want := 1
		if b == 3 {
			want = 2 // failed once, succeeded on retry
		}
		if n != want {
			t.Errorf("block %d opened %d times, want %d", b, n, want)
		}
	}
}

// TestPackedCachedSplitMidSplitKill: the pinned node of a packed, partly
// cached split dies while block 4 is being read. The blocks before it —
// 0–2 hits whose chunks are the cache's own slices, 3 computed — stay done:
// the retry repins and resumes at block 4, only that block is rerun, its
// half-delivered chunk is dropped, the cached entries are untouched, and
// the output is the uncached run's byte for byte.
func TestPackedCachedSplitMidSplitKill(t *testing.T) {
	job := func(f *fakeBlockInput) *Job {
		return &Job{Name: "kill", File: "/fake", Input: f, MapSig: "raw", Map: func(r Record, emit Emit) { emit(r.Raw, "1") }}
	}
	c, f := packedFixture(t, 4, 6, 1, 2)
	want, err := (&Engine{Cluster: c}).Run(job(f))
	if err != nil {
		t.Fatal(err)
	}

	c, f = packedFixture(t, 4, 6, 1, 2)
	f.sig = "q"
	cache := newMapCache()
	e := &Engine{Cluster: c, Cache: cache, Parallelism: 1}
	// Warm blocks 0–2 only.
	whole := f.splits[0]
	head := whole
	head.Blocks = whole.Blocks[:3]
	f.splits = []Split{head}
	if _, err := e.Run(job(f)); err != nil {
		t.Fatal(err)
	}
	warm := make(map[CacheKey][]KV)
	for k, kvs := range cache.m {
		warm[k] = append([]KV(nil), kvs...)
	}

	f.splits = []Split{whole}
	f.blockOpens = nil
	f.killOn = map[hdfs.BlockID]hdfs.NodeID{4: 1}
	res, err := e.Run(job(f))
	if err != nil {
		t.Fatal(err)
	}
	task := res.Tasks[0]
	if task.Attempts != 2 || task.Repacks != 1 || res.BlocksRerun != 1 {
		t.Errorf("attempts=%d repacks=%d rerun=%d, want 2,1,1 (only the interrupted block)", task.Attempts, task.Repacks, res.BlocksRerun)
	}
	if st := task.Stats; st.Blocks != 6 || st.BlocksFromCache != 3 {
		t.Errorf("stats: %d blocks, %d from cache, want 6 and 3", st.Blocks, st.BlocksFromCache)
	}
	for b, want := range map[hdfs.BlockID]int{3: 1, 4: 2, 5: 1} {
		if f.blockOpens[b] != want {
			t.Errorf("block %d opened %d times, want %d", b, f.blockOpens[b], want)
		}
	}
	if len(f.blockOpens) != 3 {
		t.Errorf("opened blocks %v, want only 3, 4 and 5 (0–2 are cached)", f.blockOpens)
	}
	if !slices.Equal(res.Output, want.Output) {
		t.Errorf("output differs from the uncached run:\n got %v\nwant %v", res.Output, want.Output)
	}
	for k, kvs := range warm {
		if !slices.Equal(cache.m[k], kvs) {
			t.Errorf("cached entry %+v changed under the failed task: %v, was %v", k, cache.m[k], kvs)
		}
	}
}
