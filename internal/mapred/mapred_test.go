package mapred

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/hdfs"
)

// fakeInput serves text records straight from memory, one split per
// "block", with configurable locations; its reader delivers each block as
// one batch of raw lines. It lets engine tests control scheduling and
// failure behaviour precisely.
type fakeInput struct {
	cluster *hdfs.Cluster
	splits  []Split
	records map[hdfs.BlockID][]string
	// failOnDead makes Open/Read fail when the assigned node is dead,
	// emulating a reader that loses its replica.
	failOnDead bool
	// sig, when non-empty, is returned by QuerySignature — it makes the
	// fake input cacheable.
	sig string

	mu    sync.Mutex
	opens map[hdfs.NodeID]int
}

func (f *fakeInput) Splits(string, func(hdfs.BlockID) (hdfs.NodeID, bool)) ([]Split, TaskStats, error) {
	return f.splits, TaskStats{}, nil
}

func (f *fakeInput) Open(split Split, node hdfs.NodeID) (BatchReader, error) {
	f.mu.Lock()
	if f.opens == nil {
		f.opens = make(map[hdfs.NodeID]int)
	}
	f.opens[node]++
	f.mu.Unlock()
	return &fakeReader{input: f, split: split, node: node}, nil
}

type fakeReader struct {
	input *fakeInput
	split Split
	node  hdfs.NodeID
}

func (r *fakeReader) ReadBatches(fn func(*Batch)) (TaskStats, error) {
	if r.input.failOnDead {
		dn, err := r.input.cluster.DataNode(r.node)
		if err != nil || !dn.Alive() {
			return TaskStats{}, fmt.Errorf("node %d dead", r.node)
		}
	}
	var stats TaskStats
	for _, b := range r.split.Blocks {
		stats.Blocks++
		lines := r.input.records[b]
		stats.RecordsScanned += int64(len(lines))
		stats.RecordsDelivered += int64(len(lines))
		fn(&Batch{Raw: lines})
	}
	return stats, nil
}

func buildFake(t *testing.T, nodes, blocks, recsPerBlock int) (*hdfs.Cluster, *fakeInput) {
	t.Helper()
	c, err := hdfs.NewCluster(nodes)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeInput{cluster: c, records: make(map[hdfs.BlockID][]string)}
	for b := 0; b < blocks; b++ {
		id := hdfs.BlockID(b)
		for i := 0; i < recsPerBlock; i++ {
			f.records[id] = append(f.records[id], fmt.Sprintf("b%d-r%d", b, i))
		}
		f.splits = append(f.splits, Split{
			Blocks:    []hdfs.BlockID{id},
			Locations: []hdfs.NodeID{hdfs.NodeID(b % nodes), hdfs.NodeID((b + 1) % nodes)},
		})
	}
	return c, f
}

// appendRows appends the chunk's rows to kvs.
func appendRows(kvs []KV, c Chunk) []KV {
	for k, v := range c.All() {
		kvs = append(kvs, KV{k, v})
	}
	return kvs
}

// emitRaw is the fake input's map function: every raw line of the batch,
// keyed by itself, with value v.
func emitRaw(v string) MapBatchFunc {
	return func(b *Batch, out Emitter) {
		for _, line := range b.Raw {
			out.Emit(line, v)
		}
	}
}

func TestEngineMapOnly(t *testing.T) {
	c, f := buildFake(t, 4, 10, 50)
	e := &Engine{Cluster: c}
	job := &Job{
		Name:     "count",
		Input:    f,
		MapBatch: emitRaw("1"),
	}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Output) != 500 {
		t.Fatalf("output size = %d, want 500", len(res.Output))
	}
	if len(res.Tasks) != 10 {
		t.Fatalf("tasks = %d, want 10", len(res.Tasks))
	}
	total := res.TotalStats()
	if total.RecordsDelivered != 500 || total.Blocks != 10 {
		t.Errorf("stats: %+v", total)
	}
	for _, task := range res.Tasks {
		if task.Attempts != 1 {
			t.Errorf("task %d took %d attempts", task.TaskID, task.Attempts)
		}
		if !task.Local {
			t.Errorf("task %d not scheduled on a preferred location", task.TaskID)
		}
	}
}

func TestEngineSchedulingBalance(t *testing.T) {
	c, f := buildFake(t, 4, 40, 1)
	e := &Engine{Cluster: c}
	res, err := e.Run(&Job{Name: "bal", Input: f, MapBatch: func(*Batch, Emitter) {}})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[hdfs.NodeID]int{}
	for _, task := range res.Tasks {
		counts[task.Node]++
	}
	for n, got := range counts {
		if got < 5 || got > 15 {
			t.Errorf("node %d ran %d tasks; want balanced around 10", n, got)
		}
	}
}

func TestEngineFailoverReassignsTasks(t *testing.T) {
	c, f := buildFake(t, 4, 20, 5)
	f.failOnDead = true
	// Node 0 is dead before the job starts: all its preferred tasks must
	// run elsewhere.
	if err := c.KillNode(0); err != nil {
		t.Fatal(err)
	}
	e := &Engine{Cluster: c}
	res, err := e.Run(&Job{Name: "fo", Input: f, MapBatch: func(*Batch, Emitter) {}})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TotalStats().RecordsDelivered; got != 100 {
		t.Errorf("records = %d, want all 100 despite failure", got)
	}
	for _, task := range res.Tasks {
		if task.Node == 0 {
			t.Errorf("task %d ran on dead node", task.TaskID)
		}
	}
}

func TestEngineMidJobKill(t *testing.T) {
	c, f := buildFake(t, 4, 40, 5)
	f.failOnDead = true
	e := &Engine{Cluster: c, Parallelism: 2}
	var once sync.Once
	e.OnProgress = func(done, total int) {
		if done >= total/2 {
			once.Do(func() { c.KillNode(1) })
		}
	}
	res, err := e.Run(&Job{Name: "kill50", Input: f, MapBatch: func(*Batch, Emitter) {}})
	if err != nil {
		t.Fatalf("job failed after mid-job kill: %v", err)
	}
	if got := res.TotalStats().RecordsDelivered; got != 200 {
		t.Errorf("records = %d, want all 200", got)
	}
}

// TestEngineRunsMapBatchOnly: the engine hands MapBatch every batch whole,
// one per block here, in task order, and never calls a Map set beside it
// (the benchmark's jobs set both).
func TestEngineRunsMapBatchOnly(t *testing.T) {
	c, f := buildFake(t, 4, 6, 7)
	e := &Engine{Cluster: c, Parallelism: 1}
	batches := 0
	res, err := e.Run(&Job{
		Name: "mapbatch", Input: f,
		MapBatch: func(b *Batch, out Emitter) {
			batches++
			emitRaw("1")(b, out)
		},
		Map: func(Record, Emit) { t.Error("the engine called Map") },
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []KV
	for b := range 6 {
		for _, line := range f.records[hdfs.BlockID(b)] {
			want = append(want, KV{line, "1"})
		}
	}
	if !slices.Equal(res.Output, want) {
		t.Errorf("MapBatch job emitted %d KVs, want the 42 raw lines in block order", len(res.Output))
	}
	if batches != 6 {
		t.Errorf("MapBatch saw %d batches, want one per block (6)", batches)
	}
}

func TestTaskStatsAdd(t *testing.T) {
	a := TaskStats{Blocks: 1, BytesRead: 10, Seeks: 2, RecordsDelivered: 3, OutputBytes: 4}
	b := TaskStats{Blocks: 2, BytesRead: 20, Seeks: 3, RecordsDelivered: 5, OutputBytes: 6}
	a.Add(b)
	if a.Blocks != 3 || a.BytesRead != 30 || a.Seeks != 5 || a.RecordsDelivered != 8 || a.OutputBytes != 10 {
		t.Errorf("Add result: %+v", a)
	}
}

func TestOutputBytesAccounted(t *testing.T) {
	c, f := buildFake(t, 2, 2, 3)
	e := &Engine{Cluster: c}
	res, err := e.Run(&Job{Name: "out", Input: f, MapBatch: func(b *Batch, out Emitter) {
		for range b.Raw {
			out.Emit("key", "value")
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	// 6 records × ("key"+"value"+2) = 6 × 10.
	if got := res.TotalStats().OutputBytes; got != 60 {
		t.Errorf("OutputBytes = %d, want 60", got)
	}
}

func TestDefaultSchedulingBalancesLoad(t *testing.T) {
	c, err := hdfs.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeInput{cluster: c, records: map[hdfs.BlockID][]string{}}
	for b := 0; b < 40; b++ {
		id := hdfs.BlockID(b)
		f.records[id] = []string{"x"}
		f.splits = append(f.splits, Split{
			Blocks:    []hdfs.BlockID{id},
			Locations: []hdfs.NodeID{0}, // hot node
		})
	}
	e := &Engine{Cluster: c}
	res, err := e.Run(&Job{Name: "bal", Input: f, MapBatch: func(*Batch, Emitter) {}})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[hdfs.NodeID]int{}
	for _, task := range res.Tasks {
		counts[task.Node]++
	}
	if counts[0] == 40 {
		t.Error("default scheduling never used idle trackers")
	}
	if len(counts) < 3 {
		t.Errorf("tasks spread over %d trackers, want spillover", len(counts))
	}
}

// --- result-cache engine path ---

// sig makes fakeInput cacheable: QuerySignature turns it into a
// QuerySigner like core.InputFormat.
func (f *fakeInput) QuerySignature() (string, bool) { return f.sig, f.sig != "" }

// mapCache is an unbounded in-memory ResultCache for engine tests.
type mapCache struct {
	mu      sync.Mutex
	m       map[CacheKey]Chunk
	s       map[CacheKey]TaskStats
	hits    int
	misses  int
	lastKey CacheKey
}

func newMapCache() *mapCache {
	return &mapCache{m: make(map[CacheKey]Chunk), s: make(map[CacheKey]TaskStats)}
}

func (c *mapCache) Get(k CacheKey) (Chunk, TaskStats, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kvs, ok := c.m[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return kvs, c.s[k], ok
}

// CachedReplica is the packing probe, ignoring k.Replica; the lowest node
// wins.
func (c *mapCache) CachedReplica(k CacheKey) (hdfs.NodeID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	best, found := hdfs.NoReplica, false
	for ck := range c.m {
		if ck.File == k.File && ck.Block == k.Block && ck.Gen == k.Gen && ck.Query == k.Query && ck.MapSig == k.MapSig &&
			(!found || ck.Replica < best) {
			best, found = ck.Replica, true
		}
	}
	return best, found
}

func (c *mapCache) PutChunk(k CacheKey, chunk Chunk, stats TaskStats) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = chunk.Clone()
	c.s[k] = stats
	c.lastKey = k
	return true
}

func runCounting(t *testing.T, e *Engine, f *fakeInput, name string) *JobResult {
	t.Helper()
	res, err := e.Run(&Job{
		Name:     name,
		File:     "/fake",
		Input:    f,
		MapBatch: emitRaw("1"),
		MapSig:   "raw-count",
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestEngineCacheHitsSkipReads(t *testing.T) {
	c, f := buildFake(t, 4, 10, 20)
	f.sig = "f{}|p{*}"
	cache := newMapCache()
	e := &Engine{Cluster: c, Cache: cache}

	cold := runCounting(t, e, f, "job1")
	if got := cold.TotalStats().BlocksFromCache; got != 0 {
		t.Fatalf("cold job served %d blocks from cache", got)
	}
	opensBefore := 0
	f.mu.Lock()
	for _, n := range f.opens {
		opensBefore += n
	}
	f.mu.Unlock()

	hot := runCounting(t, e, f, "job2")
	st := hot.TotalStats()
	if st.BlocksFromCache != 10 {
		t.Errorf("hot job: %d blocks from cache, want 10", st.BlocksFromCache)
	}
	if st.RecordsScanned != 0 {
		t.Errorf("hot job scanned %d records, want 0", st.RecordsScanned)
	}
	opensAfter := 0
	f.mu.Lock()
	for _, n := range f.opens {
		opensAfter += n
	}
	f.mu.Unlock()
	if opensAfter != opensBefore {
		t.Errorf("hot job opened %d readers, want 0", opensAfter-opensBefore)
	}

	// Output must be byte-identical, order included.
	if len(hot.Output) != len(cold.Output) {
		t.Fatalf("hot output %d rows, cold %d", len(hot.Output), len(cold.Output))
	}
	for i := range hot.Output {
		if hot.Output[i] != cold.Output[i] {
			t.Fatalf("row %d differs: %v vs %v", i, hot.Output[i], cold.Output[i])
		}
	}
	// OutputBytes must be accounted identically for cached and computed
	// blocks.
	if hot.TotalStats().OutputBytes != cold.TotalStats().OutputBytes {
		t.Errorf("OutputBytes differ: hot %d, cold %d",
			hot.TotalStats().OutputBytes, cold.TotalStats().OutputBytes)
	}
}

// probedInput is a fakeInput that keeps the cache probe its split phase
// was handed.
type probedInput struct {
	*fakeInput
	cached func(hdfs.BlockID) (hdfs.NodeID, bool)
}

func (p *probedInput) Splits(file string, cached func(hdfs.BlockID) (hdfs.NodeID, bool)) ([]Split, TaskStats, error) {
	p.cached = cached
	return p.fakeInput.Splits(file, cached)
}

// TestEngineHandsSplitsItsCacheProbe: the split phase of a cached job gets
// a probe over the engine's own key — it finds each block at the node its
// output was computed at, and loses it once the block's generation moves
// on — and the split phase of an uncached job gets none.
func TestEngineHandsSplitsItsCacheProbe(t *testing.T) {
	c, f := buildFake(t, 4, 6, 3)
	in := &probedInput{fakeInput: f}
	job := &Job{Name: "probe", File: "/fake", Input: in, MapBatch: emitRaw("1"), MapSig: "raw"}
	if _, err := (&Engine{Cluster: c, Cache: newMapCache()}).Run(job); err != nil {
		t.Fatal(err)
	}
	if in.cached != nil {
		t.Fatal("a job with no QuerySignature got a cache probe")
	}

	f.sig = "q"
	e := &Engine{Cluster: c, Cache: newMapCache()}
	res, err := e.Run(job)
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range res.Tasks {
		b := task.Split.Blocks[0]
		if n, ok := in.cached(b); !ok || n != task.Node {
			t.Errorf("probe for block %d = %d, %v; want %d, true (computed there)", b, n, ok, task.Node)
		}
	}
	c.NameNode().RegisterReplica(0, 3, hdfs.ReplicaInfo{}) // a new replica bumps block 0's generation
	if _, ok := in.cached(0); ok {
		t.Error("the probe found block 0 at a generation it was never cached at")
	}

	job.MapSig = ""
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if in.cached != nil {
		t.Error("a job with no MapSig got a cache probe")
	}
}

func TestEngineCacheDisabledWithoutMapSig(t *testing.T) {
	c, f := buildFake(t, 4, 4, 5)
	f.sig = "f{}|p{*}"
	cache := newMapCache()
	e := &Engine{Cluster: c, Cache: cache}
	job := &Job{Name: "nosig", File: "/fake", Input: f,
		MapBatch: emitRaw("1")} // no MapSig
	if _, err := e.Run(job); err != nil {
		t.Fatal(err)
	}
	if len(cache.m) != 0 {
		t.Errorf("cache populated despite missing MapSig: %d entries", len(cache.m))
	}
}

func TestEngineCacheDisabledWithoutSigner(t *testing.T) {
	c, f := buildFake(t, 4, 4, 5)
	f.sig = "" // QuerySignature reports ok=false
	cache := newMapCache()
	e := &Engine{Cluster: c, Cache: cache}
	runCounting(t, e, f, "unsigned")
	if len(cache.m) != 0 {
		t.Errorf("cache populated despite unsigned input: %d entries", len(cache.m))
	}
}

func TestEngineCacheKeyUsesGeneration(t *testing.T) {
	c, f := buildFake(t, 4, 1, 5)
	f.sig = "f{}|p{*}"
	// Register the fake block with the namenode so it has a generation.
	c.NameNode().RegisterReplica(0, 0, hdfs.ReplicaInfo{})
	gen := c.NameNode().Generation(0)
	cache := newMapCache()
	e := &Engine{Cluster: c, Cache: cache}
	runCounting(t, e, f, "job1")
	if cache.lastKey.Gen != gen {
		t.Fatalf("cached at generation %d, namenode says %d", cache.lastKey.Gen, gen)
	}
	// A topology change (new replica) must make the next run miss.
	c.NameNode().RegisterReplica(0, 1, hdfs.ReplicaInfo{})
	cache.mu.Lock()
	cache.misses = 0
	cache.mu.Unlock()
	runCounting(t, e, f, "job2")
	cache.mu.Lock()
	defer cache.mu.Unlock()
	if cache.misses == 0 {
		t.Error("generation bump did not force a miss")
	}
	if cache.lastKey.Gen != gen+1 {
		t.Errorf("re-admitted at generation %d, want %d", cache.lastKey.Gen, gen+1)
	}
}

// TestEngineCacheConcurrentJob runs a cached job with full parallelism so
// `go test -race` exercises concurrent Get/Put through the engine.
func TestEngineCacheConcurrentJob(t *testing.T) {
	c, f := buildFake(t, 4, 32, 10)
	f.sig = "f{}|p{*}"
	cache := newMapCache()
	e := &Engine{Cluster: c, Cache: cache, Parallelism: 8}
	cold := runCounting(t, e, f, "cold")
	hot := runCounting(t, e, f, "hot")
	if len(cold.Output) != 320 || len(hot.Output) != 320 {
		t.Fatalf("outputs: cold %d, hot %d, want 320", len(cold.Output), len(hot.Output))
	}
	if got := hot.TotalStats().BlocksFromCache; got != 32 {
		t.Errorf("hot job: %d blocks from cache, want 32", got)
	}
}
