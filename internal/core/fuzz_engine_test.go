package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/obs"
	"repro/internal/pax"
	"repro/internal/qcache"
	"repro/internal/query"
	"repro/internal/schema"
	"repro/internal/workload"
)

// engineKnobs is one point of FuzzEngine's configuration space, packed
// into the fuzz input's knob word.
type engineKnobs struct {
	splitting, packScans bool
	par                  int // 1–4
	cache                cacheMode
	trace                bool
	fault                fault
	bob                  bool // Bob's schema, data and layout instead of random ones
	reverse              bool // the query's conjuncts in reverse order
}

type cacheMode int

const (
	cacheOff  cacheMode = iota
	cacheCold           // one run, filling a cache
	cacheHot            // the cold run, then the same job again on its cache
	cacheTiny           // cacheHot on a cache at qcache's 32 KiB floor, which evicts
)

type fault int

const (
	noFault    fault = iota
	killNode         // a node dies when task k completes
	flipOne          // one byte flipped in one replica
	flipAll          // one byte of chunk 0 flipped on every replica of a block: the job fails
	replaceOne       // one replica rebuilt in another order before the hot run
)

func (k engineKnobs) encode() uint64 {
	b := func(v bool, shift int) uint64 {
		if v {
			return 1 << shift
		}
		return 0
	}
	return b(k.splitting, 0) | b(k.packScans, 1) | uint64(k.par-1)<<2 | uint64(k.cache)<<4 |
		b(k.trace, 6) | uint64(k.fault)<<7 | b(k.bob, 10) | b(k.reverse, 11)
}

func decodeKnobs(w uint64) engineKnobs {
	k := engineKnobs{
		splitting: w&1 != 0, packScans: w&2 != 0, par: int(w>>2&3) + 1,
		cache: cacheMode(w >> 4 & 3), trace: w&(1<<6) != 0, fault: fault(w >> 7 & 7),
		bob: w&(1<<10) != 0, reverse: w&(1<<11) != 0,
	}
	if k.fault > replaceOne {
		k.fault = noFault
	}
	return k
}

// FuzzEngine is the differential oracle of HAIL's query path. From a seed it
// draws a schema, text data with bad records of every kind (NUL bytes
// included), a replica layout, a block size and a query with its conjuncts
// in any order; the knob word picks HailSplitting, PackScans, the engine's
// parallelism, a cold, hot or evicting result cache or none, tracing, and
// at most one fault. Every run is held to query.EvalText over the input
// lines — an evaluator that shares no code with the parser, the PAX
// decoder or the kernels:
//
//   - the output is EvalText's multiset of rows, and a hot run of the cold
//     run's splits returns the cold output byte for byte, from a cache that
//     evicted or one that kept every block;
//   - a traced run equals an untraced one in output and TotalStats, and its
//     trace validates, a failed run's included;
//   - per block, RowsSelected is the good rows the query selects and
//     RowsScanned is its access path's: the block's good rows for a full
//     scan, for an index scan the partitions a conjunct's range covers in
//     the replica sorted on its attribute;
//   - ChecksumFailovers equals the checksum failures the datanodes saw, a
//     failover quarantines the replica it left, and a block corrupt on
//     every replica fails the job with an error naming it. After a
//     quarantine the traced and untraced runs compared are both made after
//     it, and the hot run repeats a run that recomputed the quarantined
//     block alone;
//   - no cache hit serves an entry from another generation of its block;
//   - goroutines return to their baseline.
func FuzzEngine(f *testing.F) {
	for trial := 0; trial < 12; trial++ { // the former randomized pipeline trials
		f.Add(int64(1000+trial), engineKnobs{
			splitting: trial%2 == 0, packScans: trial%3 == 0, par: 1 + trial%4,
			cache: cacheMode(trial % 3), trace: trial%2 == 1,
		}.encode())
	}
	for _, c := range []struct {
		seed int64
		k    engineKnobs
	}{
		{2000, engineKnobs{bob: true, splitting: true, par: 2, cache: cacheHot, trace: true}},
		{2000, engineKnobs{bob: true, splitting: true, par: 2, cache: cacheHot, trace: true, reverse: true}},
		{2001, engineKnobs{bob: true, par: 1, cache: cacheHot, trace: true, fault: killNode}},
		{2001, engineKnobs{splitting: true, packScans: true, par: 4, cache: cacheCold, fault: killNode}},
		{5006, engineKnobs{bob: true, splitting: true, par: 3, cache: cacheHot, trace: true, fault: flipOne}}, // flips a byte a read touches
		{2003, engineKnobs{par: 2, trace: true, fault: flipAll}},
		{2003, engineKnobs{bob: true, packScans: true, par: 1, cache: cacheHot, trace: true, fault: flipAll}},
		{2004, engineKnobs{bob: true, splitting: true, par: 2, cache: cacheHot, trace: true, fault: replaceOne}},
		{2004, engineKnobs{packScans: true, par: 1, cache: cacheHot, fault: replaceOne}},
		{4015, engineKnobs{par: 4, trace: true}}, // index ranges that start past the second partition
	} {
		f.Add(c.seed, c.k.encode())
	}
	// The evicting cache's seeds must evict and hit, so that neither the
	// axis nor the recorder's hit checks on it go vacuous. A scan larger
	// than the cache mostly thrashes it; at Parallelism 1 these hit a few
	// blocks, the same ones every run.
	evicting := []struct {
		seed int64
		k    engineKnobs
	}{
		{3006, engineKnobs{bob: true, splitting: true, par: 1, cache: cacheTiny, trace: true}},
		{3003, engineKnobs{splitting: true, packScans: true, par: 1, cache: cacheTiny}},
	}
	for _, c := range evicting {
		f.Add(c.seed, c.k.encode())
	}
	f.Fuzz(func(t *testing.T, seed int64, knobs uint64) {
		baseline := runtime.NumGoroutine()
		st := runEngineCase(t, seed, decodeKnobs(knobs))
		for _, c := range evicting {
			if c.seed == seed && c.k.encode() == knobs && (st.Evictions == 0 || st.Hits == 0) {
				t.Fatalf("seed %d, %+v: the tiny cache evicted %d entries and hit %d", seed, c.k, st.Evictions, st.Hits)
			}
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > baseline; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines, %d before the case", runtime.NumGoroutine(), baseline)
			}
		}
	})
}

// runEngineCase runs one input and returns its cache's counters.
func runEngineCase(t *testing.T, seed int64, k engineKnobs) (cacheStats qcache.Stats) {
	rng := rand.New(rand.NewSource(seed))
	var (
		sch    *schema.Schema
		lines  []string
		layout []int
		nodes  int
		block  int
		q      *query.Query
	)
	if k.bob {
		sch, lines = workload.UserVisitsSchema(), bobLines(rng)
		layout = []int{workload.UVVisitDate, workload.UVSourceIP, workload.UVAdRevenue}
		nodes, block = 3+rng.Intn(3), 16<<10+rng.Intn(32<<10<<rng.Intn(5)) // 16 KB–528 KB, log-uniform
		q = &query.Query{
			Filter: []query.Predicate{
				query.Between(workload.UVAdRevenue, schema.FloatVal(1), schema.FloatVal(100)),
				query.Eq(workload.UVSourceIP, schema.StringVal(workload.NeedleIP)),
			},
			Projection: []int{workload.UVSearchWord, workload.UVDuration, workload.UVAdRevenue},
		}
		if k.cache == cacheTiny {
			// The needle's few rows fit any cache. The evicting one gets the
			// revenue range alone, every attribute of about a fifth of the rows.
			q = &query.Query{Filter: q.Filter[:1]}
		}
	} else {
		sch = randomSchema(rng)
		var rows []schema.Row
		lines, rows = randomLines(rng, sch, 1500+rng.Intn(3000))
		layout = randomLayout(rng, sch)
		nodes, block = len(layout)+rng.Intn(4), 4096+rng.Intn(8192<<rng.Intn(5)) // 4 KB–132 KB, log-uniform
		q = randomQuery(rng, sch, rows)
	}
	if k.reverse {
		slices.Reverse(q.Filter)
	}
	cluster, err := hdfs.NewCluster(nodes)
	if err != nil {
		t.Fatal(err)
	}
	client := &Client{Cluster: cluster, Config: LayoutConfig{Schema: sch, SortColumns: layout, BlockSize: block}}
	sum, err := client.Upload("/fuzz", lines)
	if err != nil {
		t.Fatalf("upload (schema %s, layout %v): %v", sch, layout, err)
	}
	want, oracles := textOracle(sch, q, lines, block)
	if len(oracles) != len(sum.BlockIDs) {
		t.Fatalf("the oracle cuts %d blocks, the upload %d", len(oracles), len(sum.BlockIDs))
	}
	blocks := make(map[hdfs.BlockID]blockOracle, len(oracles))
	for i, b := range sum.BlockIDs {
		blocks[b] = oracles[i]
	}
	desc := fmt.Sprintf("schema %s, layout %v, block size %d, query %s, %+v", sch, layout, block, q, k)

	// The fault's target, drawn whatever the fault so that the knobs alone
	// decide it.
	fb := sum.BlockIDs[rng.Intn(len(sum.BlockIDs))]
	hosts := cluster.NameNode().GetHosts(fb)
	fnode := hosts[rng.Intn(len(hosts))]
	fdn, _ := cluster.DataNode(fnode)
	foff := rng.Int()
	victim, killAt := hdfs.NodeID(rng.Intn(nodes)), 1+rng.Intn(8)
	replaceCol := rng.Intn(sch.NumFields()+1) - 1
	replace := func() {
		data, err := cluster.ReadBlockFrom(fnode, fb)
		if err != nil {
			t.Fatal(err)
		}
		paxData, _, err := ParseFrame(data)
		if err != nil {
			t.Fatal(err)
		}
		framed, info, err := buildReplica(paxData, replaceCol)
		if err != nil {
			t.Fatal(err)
		}
		if err := cluster.ReplaceReplica(fb, fnode, framed, info); err != nil {
			t.Fatal(err)
		}
	}
	switch k.fault {
	case flipOne:
		if err := fdn.CorruptByte(fb, foff%fdn.ReplicaSize(fb)); err != nil {
			t.Fatal(err)
		}
	case flipAll:
		for _, h := range hosts {
			dn, _ := cluster.DataNode(h)
			if err := dn.CorruptByte(fb, foff%min(hdfs.ChunkSize, dn.ReplicaSize(fb))); err != nil {
				t.Fatal(err)
			}
		}
	case replaceOne:
		if k.cache < cacheHot {
			replace()
		}
	}

	newCache := func() *cacheRecorder {
		budget := int64(0) // qcache.DefaultBudget
		switch k.cache {
		case cacheOff:
			return nil
		case cacheTiny:
			budget = 1 // raised to the floor
		}
		return &cacheRecorder{Cache: qcache.New(budget), nn: cluster.NameNode(), puts: make(map[mapred.CacheKey]bool)}
	}
	var killOnce sync.Once
	run := func(c *cacheRecorder, traced, kill bool) (*mapred.JobResult, mapred.TaskStats, error) {
		e := &mapred.Engine{Cluster: cluster, Parallelism: k.par}
		in := &InputFormat{Cluster: cluster, Query: q, Splitting: k.splitting, PackScans: k.packScans}
		job := &mapred.Job{Name: "fuzz", File: "/fuzz", Input: &oracleInput{in, t, blocks}, MapBatch: workload.PassthroughMapBatch}
		if c != nil {
			e.Cache, job.MapSig = c, workload.PassthroughMapSig
			if k.packScans {
				sig, _ := in.QuerySignature()
				in.CachedReplica = func(b hdfs.BlockID) (hdfs.NodeID, bool) {
					return c.CachedReplica("/fuzz", b, cluster.NameNode().Generation(b), sig, workload.PassthroughMapSig)
				}
			}
		}
		if traced {
			job.Trace = obs.NewTrace("fuzz")
		}
		if kill {
			e.OnProgress = func(done, total int) {
				if done == min(killAt, total) {
					killOnce.Do(func() {
						if err := cluster.KillNode(victim); err != nil {
							t.Error(err)
						}
					})
				}
			}
		}
		failures := checksumFailures(cluster)
		res, err := e.Run(job)
		if err := job.Trace.Validate(); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		if err != nil {
			return nil, mapred.TaskStats{}, err
		}
		st := res.TotalStats()
		if got := multisetOf(res.Output); !mapsEqual(got, want) {
			t.Fatalf("%s: %d rows (%d distinct), EvalText selects %d distinct", desc, len(res.Output), len(got), len(want))
		}
		if st.BlocksFromCache == 0 && st.RowsSelected != int64(len(res.Output)) {
			t.Fatalf("%s: RowsSelected %d, %d rows emitted", desc, st.RowsSelected, len(res.Output))
		}
		if seen := checksumFailures(cluster) - failures; int64(st.ChecksumFailovers) != seen {
			t.Fatalf("%s: %d checksum failovers, the datanodes failed %d verifications", desc, st.ChecksumFailovers, seen)
		}
		if c != nil && len(c.stale) > 0 {
			t.Fatalf("%s: stale cache hits: %v", desc, c.stale)
		}
		return res, st, nil
	}

	cache := newCache()
	if cache != nil {
		defer func() { cacheStats = cache.Stats() }()
	}
	cold, coldStats, err := run(cache, k.trace, k.fault == killNode)
	if k.fault == flipAll {
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("block %d ", fb)) {
			t.Fatalf("%s: block %d is corrupt on every replica; the job returned %v", desc, fb, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", desc, err)
	}
	// A failover quarantines the replica it left — flipOne's block keeps
	// its others — so every later run chooses among the replicas left, and
	// the runs compared with the cold one are made after it.
	quarantined := slices.ContainsFunc(cluster.NameNode().Quarantined(), func(q hdfs.Quarantine) bool {
		return q.Block == fb && q.Node == fnode
	})
	if quarantined != (k.fault == flipOne && coldStats.ChecksumFailovers > 0) {
		t.Fatalf("%s: %d checksum failovers; block %d on node %d quarantined: %v", desc, coldStats.ChecksumFailovers, fb, fnode, quarantined)
	}
	if k.trace && k.fault != killNode {
		traced, tracedStats := cold, coldStats
		if quarantined {
			if traced, tracedStats, err = run(newCache(), true, false); err != nil {
				t.Fatalf("%s: traced, after the quarantine: %v", desc, err)
			}
		}
		plain, plainStats, err := run(newCache(), false, false)
		if err != nil {
			t.Fatalf("%s: untraced: %v", desc, err)
		}
		if !slices.Equal(plain.Output, traced.Output) || plainStats != tracedStats {
			t.Fatalf("%s: traced and untraced runs differ:\ntraced:   %+v\nuntraced: %+v", desc, tracedStats, plainStats)
		}
	}
	if k.cache < cacheHot {
		return
	}
	cache.checkGen = true
	if quarantined {
		// The cold run put the block at the generation before the
		// quarantine, so the next run recomputes it, from the replicas
		// left, with every block whose split moved off the replica its key
		// names; it serves every key the cold run put, and is the run the
		// hot one repeats.
		if cold, _, err = run(cache, k.trace, false); err != nil {
			t.Fatalf("%s: after the quarantine: %v", desc, err)
		}
		if k.cache == cacheHot && len(cache.lost) > 0 {
			t.Fatalf("%s: after the quarantine, blocks %v missed keys the cold run put", desc, cache.lost)
		}
	}
	if k.fault == replaceOne {
		replace()
	}
	hot, hotStats, err := run(cache, k.trace, false)
	if err != nil {
		t.Fatalf("%s: hot: %v", desc, err)
	}
	// A hot run of the cold run's splits returns its output byte for byte,
	// hits and recomputed misses alike. PackScans may pack the fully cached
	// blocks differently — the task order, and with it the output's, is
	// then the hot plan's. Only a cache that holds the working set serves
	// every block.
	sameSplits := slices.EqualFunc(hot.Tasks, cold.Tasks, func(a, b mapred.TaskReport) bool {
		return slices.Equal(a.Split.Blocks, b.Split.Blocks)
	})
	if k.fault == noFault || k.fault == flipOne {
		if k.cache == cacheHot && hotStats.BlocksFromCache != hotStats.Blocks || sameSplits && !slices.Equal(hot.Output, cold.Output) {
			t.Fatalf("%s: the hot run served %d of %d blocks from cache; output equal to the cold run's: %v",
				desc, hotStats.BlocksFromCache, hotStats.Blocks, slices.Equal(hot.Output, cold.Output))
		}
	}
	return
}

// blockOracle is what EvalText says of one block's lines: its good rows,
// the rows the query selects, and per conjunct the good rows below its
// lower bound and at or below its upper bound — the rank range its
// qualifying rows occupy in a replica sorted on its attribute.
type blockOracle struct {
	good, selected int
	below, atMost  []int
}

// indexRows is the rows an index scan of the block examines for conjunct
// i: from the partition before the first whose first key reaches the
// lower bound, to the last whose first key is within the upper bound. In
// a replica sorted on the conjunct's attribute the key at row r reaches
// the lower bound when r ≥ below, and is within the upper when r < atMost.
func (o blockOracle) indexRows(i int) int {
	const p = pax.PartitionSize
	from := max(0, (o.below[i]+p-1)/p-1) * p
	to := min(o.good, (o.atMost[i]+p-1)/p*p)
	return max(0, to-from)
}

// textOracle cuts lines into blocks as the HAIL client does and evaluates
// the query over each with EvalText: the multiset of rows the job must
// return, and each block's oracle.
func textOracle(s *schema.Schema, q *query.Query, lines []string, blockSize int) (map[string]int, []blockOracle) {
	want := make(map[string]int)
	all := &query.Query{}
	var blocks []blockOracle
	var cur *blockOracle
	text := 0
	for _, line := range lines {
		if cur == nil {
			blocks = append(blocks, blockOracle{below: make([]int, len(q.Filter)), atMost: make([]int, len(q.Filter))})
			cur = &blocks[len(blocks)-1]
		}
		if _, ok := all.EvalText(s, line); ok {
			cur.good++
			if row, ok := q.EvalText(s, line); ok {
				cur.selected++
				want[row]++
			}
			for i, p := range q.Filter {
				if _, ok := (&query.Query{Filter: []query.Predicate{{Column: p.Column, Lo: p.Lo}}}).EvalText(s, line); !ok {
					cur.below[i]++
				}
				if _, ok := (&query.Query{Filter: []query.Predicate{{Column: p.Column, Hi: p.Hi}}}).EvalText(s, line); ok {
					cur.atMost[i]++
				}
			}
		}
		if text += len(line) + 1; text >= blockSize {
			cur, text = nil, 0
		}
	}
	return want, blocks
}

// oracleInput is the HAIL input format with every block's read checked
// against its oracle: the engine opens one block at a time, so each
// reader's stats are one block's.
type oracleInput struct {
	*InputFormat
	t      *testing.T
	blocks map[hdfs.BlockID]blockOracle
}

func (in *oracleInput) Open(split mapred.Split, node hdfs.NodeID) (mapred.BatchReader, error) {
	rr, err := in.InputFormat.Open(split, node)
	if err != nil {
		return nil, err
	}
	return oracleReader{rr, in, split}, nil
}

type oracleReader struct {
	mapred.BatchReader
	in    *oracleInput
	split mapred.Split
}

func (r oracleReader) ReadBatches(fn func(*mapred.Batch)) (mapred.TaskStats, error) {
	st, err := r.BatchReader.ReadBatches(fn)
	if err != nil {
		return st, err
	}
	if len(r.split.Blocks) != 1 || st.IndexScans+st.FullScans != 1 {
		r.in.t.Errorf("a reader over blocks %v reported %d index and %d full scans", r.split.Blocks, st.IndexScans, st.FullScans)
		return st, err
	}
	b := r.split.Blocks[0]
	o := r.in.blocks[b]
	if st.RowsSelected != int64(o.selected) {
		r.in.t.Errorf("block %d: RowsSelected %d, EvalText selects %d", b, st.RowsSelected, o.selected)
	}
	// The access path's rows: the whole block for a full scan, one
	// conjunct's qualifying partitions for an index scan.
	paths := []int{o.good}
	if st.IndexScans == 1 {
		paths = paths[:0]
		for i := range r.in.Query.Filter {
			paths = append(paths, o.indexRows(i))
		}
	}
	if !slices.Contains(paths, int(st.RowsScanned)) {
		r.in.t.Errorf("block %d: %d rows scanned by %d index scan(s); the access paths examine %v", b, st.RowsScanned, st.IndexScans, paths)
	}
	return st, nil
}

// cacheRecorder is the result cache with every hit checked: a hit must
// return an entry put under exactly its key, and — once checkGen is set,
// when no fault changes the topology during the run — a key of the
// block's current generation. It also keeps the misses on keys it put,
// which a cache that holds the working set never has.
type cacheRecorder struct {
	*qcache.Cache
	nn       *hdfs.NameNode
	mu       sync.Mutex
	puts     map[mapred.CacheKey]bool
	checkGen bool
	stale    []string
	lost     []hdfs.BlockID
}

func (c *cacheRecorder) Get(k mapred.CacheKey) ([]mapred.KV, mapred.TaskStats, bool) {
	kvs, st, ok := c.Cache.Get(k)
	c.mu.Lock()
	if gen := c.nn.Generation(k.Block); ok && (!c.puts[k] || c.checkGen && k.Gen != gen) {
		c.stale = append(c.stale, fmt.Sprintf("block %d: a hit at generation %d (now %d), put under that key: %v", k.Block, k.Gen, gen, c.puts[k]))
	}
	if !ok && c.puts[k] {
		c.lost = append(c.lost, k.Block)
	}
	c.mu.Unlock()
	return kvs, st, ok
}

func (c *cacheRecorder) Put(k mapred.CacheKey, kvs []mapred.KV, st mapred.TaskStats) bool {
	ok := c.Cache.Put(k, kvs, st)
	if ok {
		c.mu.Lock()
		c.puts[k] = true
		c.mu.Unlock()
	}
	return ok
}

func checksumFailures(c *hdfs.Cluster) int64 {
	var n int64
	for i := 0; i < c.NumNodes(); i++ {
		dn, _ := c.DataNode(hdfs.NodeID(i))
		n += dn.ChecksumFailures()
	}
	return n
}

func multisetOf(kvs []mapred.KV) map[string]int {
	m := make(map[string]int)
	for _, kv := range kvs {
		m[kv.Key]++
	}
	return m
}

func mapsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// randomSchema builds a 2–6 attribute schema over all types.
func randomSchema(rng *rand.Rand) *schema.Schema {
	types := []schema.Type{schema.Int32, schema.Int64, schema.Float64, schema.Date, schema.String}
	fields := make([]schema.Field, 2+rng.Intn(5))
	for i := range fields {
		fields[i] = schema.Field{Name: "f" + strconv.Itoa(i), Type: types[rng.Intn(len(types))]}
	}
	return schema.MustNew(fields...)
}

// randomLayout assigns each of 2–4 replicas a random sort column or -1,
// the first always a column so that both access paths occur.
func randomLayout(rng *rand.Rand, s *schema.Schema) []int {
	out := make([]int, 2+rng.Intn(3))
	for i := range out {
		out[i] = rng.Intn(s.NumFields()+1) - 1
	}
	if out[0] < 0 {
		out[0] = rng.Intn(s.NumFields())
	}
	return out
}

// randomLines renders n random rows of s, with bad records of every kind
// among them: a foreign line, an empty one, a NUL byte, a value that does
// not parse, one field too many (a good line when the last attribute is a
// String, which then holds the separator). rows are the good rows drawn,
// for anchoring query bounds on values that occur.
func randomLines(rng *rand.Rand, s *schema.Schema, n int) (lines []string, rows []schema.Row) {
	words := []string{"aa", "bb", "cc", "dd", "ee", "ff", "gg"}
	spoil := []string{"abc", "1999-02-30", "NaN", "", "1e400"}
	for i := 0; i < n; i++ {
		row := make(schema.Row, s.NumFields())
		for c := range row {
			switch s.Field(c).Type {
			case schema.Int32:
				row[c] = schema.IntVal(rng.Int31n(1000))
			case schema.Int64:
				row[c] = schema.LongVal(rng.Int63n(100000))
			case schema.Float64:
				row[c] = schema.FloatVal(float64(rng.Intn(4000)) / 4)
			case schema.Date:
				row[c] = schema.DateVal(10000 + rng.Int31n(2000))
			case schema.String:
				row[c] = schema.StringVal(words[rng.Intn(len(words))])
			}
		}
		line := row.Line(',')
		switch rng.Intn(60) {
		case 0:
			line = []string{"### bad record ###", ""}[rng.Intn(2)]
		case 1:
			at := rng.Intn(len(line) + 1)
			line = line[:at] + "\x00" + line[at:]
		case 2:
			fields := strings.Split(line, ",")
			fields[rng.Intn(len(fields))] = spoil[rng.Intn(len(spoil))]
			line = strings.Join(fields, ",")
		case 3:
			line += ",x"
		default:
			rows = append(rows, row)
		}
		lines = append(lines, line)
	}
	return lines, rows
}

// bobLines is UserVisits data with planted needles and the generator's bad
// records, plus the bad records a hand-written text map once took for
// good: an impossible date, a NUL byte, a duration that is not a number.
func bobLines(rng *rand.Rand) []string {
	lines := workload.GenerateUserVisits(2000+rng.Intn(2000), rng.Int63(), workload.UserVisitsOptions{NeedleEvery: 101, BadEvery: 97})
	for i, line := range lines {
		fields := strings.Split(line, ",")
		if len(fields) != 9 {
			continue
		}
		switch rng.Intn(50) {
		case 0:
			fields[workload.UVVisitDate] = "1999-02-30"
		case 1:
			fields[workload.UVSearchWord] += "\x00"
		case 2:
			fields[workload.UVDuration] = "abc"
		}
		lines[i] = strings.Join(fields, ",")
	}
	return lines
}

// randomQuery builds a 1–3 predicate conjunction with a random projection,
// anchored on values that actually occur so results are non-trivial.
func randomQuery(rng *rand.Rand, s *schema.Schema, rows []schema.Row) *query.Query {
	q := &query.Query{}
	for p := 1 + rng.Intn(3); p > 0; p-- {
		col := rng.Intn(s.NumFields())
		anchor := rows[rng.Intn(len(rows))][col]
		switch rng.Intn(4) {
		case 0:
			q.Filter = append(q.Filter, query.Eq(col, anchor))
		case 1:
			q.Filter = append(q.Filter, query.AtLeast(col, anchor))
		case 2:
			q.Filter = append(q.Filter, query.AtMost(col, anchor))
		default:
			hi := rows[rng.Intn(len(rows))][col]
			if anchor.Compare(hi) > 0 {
				anchor, hi = hi, anchor
			}
			q.Filter = append(q.Filter, query.Between(col, anchor, hi))
		}
	}
	if rng.Intn(3) > 0 { // else empty: all attributes
		q.Projection = rng.Perm(s.NumFields())[:1+rng.Intn(s.NumFields())]
	}
	return q
}
