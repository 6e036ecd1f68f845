package qcache

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/mapred"
)

func key(b int, gen uint64) mapred.CacheKey {
	return mapred.CacheKey{
		File: "/f", Block: hdfs.BlockID(b), Gen: gen,
		Query: "f{@9[100..199]}|p{@1}", MapSig: "test", Replica: 0,
	}
}

func kvs(n int, tag string) []mapred.KV {
	out := make([]mapred.KV, n)
	for i := range out {
		out[i] = mapred.KV{Key: fmt.Sprintf("%s-%d", tag, i), Value: "v"}
	}
	return out
}

func TestGetPutRoundTrip(t *testing.T) {
	c := New(1 << 20)
	want := kvs(10, "a")
	c.Put(key(1, 1), want, mapred.TaskStats{BytesRead: 1000})
	got, stats, ok := c.Get(key(1, 1))
	if !ok {
		t.Fatal("miss after put")
	}
	if len(got) != len(want) || got[0] != want[0] || got[9] != want[9] {
		t.Fatalf("got %v, want %v", got, want)
	}
	if stats.BytesRead != 1000 {
		t.Errorf("stats not preserved: %+v", stats)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("stats %+v, want 1 hit / 1 put / 1 entry", st)
	}
	if st.BytesSaved != 1000 {
		t.Errorf("BytesSaved = %d, want 1000", st.BytesSaved)
	}
}

func TestKeyComponentsSeparateEntries(t *testing.T) {
	c := New(1 << 20)
	base := key(1, 1)
	c.Put(base, kvs(1, "base"), mapred.TaskStats{})
	variants := []mapred.CacheKey{
		{File: "/g", Block: base.Block, Gen: base.Gen, Query: base.Query, MapSig: base.MapSig, Replica: base.Replica},
		{File: base.File, Block: 2, Gen: base.Gen, Query: base.Query, MapSig: base.MapSig, Replica: base.Replica},
		{File: base.File, Block: base.Block, Gen: 2, Query: base.Query, MapSig: base.MapSig, Replica: base.Replica},
		{File: base.File, Block: base.Block, Gen: base.Gen, Query: "f{}|p{*}", MapSig: base.MapSig, Replica: base.Replica},
		{File: base.File, Block: base.Block, Gen: base.Gen, Query: base.Query, MapSig: "other", Replica: base.Replica},
		{File: base.File, Block: base.Block, Gen: base.Gen, Query: base.Query, MapSig: base.MapSig, Replica: 1},
	}
	for i, k := range variants {
		if _, _, ok := c.Get(k); ok {
			t.Errorf("variant %d unexpectedly hit: %+v", i, k)
		}
	}
	if _, _, ok := c.Get(base); !ok {
		t.Error("exact key must still hit")
	}
}

func TestGenerationChangeMisses(t *testing.T) {
	c := New(1 << 20)
	c.Put(key(7, 3), kvs(4, "g3"), mapred.TaskStats{})
	if _, _, ok := c.Get(key(7, 4)); ok {
		t.Fatal("bumped generation must miss")
	}
	if _, _, ok := c.Get(key(7, 3)); !ok {
		t.Fatal("old generation entry should still be resident until purged")
	}
	c.InvalidateBlock(7)
	if _, _, ok := c.Get(key(7, 3)); ok {
		t.Fatal("invalidated entry served")
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats after invalidation: %+v", st)
	}
}

func TestInvalidateBlockPurgesAllGenerationsAndQueries(t *testing.T) {
	c := New(1 << 20)
	for gen := uint64(1); gen <= 3; gen++ {
		k := key(5, gen)
		c.Put(k, kvs(2, "x"), mapred.TaskStats{})
		k.Query = "f{}|p{*}"
		c.Put(k, kvs(2, "y"), mapred.TaskStats{})
	}
	c.Put(key(6, 1), kvs(2, "other-block"), mapred.TaskStats{})
	c.InvalidateBlock(5)
	st := c.Stats()
	if st.Invalidations != 6 {
		t.Errorf("invalidations = %d, want 6", st.Invalidations)
	}
	if _, _, ok := c.Get(key(6, 1)); !ok {
		t.Error("unrelated block purged")
	}
}

func TestBudgetEviction2Q(t *testing.T) {
	// Room for ~3 entries (payloads sized so 3 × entry ≥ the budget
	// floor). All keys land in one shard (block IDs ≡ 0 mod numShards).
	payload := kvs(300, "p")
	one := entryBytes(key(0, 1), payload)
	c := New(3 * one)

	put := func(b int) { c.Put(key(b*numShards, 1), payload, mapred.TaskStats{}) }
	get := func(b int) bool { _, _, ok := c.Get(key(b*numShards, 1)); return ok }

	put(1)
	put(2)
	if !get(1) { // promote 1 to protected
		t.Fatal("warm entry missing")
	}
	put(3)
	put(4) // over budget: evicts from probation (oldest first), never protected 1
	if !get(1) {
		t.Error("protected entry evicted while probation entries remained")
	}
	if get(2) {
		t.Error("probationary FIFO tail survived eviction")
	}
	if !get(4) {
		t.Error("just-admitted entry was chosen as its own eviction victim")
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("no evictions recorded")
	}
	if st.Bytes > c.budget {
		t.Errorf("cache over budget: %d > %d", st.Bytes, c.budget)
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	c := New(1) // floored to minBudget
	huge := kvs(2000, "hugepayload")
	if entryBytes(key(0, 1), huge) <= c.budget {
		t.Fatal("test payload no longer exceeds the floored budget")
	}
	if c.Put(key(0, 1), huge, mapred.TaskStats{}) {
		t.Error("Put reports the oversized entry admitted")
	}
	if st := c.Stats(); st.Rejected != 1 || st.Entries != 0 {
		t.Errorf("oversized entry not rejected: %+v", st)
	}
}

// TestLargeEntryFitsGlobalBudget: an entry bigger than budget/numShards
// must still be admissible — the budget is global, not per shard.
func TestLargeEntryFitsGlobalBudget(t *testing.T) {
	c := New(minBudget)
	big := kvs(500, "big") // ≈ 19 KB: over minBudget/16, under minBudget
	cost := entryBytes(key(3, 1), big)
	if cost >= c.budget || cost <= c.budget/numShards {
		t.Fatalf("test payload %d outside (budget/shards, budget) = (%d, %d)", cost, c.budget/numShards, c.budget)
	}
	if !c.Put(key(3, 1), big, mapred.TaskStats{}) {
		t.Fatal("Put reports the entry refused")
	}
	if _, _, ok := c.Get(key(3, 1)); !ok {
		t.Fatal("entry within the total budget rejected")
	}
	if st := c.Stats(); st.Rejected != 0 {
		t.Errorf("rejected: %+v", st)
	}
}

func TestRePutReplaces(t *testing.T) {
	c := New(1 << 20)
	c.Put(key(1, 1), kvs(5, "old"), mapred.TaskStats{})
	c.Put(key(1, 1), kvs(5, "new"), mapred.TaskStats{})
	got, _, ok := c.Get(key(1, 1))
	if !ok || got[0].Key != "new-0" {
		t.Fatalf("re-put did not replace: %v", got)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("duplicate entries after re-put: %+v", st)
	}
}

func TestPutCopiesInput(t *testing.T) {
	c := New(1 << 20)
	in := kvs(3, "a")
	c.Put(key(1, 1), in, mapred.TaskStats{})
	in[0] = mapred.KV{Key: "mutated", Value: "!"}
	got, _, _ := c.Get(key(1, 1))
	if got[0].Key != "a-0" {
		t.Error("cache shares the caller's backing array")
	}
}

// TestConcurrentGetPutInvalidate is the -race stress test the issue asks
// for: many goroutines hammer overlapping blocks with Get, Put,
// InvalidateBlock and Stats. Correctness here is "no race, no panic, and
// every hit returns an intact entry".
func TestConcurrentGetPutInvalidate(t *testing.T) {
	c := New(256 << 10)
	const (
		workers = 8
		blocks  = 40
		ops     = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < ops; i++ {
				b := rng.Intn(blocks)
				gen := uint64(rng.Intn(3))
				switch rng.Intn(10) {
				case 0:
					c.InvalidateBlock(hdfs.BlockID(b))
				case 1:
					_ = c.Stats()
				case 2, 3, 4:
					c.Put(key(b, gen), kvs(1+rng.Intn(20), "w"), mapred.TaskStats{BytesRead: int64(b)})
				default:
					if got, _, ok := c.Get(key(b, gen)); ok {
						if len(got) == 0 || got[0].Value != "v" {
							t.Errorf("hit returned corrupt entry: %v", got)
							return
						}
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes < 0 || st.Entries < 0 {
		t.Errorf("negative occupancy after stress: %+v", st)
	}
	if st.Bytes > c.budget {
		t.Errorf("cache over budget after stress: %d > %d", st.Bytes, c.budget)
	}
}

// TestTinyBudgetFloor: an explicit budget below the per-shard floor is
// raised so small entries are still cacheable (heavy eviction, not a
// silent no-op cache).
func TestTinyBudgetFloor(t *testing.T) {
	c := New(1024)
	if c.Stats().Budget < minBudget {
		t.Fatalf("budget %d below floor", c.Stats().Budget)
	}
	c.Put(key(1, 1), kvs(3, "small"), mapred.TaskStats{})
	if _, _, ok := c.Get(key(1, 1)); !ok {
		t.Error("small entry rejected under the floored budget")
	}
	if st := c.Stats(); st.Rejected != 0 {
		t.Errorf("rejected %d small entries: %+v", st.Rejected, st)
	}
}

// TestBlockEntriesAndInvalidation: BlockEntries must see every generation
// of a block's entries, and InvalidateBlock — the replica-drop purge path —
// must clear them and nothing else.
func TestBlockEntriesAndInvalidation(t *testing.T) {
	c := New(1 << 20)
	c.Put(key(1, 1), kvs(3, "a"), mapred.TaskStats{})
	c.Put(key(1, 2), kvs(3, "b"), mapred.TaskStats{}) // second generation, same block
	c.Put(key(2, 1), kvs(4, "c"), mapred.TaskStats{})

	if n := c.BlockEntries(1); n != 2 {
		t.Fatalf("BlockEntries(1) = %d, want 2", n)
	}
	c.InvalidateBlock(1)
	if n := c.BlockEntries(1); n != 0 {
		t.Errorf("BlockEntries(1) = %d after invalidation, want 0", n)
	}
	if n := c.BlockEntries(2); n != 1 {
		t.Errorf("BlockEntries(2) = %d after invalidating block 1, want 1", n)
	}
	if st := c.Stats(); st.Invalidations != 2 || st.Bytes != EntryCost(key(2, 1), kvs(4, "c")) {
		t.Errorf("after invalidation: %+v, want 2 invalidations and block 2's bytes", st)
	}
}

// TestCachedReplicaProbe: the split phase's packing probe finds resident
// per-block entries by (file, block, generation, query, map identity) and
// reports the replica deterministically (lowest node ID).
func TestCachedReplicaProbe(t *testing.T) {
	c := New(1 << 20)
	put := func(b hdfs.BlockID, gen uint64, rep hdfs.NodeID) {
		c.Put(mapred.CacheKey{File: "/f", Block: b, Gen: gen, Query: "q", MapSig: "m", Replica: rep},
			kvs(1, "v"), mapred.TaskStats{})
	}
	put(5, 3, 2)
	put(5, 3, 1)
	put(5, 2, 0) // stale generation
	if n, ok := c.CachedReplica("/f", 5, 3, "q", "m"); !ok || n != 1 {
		t.Errorf("CachedReplica = %d, %v; want 1, true", n, ok)
	}
	if _, ok := c.CachedReplica("/f", 5, 4, "q", "m"); ok {
		t.Error("probe hit at a generation never admitted")
	}
	if _, ok := c.CachedReplica("/f", 6, 3, "q", "m"); ok {
		t.Error("probe hit for a block never admitted")
	}
	if _, ok := c.CachedReplica("/f", 5, 3, "other", "m"); ok {
		t.Error("probe ignored the query signature")
	}
}
