package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/mapred"
	"repro/internal/qcache"
	"repro/internal/workload"
)

// ledgerCache is a qcache that sums what it admitted, entry by entry, in
// the cache's own currency. Embedding exposes every admission path the
// cache has to the engine, so the sum misses anything not admitted by Put.
type ledgerCache struct {
	*qcache.Cache
	admitted map[mapred.CacheKey]int64
}

func (c *ledgerCache) Put(k mapred.CacheKey, kvs []mapred.KV, stats mapred.TaskStats) bool {
	ok := c.Cache.Put(k, kvs, stats)
	if ok {
		c.admitted[k] = qcache.EntryCost(k, kvs)
	}
	return ok
}

// TestPackedJobResidentOnce: a packed job's output is resident once, as its
// blocks' entries — after a cold and a hot packed run the cache holds one
// entry per block and exactly the bytes those entries cost.
func TestPackedJobResidentOnce(t *testing.T) {
	cluster, _, sum, _ := uvFixture(t, 6000, workload.UserVisitsOptions{})
	cache := &ledgerCache{Cache: qcache.New(0), admitted: map[mapred.CacheKey]int64{}}
	run := cachedJob(t, cluster, cache, wideQ, true)
	run()
	hot := run()
	if len(hot.Tasks) >= len(sum.BlockIDs) {
		t.Fatalf("hot job ran %d tasks over %d blocks: not packed", len(hot.Tasks), len(sum.BlockIDs))
	}
	if st := hot.TotalStats(); st.BlocksFromCache != len(sum.BlockIDs) || st.BytesRead != 0 {
		t.Fatalf("hot job: %+v, want every block from the cache and nothing read", st)
	}
	var want int64
	for _, cost := range cache.admitted {
		want += cost
	}
	if st := cache.Stats(); st.Entries != len(sum.BlockIDs) || st.Bytes != want {
		t.Errorf("cache holds %d entries / %d bytes, want %d entries / %d bytes (Σ EntryCost of the block entries)",
			st.Entries, st.Bytes, len(sum.BlockIDs), want)
	}
}

// TestHotJobCopiesOutputOnce: a fully cached job allocates its output — one
// presized assemble copy of the KV headers — and little else: no per-hit
// copy into a task slice, packed or not.
func TestHotJobCopiesOutputOnce(t *testing.T) {
	cluster, _, _, _ := uvFixture(t, 6000, workload.UserVisitsOptions{})
	for _, pack := range []bool{true, false} {
		run := cachedJob(t, cluster, qcache.New(0), wideQ, pack)
		run()
		rows := len(run().Output)
		const runs = 5
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
		output := float64(rows) * float64(unsafe.Sizeof(mapred.KV{}))
		t.Logf("pack=%v: %.0f B/run for %d rows (%.0f B of KV headers)", pack, perRun, rows, output)
		if perRun > 1.15*output {
			t.Errorf("pack=%v: hot job allocates %.0f B/run, more than 1.15 × its %0.f B output", pack, perRun, output)
		}
	}
}

// TestHotJobOutputDoesNotAliasCache: JobResult.Output is the caller's. The
// engine's chunks are the cache's own slices, so Run must copy them — even
// when the whole output is one chunk: scribbling over every key and value
// of a hot job's output must leave the next hot job byte-identical to the
// cold one.
func TestHotJobOutputDoesNotAliasCache(t *testing.T) {
	for _, rows := range []int{3000, 300} { // several blocks; one block
		cluster, _, _, _ := uvFixture(t, rows, workload.UserVisitsOptions{})
		for _, pack := range []bool{true, false} {
			run := cachedJob(t, cluster, qcache.New(0), wideQ, pack)
			cold := append([]mapred.KV(nil), run().Output...)
			hot := run().Output
			for i := range hot {
				hot[i] = mapred.KV{Key: "scribbled", Value: "over"}
			}
			again := run()
			if st := again.TotalStats(); st.BlocksFromCache != st.Blocks {
				t.Fatalf("%d rows, pack=%v: second hot job read %d of %d blocks", rows, pack, st.Blocks-st.BlocksFromCache, st.Blocks)
			}
			if len(again.Output) != len(cold) {
				t.Fatalf("%d rows, pack=%v: %d rows after the overwrite, cold run had %d", rows, pack, len(again.Output), len(cold))
			}
			for i, kv := range again.Output {
				if kv != cold[i] {
					t.Fatalf("%d rows, pack=%v: row %d = %q after the overwrite, cold run had %q", rows, pack, i, kv, cold[i])
				}
			}
		}
	}
}
