// Package qcache is a block-level query result cache: it remembers, per
// (file, block, replica generation, normalized query, map identity,
// replica), the KV output a map task produced over that block, so a
// repeated job replays the output instead of re-reading the block and
// re-running the record reader and map function over it. HAIL's workloads
// are exactly the shape this pays off for — the adaptive experiment's job
// sequence repeats one selection until the file converges — and the
// data-skipping literature (PAPERS.md, "Provenance-based Data Skipping")
// frames the same idea as not re-touching data a prior query already
// answered over.
//
// Correctness rests on the replica generation baked into every key
// (hdfs.NameNode.Generation): adaptive re-indexing, node-loss healing and
// node revival all bump it, making stale entries unreachable. Nothing in
// a key records which map form computed the output: Job.Map and
// Job.MapBatch emit byte-identical KV streams for the same (query, map
// identity), so entries produced by one replay correctly into jobs
// running the other. On top of that, the cache's InvalidateBlock can be
// registered as the namenode's replica-change hook to actively purge the
// block's entries, so the budget is not squatted by garbage.
//
// The cache is sharded by block ID — Get/Put/Invalidate for one block
// touch exactly one shard's mutex — with one byte budget enforced across
// all shards (an entry may be as large as the whole budget) and 2Q-style
// eviction: new entries enter a per-shard probationary FIFO and are
// promoted to a protected LRU on their first hit; eviction drains
// probationary entries everywhere before touching any protected one, so
// a one-off scan of a huge file cannot flush the entries a repeating
// workload actually re-uses.
package qcache

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/hdfs"
	"repro/internal/mapred"
)

// DefaultBudget is the byte budget used when New is given a non-positive
// one: 64 MiB, a few blocks' worth of selective query output.
const DefaultBudget = 64 << 20

// numShards is the shard count. Block IDs are assigned sequentially, so
// modulo sharding spreads a file's blocks evenly.
const numShards = 16

// entryOverhead approximates the per-entry bookkeeping bytes (key
// strings are accounted separately) charged against the budget.
const entryOverhead = 96

// minBudget is the floor the total budget is clamped to: below it even a
// handful of single-row entries would thrash and a tiny explicit budget
// would silently cache almost nothing.
const minBudget = numShards * 2048

// kvOverhead approximates the per-KV slice/header bytes beyond the string
// payloads.
const kvOverhead = 32

// Stats is a point-in-time snapshot of the cache's counters. Counters are
// cumulative; Bytes and Entries are current occupancy. Sub yields per-job
// deltas.
type Stats struct {
	Hits          int64
	Misses        int64
	Puts          int64
	Evictions     int64
	Invalidations int64 // entries purged by InvalidateBlock
	Rejected      int64 // entries larger than the whole budget
	// Split-level counters: packed-split entries admitted and served
	// (GetSplit/PutSplit), counted separately from the per-block numbers.
	SplitHits   int64
	SplitMisses int64
	SplitPuts   int64
	// BytesSaved accumulates the data + index bytes hits avoided
	// re-reading (from the stats recorded at admission).
	BytesSaved int64
	Bytes      int64 // resident entry bytes
	Entries    int
	// SplitEntries is the resident packed-split entry count (their bytes
	// are included in Bytes).
	SplitEntries int
	Budget       int64 // configured byte budget
}

// Sub returns the counter deltas s − prev; occupancy fields (Bytes,
// Entries, Budget) keep s's current values.
func (s Stats) Sub(prev Stats) Stats {
	s.Hits -= prev.Hits
	s.Misses -= prev.Misses
	s.Puts -= prev.Puts
	s.Evictions -= prev.Evictions
	s.Invalidations -= prev.Invalidations
	s.Rejected -= prev.Rejected
	s.SplitHits -= prev.SplitHits
	s.SplitMisses -= prev.SplitMisses
	s.SplitPuts -= prev.SplitPuts
	s.BytesSaved -= prev.BytesSaved
	return s
}

type entry struct {
	key       mapred.CacheKey
	kvs       []mapred.KV
	stats     mapred.TaskStats
	bytes     int64
	elem      *list.Element
	protected bool
}

type shard struct {
	mu      sync.Mutex
	bytes   int64
	entries map[mapred.CacheKey]*entry
	byBlock map[hdfs.BlockID]map[*entry]struct{}
	// 2Q queues: probation is a FIFO of once-seen entries, protected an
	// LRU of entries that have hit at least once. Eviction drains
	// probation first.
	probation *list.List
	protected *list.List
}

// splitEntry is one packed split's cached output (mapred.SplitCache).
// Split entries live in a single store beside the per-block shards: packed
// splits are few (SplitsPerNode × nodes per job), so one mutex suffices,
// and the store needs a cross-block view anyway — InvalidateBlock must
// find every split entry a block participates in, whatever shard the
// block itself hashes to.
type splitEntry struct {
	key    mapred.SplitCacheKey
	blocks []hdfs.BlockID
	kvs    []mapred.KV
	stats  mapred.TaskStats
	bytes  int64
	elem   *list.Element
}

// Cache is a sharded, concurrency-safe block-level result cache
// implementing mapred.ResultCache, with split-level admission for packed
// splits (mapred.SplitCache) on top.
type Cache struct {
	budget int64
	shards [numShards]shard
	// bytes is the resident total across shards and the split store; Put
	// enforces the budget against it, evicting round-robin across shards
	// (probation first).
	bytes       atomic.Int64
	evictCursor atomic.Uint32

	// Split-level store: entries keyed by the packed split's sorted
	// (block, generation) signature, in an LRU list for eviction, with a
	// per-block reverse index for invalidation.
	splitMu      sync.Mutex
	splits       map[mapred.SplitCacheKey]*splitEntry
	splitByBlock map[hdfs.BlockID]map[*splitEntry]struct{}
	splitLRU     *list.List

	hits          atomic.Int64
	misses        atomic.Int64
	puts          atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	rejected      atomic.Int64
	splitHits     atomic.Int64
	splitMisses   atomic.Int64
	splitPuts     atomic.Int64
	bytesSaved    atomic.Int64
}

// New returns a cache with the given total byte budget. A non-positive
// budget selects DefaultBudget; budgets below 32 KiB are raised to that
// floor so a small budget degrades to heavy eviction rather than
// silently caching nothing.
func New(budget int64) *Cache {
	if budget <= 0 {
		budget = DefaultBudget
	}
	if budget < minBudget {
		budget = minBudget
	}
	c := &Cache{
		budget:       budget,
		splits:       make(map[mapred.SplitCacheKey]*splitEntry),
		splitByBlock: make(map[hdfs.BlockID]map[*splitEntry]struct{}),
		splitLRU:     list.New(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.entries = make(map[mapred.CacheKey]*entry)
		s.byBlock = make(map[hdfs.BlockID]map[*entry]struct{})
		s.probation = list.New()
		s.protected = list.New()
	}
	return c
}

func (c *Cache) shard(b hdfs.BlockID) *shard {
	i := int64(b) % numShards
	if i < 0 {
		i += numShards
	}
	return &c.shards[i]
}

// entryBytes is the budget charge for one entry.
func entryBytes(k mapred.CacheKey, kvs []mapred.KV) int64 {
	n := int64(entryOverhead + len(k.File) + len(k.Query) + len(k.MapSig))
	for _, kv := range kvs {
		n += int64(len(kv.Key) + len(kv.Value) + kvOverhead)
	}
	return n
}

// EntryCost is the budget charge Put would levy for this entry — exported
// so admission layers above the cache (per-tenant budget ledgers) account
// in exactly the cache's own currency.
func EntryCost(k mapred.CacheKey, kvs []mapred.KV) int64 { return entryBytes(k, kvs) }

// SplitEntryCost is EntryCost for a packed-split entry (PutSplit).
func SplitEntryCost(k mapred.SplitCacheKey, blocks int, kvs []mapred.KV) int64 {
	return splitEntryBytes(k, blocks, kvs)
}

// Get returns the cached map output for the key. On a hit the entry is
// promoted (probation → protected, or refreshed within protected). The
// returned slice is shared and must be treated as read-only.
func (c *Cache) Get(k mapred.CacheKey) ([]mapred.KV, mapred.TaskStats, bool) {
	s := c.shard(k.Block)
	s.mu.Lock()
	e, ok := s.entries[k]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, mapred.TaskStats{}, false
	}
	if e.protected {
		s.protected.MoveToFront(e.elem)
	} else {
		// First re-use: promote out of probation.
		s.probation.Remove(e.elem)
		e.elem = s.protected.PushFront(e)
		e.protected = true
	}
	kvs, stats := e.kvs, e.stats
	s.mu.Unlock()
	c.hits.Add(1)
	c.bytesSaved.Add(stats.BytesRead + stats.IndexBytesRead)
	return kvs, stats, true
}

// Put admits one block's map output. Entries larger than the whole
// budget are rejected outright; otherwise colder entries are evicted —
// probationary entries across all shards before any protected one —
// until the total fits. Re-putting an existing key replaces its value in
// place.
func (c *Cache) Put(k mapred.CacheKey, kvs []mapred.KV, stats mapred.TaskStats) {
	cost := entryBytes(k, kvs)
	if cost > c.budget {
		c.rejected.Add(1)
		return
	}
	s := c.shard(k.Block)
	s.mu.Lock()
	if old, ok := s.entries[k]; ok {
		s.removeLocked(old)
		c.bytes.Add(-old.bytes)
	}
	e := &entry{
		key:   k,
		kvs:   append([]mapred.KV(nil), kvs...),
		stats: stats,
		bytes: cost,
	}
	e.elem = s.probation.PushFront(e)
	s.entries[k] = e
	bb := s.byBlock[k.Block]
	if bb == nil {
		bb = make(map[*entry]struct{})
		s.byBlock[k.Block] = bb
	}
	bb[e] = struct{}{}
	s.bytes += cost
	s.mu.Unlock()
	c.bytes.Add(cost)
	c.puts.Add(1)
	c.enforceBudget(e, nil)
}

// enforceBudget evicts until the resident total fits the budget: one
// round-robin sweep pops probationary tails across shards, then the
// split-level LRU is drained, and a final sweep reaches into protected
// LRUs. The just-admitted entry (block- or split-level) is never the
// victim — evicting everything else always suffices, since its cost is at
// most the budget.
func (c *Cache) enforceBudget(keep *entry, keepSplit *splitEntry) {
	c.evictShards(keep, true)
	c.evictSplits(keepSplit)
	c.evictShards(keep, false)
}

// evictShards is one round-robin sweep over the per-block shards.
func (c *Cache) evictShards(keep *entry, probationOnly bool) {
	start := int(c.evictCursor.Add(1) % numShards) // mod before int: never negative on 32-bit
	for i := 0; i < numShards; i++ {
		if c.bytes.Load() <= c.budget {
			return
		}
		s := &c.shards[(start+i)%numShards]
		s.mu.Lock()
		for c.bytes.Load() > c.budget {
			v := s.victimLocked(keep, probationOnly)
			if v == nil {
				break
			}
			s.removeLocked(v)
			c.bytes.Add(-v.bytes)
			c.evictions.Add(1)
		}
		s.mu.Unlock()
	}
}

// evictSplits drains split-level entries coldest-first until the budget
// fits (or only keepSplit remains).
func (c *Cache) evictSplits(keepSplit *splitEntry) {
	c.splitMu.Lock()
	defer c.splitMu.Unlock()
	for c.bytes.Load() > c.budget {
		var victim *splitEntry
		for el := c.splitLRU.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*splitEntry); e != keepSplit {
				victim = e
				break
			}
		}
		if victim == nil {
			return
		}
		c.removeSplitLocked(victim)
		c.evictions.Add(1)
	}
}

// victimLocked picks the coldest evictable entry of the shard: the
// probationary FIFO tail, then (unless probationOnly) the protected LRU
// tail; keep is exempt. Caller holds the shard lock.
func (s *shard) victimLocked(keep *entry, probationOnly bool) *entry {
	lists := []*list.List{s.probation}
	if !probationOnly {
		lists = append(lists, s.protected)
	}
	for _, l := range lists {
		for el := l.Back(); el != nil; el = el.Prev() {
			if e := el.Value.(*entry); e != keep {
				return e
			}
		}
	}
	return nil
}

// removeLocked unlinks an entry from all shard structures. Caller holds
// the shard lock.
func (s *shard) removeLocked(e *entry) {
	if e.protected {
		s.protected.Remove(e.elem)
	} else {
		s.probation.Remove(e.elem)
	}
	delete(s.entries, e.key)
	if bb := s.byBlock[e.key.Block]; bb != nil {
		delete(bb, e)
		if len(bb) == 0 {
			delete(s.byBlock, e.key.Block)
		}
	}
	s.bytes -= e.bytes
}

// InvalidateBlock purges every entry for the block — per-block and
// packed-split entries alike — whatever its generation. Registered as the
// namenode's replica-change hook it turns generation bumps into active
// space reclamation; generation keying alone already guarantees the
// purged entries could never have been served again.
func (c *Cache) InvalidateBlock(b hdfs.BlockID) {
	s := c.shard(b)
	s.mu.Lock()
	for e := range s.byBlock[b] {
		s.removeLocked(e)
		c.bytes.Add(-e.bytes)
		c.invalidations.Add(1)
	}
	s.mu.Unlock()

	c.splitMu.Lock()
	for e := range c.splitByBlock[b] {
		c.removeSplitLocked(e)
		c.invalidations.Add(1)
	}
	c.splitMu.Unlock()
}

// splitEntryBytes is the budget charge for one packed-split entry.
func splitEntryBytes(k mapred.SplitCacheKey, blocks int, kvs []mapred.KV) int64 {
	n := int64(entryOverhead + len(k.File) + len(k.BlockSig) + len(k.Query) + len(k.MapSig))
	n += int64(blocks) * 16 // member-block reverse-index bookkeeping
	for _, kv := range kvs {
		n += int64(len(kv.Key) + len(kv.Value) + kvOverhead)
	}
	return n
}

// GetSplit returns the cached output of a whole packed split. On a hit
// the entry is refreshed to the LRU front. The returned slice is shared
// and must be treated as read-only.
func (c *Cache) GetSplit(k mapred.SplitCacheKey) ([]mapred.KV, mapred.TaskStats, bool) {
	c.splitMu.Lock()
	e, ok := c.splits[k]
	if !ok {
		c.splitMu.Unlock()
		c.splitMisses.Add(1)
		return nil, mapred.TaskStats{}, false
	}
	c.splitLRU.MoveToFront(e.elem)
	kvs, stats := e.kvs, e.stats
	c.splitMu.Unlock()
	c.splitHits.Add(1)
	c.bytesSaved.Add(stats.BytesRead + stats.IndexBytesRead)
	return kvs, stats, true
}

// PutSplit admits one packed split's assembled map output, indexed under
// every member block so invalidating any of them purges the whole entry.
// Entries larger than the budget are rejected; re-putting an existing key
// replaces it in place.
func (c *Cache) PutSplit(k mapred.SplitCacheKey, blocks []hdfs.BlockID, kvs []mapred.KV, stats mapred.TaskStats) {
	cost := splitEntryBytes(k, len(blocks), kvs)
	if cost > c.budget {
		c.rejected.Add(1)
		return
	}
	e := &splitEntry{
		key:    k,
		blocks: append([]hdfs.BlockID(nil), blocks...),
		kvs:    append([]mapred.KV(nil), kvs...),
		stats:  stats,
		bytes:  cost,
	}
	c.splitMu.Lock()
	if old, ok := c.splits[k]; ok {
		c.removeSplitLocked(old)
	}
	e.elem = c.splitLRU.PushFront(e)
	c.splits[k] = e
	for _, b := range blocks {
		bb := c.splitByBlock[b]
		if bb == nil {
			bb = make(map[*splitEntry]struct{})
			c.splitByBlock[b] = bb
		}
		bb[e] = struct{}{}
	}
	c.splitMu.Unlock()
	c.bytes.Add(cost)
	c.splitPuts.Add(1)
	c.enforceBudget(nil, e)
}

// removeSplitLocked unlinks a split entry from the store. Caller holds
// splitMu.
func (c *Cache) removeSplitLocked(e *splitEntry) {
	c.splitLRU.Remove(e.elem)
	delete(c.splits, e.key)
	for _, b := range e.blocks {
		if bb := c.splitByBlock[b]; bb != nil {
			delete(bb, e)
			if len(bb) == 0 {
				delete(c.splitByBlock, b)
			}
		}
	}
	c.bytes.Add(-e.bytes)
}

// CachedReplica reports whether the cache holds the block's map output
// for the given (generation, query signature, map identity), and at which
// replica node — the split phase's packing probe: a fully-cached block
// can be packed pinned at its cached replica even when no index matches
// the query (core.InputFormat.CachedReplica). When several replicas'
// results are resident the lowest node ID wins, keeping the packing
// decision deterministic.
func (c *Cache) CachedReplica(file string, b hdfs.BlockID, gen uint64, query, mapSig string) (hdfs.NodeID, bool) {
	s := c.shard(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	var best hdfs.NodeID
	found := false
	for e := range s.byBlock[b] {
		k := e.key
		if k.File != file || k.Gen != gen || k.Query != query || k.MapSig != mapSig {
			continue
		}
		if !found || k.Replica < best {
			best, found = k.Replica, true
		}
	}
	return best, found
}

// BlockEntries reports the resident entries touching block b: block-level
// entries in b's shard and packed-split entries any of whose member
// blocks is b. The eviction and replica-drop property tests use it to
// assert that no entry — at either granularity — survives for a block
// whose replica topology changed.
func (c *Cache) BlockEntries(b hdfs.BlockID) (blockEntries, splitEntries int) {
	s := c.shard(b)
	s.mu.Lock()
	blockEntries = len(s.byBlock[b])
	s.mu.Unlock()
	c.splitMu.Lock()
	splitEntries = len(c.splitByBlock[b])
	c.splitMu.Unlock()
	return blockEntries, splitEntries
}

// Stats returns a snapshot of the cache counters and occupancy.
func (c *Cache) Stats() Stats {
	st := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Puts:          c.puts.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		Rejected:      c.rejected.Load(),
		SplitHits:     c.splitHits.Load(),
		SplitMisses:   c.splitMisses.Load(),
		SplitPuts:     c.splitPuts.Load(),
		BytesSaved:    c.bytesSaved.Load(),
		Budget:        c.budget,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Bytes += s.bytes
		st.Entries += len(s.entries)
		s.mu.Unlock()
	}
	c.splitMu.Lock()
	for el := c.splitLRU.Front(); el != nil; el = el.Next() {
		st.Bytes += el.Value.(*splitEntry).bytes
	}
	st.SplitEntries = len(c.splits)
	c.splitMu.Unlock()
	return st
}

// Interface conformance: the engine consumes the cache through
// mapred.ResultCache and, for packed splits, mapred.SplitCache.
var (
	_ mapred.ResultCache = (*Cache)(nil)
	_ mapred.SplitCache  = (*Cache)(nil)
)
