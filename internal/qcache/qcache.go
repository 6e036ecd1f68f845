// Package qcache is a block-level query result cache: it remembers, per
// (file, block, replica generation, normalized query, map identity,
// replica), the KV output a map task produced over that block, so a
// repeated job replays the output instead of re-reading the block and
// re-running the record reader and map function over it. It is the only
// tier: a task's output is the list of its blocks' outputs, so a hit hands
// the engine the entry's own slice and a packed split of cached blocks
// costs one lookup per block and no copy. HAIL's workloads are exactly the
// shape this pays off for — the adaptive experiment's job sequence repeats
// one selection until the file converges — and the data-skipping
// literature (PAPERS.md, "Provenance-based Data Skipping") frames the same
// idea as not re-touching data a prior query already answered over.
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
	// BytesSaved accumulates the data + index bytes hits avoided
	// re-reading (from the stats recorded at admission).
	BytesSaved int64
	Bytes      int64 // resident entry bytes
	Entries    int
	Budget     int64 // configured byte budget
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

// Cache is a sharded, concurrency-safe block-level result cache
// implementing mapred.ResultCache.
type Cache struct {
	budget int64
	shards [numShards]shard
	// bytes is the resident total across shards; Put enforces the budget
	// against it, evicting round-robin across shards (probation first).
	bytes       atomic.Int64
	evictCursor atomic.Uint32

	hits          atomic.Int64
	misses        atomic.Int64
	puts          atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
	rejected      atomic.Int64
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
	c := &Cache{budget: budget}
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

// Get returns the cached map output for the key. On a hit the entry is
// promoted (probation → protected, or refreshed within protected). The
// returned slice is the entry's own, shared with every other hit: the
// engine puts it into the task's output as is, so it is read-only.
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
// place. The result reports whether the entry was admitted, so a ledger
// above the cache charges only for what is resident.
func (c *Cache) Put(k mapred.CacheKey, kvs []mapred.KV, stats mapred.TaskStats) bool {
	cost := entryBytes(k, kvs)
	if cost > c.budget {
		c.rejected.Add(1)
		return false
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
	c.enforceBudget(e)
	return true
}

// enforceBudget evicts until the resident total fits the budget: one
// round-robin sweep pops probationary tails across shards, a second
// reaches into protected LRUs. The just-admitted entry is never the victim
// — evicting everything else always suffices, since its cost is at most
// the budget.
func (c *Cache) enforceBudget(keep *entry) {
	c.evictShards(keep, true)
	c.evictShards(keep, false)
}

// evictShards is one round-robin sweep over the shards.
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

// InvalidateBlock purges every entry for the block, whatever its
// generation. Registered as the namenode's replica-change hook it turns
// generation bumps into active space reclamation; generation keying alone
// already guarantees the purged entries could never have been served again.
func (c *Cache) InvalidateBlock(b hdfs.BlockID) {
	s := c.shard(b)
	s.mu.Lock()
	for e := range s.byBlock[b] {
		s.removeLocked(e)
		c.bytes.Add(-e.bytes)
		c.invalidations.Add(1)
	}
	s.mu.Unlock()
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

// BlockEntries reports the resident entries for block b. The eviction and
// replica-drop property tests use it to assert that no entry survives for
// a block whose replica topology changed.
func (c *Cache) BlockEntries(b hdfs.BlockID) int {
	s := c.shard(b)
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.byBlock[b])
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
	return st
}

// Interface conformance: the engine consumes the cache through
// mapred.ResultCache.
var _ mapred.ResultCache = (*Cache)(nil)
