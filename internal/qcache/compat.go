package qcache

import "repro/internal/mapred"

// This file is the compatibility surface the benchmark module (bench/)
// compiles against. The engine admits chunks (PutChunk); nothing outside
// bench/ and this package's own tests uses what is here.

// Put admits kvs as one block's map output, the chunk mapred.ChunkOf
// builds of them, as PutChunk does.
func (c *Cache) Put(k mapred.CacheKey, kvs []mapred.KV, stats mapred.TaskStats) bool {
	return c.PutChunk(k, mapred.ChunkOf(kvs), stats)
}
