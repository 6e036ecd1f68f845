package qcache

import "repro/internal/obs"

// BindObs folds the cache's counters into the registry as lazily
// evaluated gauges over Stats(): the sharded hot path keeps its existing
// atomics and pays nothing; each gauge read takes one stats snapshot at
// registry-snapshot time.
func (c *Cache) BindObs(reg *obs.Registry) {
	if c == nil || reg == nil {
		return
	}
	bind := func(name string, f func(Stats) int64) {
		reg.SetGaugeFunc(name, func() int64 { return f(c.Stats()) })
	}
	bind("qcache.hits", func(s Stats) int64 { return s.Hits })
	bind("qcache.misses", func(s Stats) int64 { return s.Misses })
	bind("qcache.puts", func(s Stats) int64 { return s.Puts })
	bind("qcache.evictions", func(s Stats) int64 { return s.Evictions })
	bind("qcache.invalidations", func(s Stats) int64 { return s.Invalidations })
	bind("qcache.rejected", func(s Stats) int64 { return s.Rejected })
	bind("qcache.bytes_saved", func(s Stats) int64 { return s.BytesSaved })
	bind("qcache.bytes", func(s Stats) int64 { return s.Bytes })
	bind("qcache.entries", func(s Stats) int64 { return int64(s.Entries) })
}
