package hdfs

import (
	"fmt"

	"repro/internal/obs"
)

// BindObs folds the namenode's per-shard directory-op counters into the
// registry as lazily evaluated gauges: the shard hot path keeps its plain
// atomic increments, and the registry reads them only at snapshot time.
// Safe to call once per registry, before or while traffic flows.
func (nn *NameNode) BindObs(reg *obs.Registry) {
	if nn == nil || reg == nil {
		return
	}
	for i, s := range nn.shards {
		s := s
		reg.SetGaugeFunc(fmt.Sprintf("hdfs.namenode.shard_ops.%03d", i),
			func() int64 { return int64(s.ops.Load()) })
	}
	reg.SetGaugeFunc("hdfs.namenode.dir_ops", func() int64 {
		var total uint64
		for _, s := range nn.shards {
			total += s.ops.Load()
		}
		return int64(total)
	})
}
