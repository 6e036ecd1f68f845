package hdfs

import "repro/internal/obs"

// BindObs puts the namenode's directory-operation count and its number of
// quarantined replicas into the registry as lazily evaluated gauges: the
// directory keeps its plain atomic increment, and the registry reads it
// only at snapshot time. Safe to call once per registry, before or while
// traffic flows.
func (nn *NameNode) BindObs(reg *obs.Registry) {
	if nn == nil || reg == nil {
		return
	}
	reg.SetGaugeFunc("hdfs.namenode.dir_ops", func() int64 { return int64(nn.ops.Load()) })
	reg.SetGaugeFunc("hdfs.namenode.quarantined", func() int64 { return int64(len(nn.Quarantined())) })
}
