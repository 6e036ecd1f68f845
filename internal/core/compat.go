package core

import (
	"repro/internal/hdfs"
	"repro/internal/mapred"
)

// This file is the compatibility surface the benchmark module (bench/)
// compiles against; nothing else outside this package's tests uses it.

// SplitsWithStats is Splits for an uncached job, with every pinned split's
// Replica filled from its Pins: one map the pinned splits share.
//
// Deprecated: bench/ only.
func (f *InputFormat) SplitsWithStats(file string) ([]mapred.Split, mapred.TaskStats, error) {
	splits, st, err := f.Splits(file, nil)
	var pins map[hdfs.BlockID]hdfs.NodeID
	for i, s := range splits {
		if s.Pins == nil {
			continue
		}
		if pins == nil {
			pins = make(map[hdfs.BlockID]hdfs.NodeID, len(splits))
		}
		for j, n := range s.Pins {
			if n != hdfs.NoReplica {
				pins[s.Blocks[j]] = n
			}
		}
		//lint:ignore SA1019 the compatibility form bench/ reads
		splits[i].Replica = pins
	}
	return splits, st, err
}
