package experiments

import "repro/internal/sim"

// Scale converts real laptop-scale measurements to paper scale. All
// representations (text, PAX, row-binary) shrink proportionally to rows,
// so a single row-count ratio scales every byte and record figure; seek
// counts per block are scale-invariant (same number of column ranges).
type Scale struct {
	// RowScale = paper rows per block / real rows per block.
	RowScale float64
	// PaperBlocks is the block count of the paper-scale dataset on the
	// simulated cluster (e.g. 3,200 for 200 GB UserVisits at 64 MB).
	PaperBlocks int
	// RealBlocks is the measured real block count.
	RealBlocks int
	// RealRowsPerBlock and PaperRowsPerBlock resolve partition-granularity
	// effects: a 1,024-row partition is the unit of index-scan I/O at any
	// block size, so partition-bounded reads must not scale with rows.
	RealRowsPerBlock  float64
	PaperRowsPerBlock float64
	// TextBytesPerNode is the paper-scale per-node input size.
	TextBytesPerNode float64
}

// newScale derives scale factors from a measured upload.
func (r *Runner) newScale(w Workload, realTextBytes, realRows int64, realBlocks int) Scale {
	gbPerNode := UVGBPerNode
	if w == Synthetic {
		gbPerNode = SynGBPerNode
	}
	textPerNode := gbPerNode * 1e9
	totalText := textPerNode * float64(r.Nodes)
	paperBlocks := int(totalText / paperBlockText)

	avgRowBytes := float64(realTextBytes) / float64(realRows)
	paperRowsPerBlock := paperBlockText / avgRowBytes
	realRowsPerBlock := float64(realRows) / float64(realBlocks)

	return Scale{
		RowScale:          paperRowsPerBlock / realRowsPerBlock,
		PaperBlocks:       paperBlocks,
		RealBlocks:        realBlocks,
		RealRowsPerBlock:  realRowsPerBlock,
		PaperRowsPerBlock: paperRowsPerBlock,
		TextBytesPerNode:  textPerNode,
	}
}

// upload cost builders — per-node resource demand at paper scale. These
// encode the pipeline differences of §3.2:
//
//   - Hadoop streams text packets and flushes them as they arrive
//     (StreamWriteEff), with only checksum CPU.
//   - HAIL parses to binary at the client, ships the (often smaller) PAX
//     block, and each datanode sorts/indexes/checksums in memory before a
//     whole-block flush.
//   - Hadoop++ does the Hadoop upload and then re-reads everything
//     through MapReduce shuffle machinery (trojanPhase).

// hadoopUploadCost: plain HDFS upload of textPerNode bytes at the given
// replication.
func hadoopUploadCost(textPerNode float64, replication int) sim.UploadCost {
	return sim.UploadCost{
		DiskReadBytes:        int64(textPerNode),
		DiskStreamWriteBytes: int64(textPerNode * float64(replication)),
		NetBytes:             int64(textPerNode * float64(replication-1)),
		CPUCoreSeconds:       textPerNode * float64(replication) / (sim.ChecksumMBps * 1e6),
	}
}

// hailUploadCost: HAIL upload with `indexes` sorted+indexed replicas out
// of `replication` total. binRatio is the measured PAX/text size ratio.
func hailUploadCost(textPerNode, binRatio float64, indexes, replication int) sim.UploadCost {
	bin := textPerNode * binRatio
	stored := bin * float64(replication)
	sorted := bin * float64(indexes)
	cpu := textPerNode/(sim.ParseMBps*1e6) +
		sorted/(sim.SortIndexMBps*1e6) +
		stored/(sim.SerializeMBps*1e6) +
		stored/(sim.ChecksumMBps*1e6)
	return sim.UploadCost{
		DiskReadBytes:       int64(textPerNode),
		DiskBlockWriteBytes: int64(stored),
		NetBytes:            int64(bin * float64(replication-1)),
		CPUCoreSeconds:      cpu,
	}
}

// trojanPhases: the Hadoop++ ingestion is the Hadoop upload plus one
// MapReduce conversion job, plus one more MapReduce job when an index is
// requested (§5, [12]). Each MR phase pays map spill + shuffle + reduce
// merge + replicated rewrite, amplified by TrojanMRJobInefficiency.
func trojanPhases(p sim.Profile, textPerNode, binRatio float64, withIndex bool, replication int) float64 {
	bin := textPerNode * binRatio
	total := sim.UploadTime(p, hadoopUploadCost(textPerNode, replication))

	convert := sim.UploadCost{
		DiskReadBytes:        int64(textPerNode + sim.TrojanConvertSpillFactor*bin),
		DiskStreamWriteBytes: int64(bin * float64(replication)),
		NetBytes:             int64(bin * float64(replication)), // shuffle + pipeline
		CPUCoreSeconds:       textPerNode / (sim.ParseMBps * 1e6),
	}
	total += sim.UploadTime(p, convert) * sim.TrojanMRJobInefficiency

	if withIndex {
		indexJob := sim.UploadCost{
			DiskReadBytes:        int64(bin + sim.TrojanIndexSpillFactor*bin),
			DiskStreamWriteBytes: int64(bin * float64(replication)),
			NetBytes:             int64(bin * float64(replication-1)),
			CPUCoreSeconds:       bin * float64(replication) / (sim.SortIndexMBps * 1e6),
		}
		total += sim.UploadTime(p, indexJob) * sim.TrojanMRJobInefficiency
	}
	return total
}
