package sim

// CPU work rates, in MB/s per physical core (scaled by Profile.CPUFactor).
// These are the only knobs of the cost model besides the profile rates and
// the scheduling constants in sim.go. They were fixed once against Figure 4
// of the paper and are used unchanged by every other experiment:
//
//   - ParseMBps: parsing delimited text into typed binary columns. 40 MB/s
//     per core makes the HAIL client CPU-heavy but still hidden behind the
//     I/O-bound pipeline on the physical cluster, and exposed on the weak
//     m1.large CPUs (Table 2a's 0.54 system speedup).
//   - SortIndexMBps: in-memory sort of a block, permutation of all columns,
//     and sparse index creation. 32 MB/s per core is "two or three seconds"
//     for a 64 MB block — the figure the paper quotes in §3.5.
//   - SerializeMBps: PAX assembly and serialization of a received block.
//   - ChecksumMBps: CRC32 over chunk payloads. Each HAIL datanode recomputes
//     checksums for its own sort order (§3.2 step 7); in HDFS only the last
//     datanode in the chain verifies.
const (
	ParseMBps     = 40.0
	SortIndexMBps = 40.0
	SerializeMBps = 300.0
	ChecksumMBps  = 800.0
)

// Per-record CPU costs for the query path, in seconds per record on a
// physical core. Fixed against Figures 6(b) and 9(a); where the paper's
// own per-record implications disagree between those figures (its Fig 6(b)
// record-reader times imply ~20 µs per delivered HAIL record while its
// Fig 9(a) multi-block tasks imply ~4 µs), we calibrate to Figure 9, the
// headline end-to-end result, and accept the Fig 6(b) deviation.
//
//   - RecordDeliverHadoop: iterating a text record out of a stream and
//     invoking map() with a Text value.
//   - RecordSplitHadoop: the user map function's string split + field
//     parse, which standard Hadoop jobs pay per record (§4.1's "MAP
//     FUNCTION FOR HADOOP MAPREDUCE" pseudo-code).
//   - RecordDeliverTrojan: deserializing one row-layout binary record
//     (Hadoop++'s trojan layout); paid per *scanned* record, since row
//     layout must decode a row even to filter it.
//   - RecordReconstructHAIL: reconstructing one projected attribute of one
//     qualifying tuple from PAX to row layout (§4.3).
//   - RecordDeliverHAIL: building the HailRecord and invoking map() for
//     one qualifying tuple.
const (
	RecordDeliverHadoop   = 1.0e-6
	RecordSplitHadoop     = 8.0e-6
	RecordDeliverTrojan   = 12.0e-6
	RecordReconstructHAIL = 0.45e-6 // per attribute
	RecordDeliverHAIL     = 3.5e-6
)

// LineScanMBps is the CPU rate of scanning text for newlines in the
// standard-Hadoop record reader, per physical core.
const LineScanMBps = 100.0

// Fixed per-job, per-task and per-block costs on the query path, in
// seconds.
//
//   - JobSetupSeconds: JobClient resource staging and job submission.
//   - TaskFixedSeconds: launching a map task and opening its input stream
//     (JVM reuse, HDFS client lookup, connection) — paid once per task.
//   - BlockOpenSeconds: switching to the next block inside a multi-block
//     HailSplitting split (namenode lookups were batched at split time;
//     this is the per-block stream switch).
const (
	JobSetupSeconds  = 5.0
	TaskFixedSeconds = 0.22
	BlockOpenSeconds = 0.012
)

// Trojan-index (Hadoop++) upload constants. Hadoop++ creates its index by
// running MapReduce jobs after the initial upload (§5, [12]): the data is
// re-read, repartitioned through the full map-spill/shuffle/reduce-merge
// machinery, and rewritten through the replication pipeline. The spill
// factors count local-disk spill/merge passes as multiples of the job's
// input (the conversion job repartitions everything; the index job's
// reduce-side sort merges already-partitioned runs and spills less);
// MRJobInefficiency absorbs framework overhead and stragglers of those
// giant jobs. Fixed against Figure 4(a)'s 7,290 s (conversion only) and
// 11,212 s (conversion + one index).
const (
	TrojanConvertSpillFactor = 3.5
	TrojanIndexSpillFactor   = 1.5
	TrojanMRJobInefficiency  = 2.2
)
