// Package mapred is an in-process, map-only MapReduce substrate modelled on
// Hadoop MapReduce as the paper describes it (§4.2): a job client computes
// input splits via an InputFormat, a job tracker schedules one map task per
// split honouring data locality, and task trackers execute map tasks whose
// record readers pull records out of HDFS blocks. Every query the paper
// evaluates is map-only, and so is every job here. Node failures are
// detected after an expiry interval and failed tasks are re-executed on
// surviving nodes (§6.4.3).
//
// All record movement is real: map functions see real records read from
// real stored block bytes, and per-task statistics (bytes, seeks, records)
// are measured, not estimated. Wall-clock time is *not* modelled here —
// the sim package turns the measured statistics into simulated cluster
// time.
//
// Every record reader streams batches (BatchReader). A Batch carries the
// projected attributes of its qualifying rows as typed vectors, a text
// reader's raw lines, and bad records. A job maps each batch whole
// (Job.MapBatch): HAIL's map function "does not have to split the record
// into attributes" (§4.1), so no record is materialized on the way to it.
// A job with no map function is a passthrough: each batch's rows, as
// Batch.Lines formats them, are the block's output, and no row is touched
// on the way.
//
// A job's output is its blocks' chunks in task order. A chunk is text
// and row ends: the strings Batch.Lines builds, one per batch, or the
// key/value pairs a map function emitted copied into one string, plus an
// int32 end per row — there is no header per row. That is what makes the
// block the only granularity the result cache needs: a cached block's
// chunk is the cache's own copy, shared by every job that hits it, and a
// computed block's chunk keeps its ends in a pooled buffer, reused once
// the job has returned. Engine.Stream hands each chunk to its consumer as
// is; Engine.Run writes them all into one slice of KVs.
package mapred

import (
	"cmp"
	"maps"
	"slices"

	"repro/internal/hdfs"
	"repro/internal/obs"
)

// KV is one key/value pair emitted by a map function.
type KV struct {
	Key   string
	Value string
}

// TaskStats aggregates the real resource usage of one map task. The
// experiment harness scales these with the block scale factor into its
// per-block cost model (experiments' queryCost).
type TaskStats struct {
	Blocks         int   // blocks processed by the task
	BytesRead      int64 // data bytes read (PAX column ranges or raw text)
	IndexBytesRead int64 // index bytes read (sparse directory / trojan index)
	Seeks          int   // non-contiguous reads
	IndexScans     int   // blocks processed via a clustered index
	FullScans      int   // blocks processed by scanning
	// PartitionsScanned counts 1,024-row partitions covered by PAX range
	// reads. Partition reads have a fixed floor (a point lookup touches
	// one partition at any block size), so the cost model scales them
	// separately from proportional byte counts.
	PartitionsScanned int64
	RecordsScanned    int64 // input records examined
	RecordsDelivered  int64 // records passed to the map function
	AttrsDelivered    int64 // attribute values materialized for the map function
	TextBytesParsed   int64 // text bytes split/parsed (Hadoop path CPU)
	RemoteReads       int   // blocks read from a non-local replica
	OutputBytes       int64 // bytes emitted by the map function
	// BlocksFromCache counts blocks whose map output was served by the
	// block-level result cache: the block contributes no read I/O or
	// record CPU to the task, only its (replayed) output.
	BlocksFromCache int
	// NameNodeOps counts namenode directory lookups (FileBlocks, GetHosts,
	// GetHostsWithIndex) performed on behalf of the work. Today only the
	// split phase reports it: HAIL reads no block headers at split time
	// (§6.4.1), but the adaptive path does per-block directory lookups,
	// and those must be measured rather than hidden behind a zero struct.
	NameNodeOps int
	// RowsScanned, RowsSelected and BatchesEmitted are the vectorized
	// pipeline's counters: the access path's candidate rows (every good
	// row of a full-scanned block; the partitions an index scan's range
	// covers, though the reader decodes only the run it binary-searches
	// inside them), rows surviving the full conjunction, and non-empty
	// batches handed to the map layer. The baselines' readers (text and
	// trojan), which run no selection kernels, leave them zero.
	RowsScanned    int64
	RowsSelected   int64
	BatchesEmitted int64
	// ChecksumFailovers counts block reads that left a replica because one
	// of its chunks failed checksum verification and were served by
	// another. The work of the abandoned attempt appears nowhere else in
	// the stats; this is the trace it leaves.
	ChecksumFailovers int
}

// Add accumulates other into s.
func (s *TaskStats) Add(other TaskStats) {
	s.Blocks += other.Blocks
	s.BytesRead += other.BytesRead
	s.IndexBytesRead += other.IndexBytesRead
	s.Seeks += other.Seeks
	s.IndexScans += other.IndexScans
	s.FullScans += other.FullScans
	s.PartitionsScanned += other.PartitionsScanned
	s.RecordsScanned += other.RecordsScanned
	s.RecordsDelivered += other.RecordsDelivered
	s.AttrsDelivered += other.AttrsDelivered
	s.TextBytesParsed += other.TextBytesParsed
	s.RemoteReads += other.RemoteReads
	s.OutputBytes += other.OutputBytes
	s.BlocksFromCache += other.BlocksFromCache
	s.NameNodeOps += other.NameNodeOps
	s.RowsScanned += other.RowsScanned
	s.RowsSelected += other.RowsSelected
	s.BatchesEmitted += other.BatchesEmitted
	s.ChecksumFailovers += other.ChecksumFailovers
}

// Split is one unit of map-task input (§4.2). The default Hadoop policy
// creates one split per block; HailSplitting packs many blocks of one
// locality group into a single split (§4.3), and the PackScans policy
// extends the same shape to scan and fully-cached blocks.
type Split struct {
	Blocks []hdfs.BlockID
	// Locations are the candidate nodes for scheduling this split, best
	// first (for HAIL: nodes holding the replica with the matching index,
	// via getHostsWithIndex).
	Locations []hdfs.NodeID
	// Pins holds each block's preferred replica node, aligned with Blocks:
	// the replica with the matching clustered index, or the one the result
	// cache holds the block's output at. hdfs.NoReplica marks an unpinned
	// block, and a scan split has nil Pins. A job's splits carve their Pins
	// out of one array, which nothing writes once the split phase returns.
	Pins []hdfs.NodeID
	// Replica maps each pinned block to its pin. Only core's compat.go
	// fills it; the engine and the readers read Pins.
	//
	// Deprecated: bench/ only.
	Replica map[hdfs.BlockID]hdfs.NodeID
}

// Pin returns the pin of the split's i-th block, hdfs.NoReplica if none.
func (s Split) Pin(i int) hdfs.NodeID {
	if s.Pins == nil {
		return hdfs.NoReplica
	}
	return s.Pins[i]
}

// Fallback re-resolves the split's replica pinning against the namenode
// after a node loss: every block whose pinned node fails the alive
// predicate is re-pinned, per block, to the block's first alive replica
// holder (registration order, the pipeline's locality preference); a
// block with no alive holder loses its pin (hdfs.NoReplica) so the reader
// degrades to any-replica resolution. The repacked split gets fresh Pins,
// so the array the job's splits share is never written. Locations are
// recomputed from the surviving pins — most-pinned node first, ties by
// ascending ID — so the packed split keeps a meaningful scheduling
// preference. Packing trades away the one-block failover granularity of
// per-block scan splits; this is the compensating move: the engine
// repacks a failed packed split and re-runs only the blocks that were
// actually affected, instead of failing the task or rescanning the whole
// split elsewhere. Returns the repacked split and the number of blocks
// whose pin changed; a split with no dead pin comes back as it is.
func (s Split) Fallback(nn *hdfs.NameNode, alive func(hdfs.NodeID) bool) (Split, int) {
	dead := func(n hdfs.NodeID) bool { return n != hdfs.NoReplica && !alive(n) }
	if !slices.ContainsFunc(s.Pins, dead) {
		return s, 0
	}
	out := s
	out.Pins = slices.Clone(s.Pins)
	repinned := 0
	counts := make(map[hdfs.NodeID]int)
	for i, n := range out.Pins {
		if dead(n) {
			repinned++
			hosts := nn.GetHosts(s.Blocks[i])
			n = hdfs.NoReplica
			if j := slices.IndexFunc(hosts, alive); j >= 0 {
				n = hosts[j]
			}
			out.Pins[i] = n
		}
		if n != hdfs.NoReplica {
			counts[n]++
		}
	}
	if len(counts) > 0 {
		out.Locations = slices.SortedFunc(maps.Keys(counts), func(a, b hdfs.NodeID) int {
			return cmp.Or(counts[b]-counts[a], cmp.Compare(a, b))
		})
		return out, repinned
	}
	// No pins survive: keep the alive subset of the old locations (the
	// scheduler falls back to availability-only when none is left).
	if locs := slices.DeleteFunc(slices.Clone(s.Locations), func(n hdfs.NodeID) bool { return !alive(n) }); len(locs) > 0 {
		out.Locations = locs
	}
	return out, repinned
}

// InputFormat computes splits for a file and opens record readers for
// them. Each system (Hadoop text scan, Hadoop++ trojan, HAIL) provides its
// own implementation — the UDF surface the paper works through.
type InputFormat interface {
	// Splits implements the job client's split phase and reports the I/O
	// and namenode lookups that call itself performed (Hadoop++ reads
	// every block's index header at split time; HAIL and Hadoop read
	// nothing, §6.4.1). Returning the stats from the call, rather than
	// from an accumulator on the instance, is what lets one input format
	// serve overlapping jobs. cached is the engine's cache probe for the
	// job (ResultCache.CachedReplica), nil when the job runs uncached.
	Splits(file string, cached func(hdfs.BlockID) (hdfs.NodeID, bool)) ([]Split, TaskStats, error)
	// Open creates the record reader for a split, executing on the given
	// node. The engine opens every split one block at a time (the split
	// narrowed to that block, its pin with it), so the reader of an
	// n-block split must deliver exactly the n one-block readers' records,
	// order and summed stats.
	Open(split Split, node hdfs.NodeID) (BatchReader, error)
}

// QuerySigner is implemented by input formats whose record readers are a
// pure function of (block bytes, declared query): QuerySignature returns a
// normalized identity of the query (filter + projection) that, together
// with the block and its replica generation, keys the block-level result
// cache. ok reports whether the input format supports signatures at all.
type QuerySigner interface {
	QuerySignature() (sig string, ok bool)
}

// CacheKey identifies one block's cached map output. Two executions with
// equal keys are guaranteed to produce identical output: the replica
// generation changes whenever the block's replica topology does (new,
// replaced, lost or returned replicas), and Replica pins the node whose
// stored order the result reflects.
type CacheKey struct {
	File  string
	Block hdfs.BlockID
	// Gen is the block's replica-topology generation
	// (hdfs.NameNode.Generation) at read time.
	Gen uint64
	// Query is the input format's normalized query signature.
	Query string
	// MapSig is the job's declared map-function identity.
	MapSig string
	// Replica is the node whose replica the result was read from: the
	// split's pinned replica when one exists, the executing node
	// otherwise.
	Replica hdfs.NodeID
}

// ResultCache is the engine's view of the block-level result cache
// (internal/qcache): per-block map outputs with the stats the computation
// cost, so hits can account for the work they saved. Implementations must
// be safe for concurrent use by many task goroutines. The chunk Get
// returns is the block's output as is, so it must never change afterwards.
// The chunk PutChunk is given is valid only during the call: its segment
// headers and row ends live in a buffer the engine reuses once the job
// returns, so PutChunk keeps a Chunk.Clone. It reports whether it admitted
// the entry.
type ResultCache interface {
	Get(k CacheKey) (Chunk, TaskStats, bool)
	PutChunk(k CacheKey, c Chunk, stats TaskStats) bool
	// CachedReplica is the split phase's packing probe: the replica node
	// the cache holds k's block output at, matching k but its Replica.
	CachedReplica(k CacheKey) (hdfs.NodeID, bool)
}

// PassthroughSig is the map identity a job with no map function is cached
// under (CacheKey.MapSig).
const PassthroughSig = "mapred.Passthrough"

// Job describes one map-only MapReduce job.
type Job struct {
	Name  string
	File  string
	Input InputFormat
	// MapBatch is the job's map function: the engine hands it whole
	// batches and materializes no record. A job without one is a
	// passthrough: every batch's rows, formatted by Batch.Lines(','), go
	// into the block's output as they are, and bad records and raw lines
	// are dropped.
	MapBatch MapBatchFunc
	// Map is the record-at-a-time map function. The engine never calls
	// it.
	//
	// Deprecated: bench/ only.
	Map MapFunc
	// MapSig declares a stable identity for the map function. Map
	// functions are closures the engine cannot compare, so result caching
	// is opt-in: a job with a MapBatch and an empty MapSig is never cached,
	// and two jobs must only share a MapSig if their map functions behave
	// identically. A passthrough job is cached under PassthroughSig
	// whatever MapSig says.
	MapSig string
	// Trace, if set, records this job's execution as a tree of timed
	// spans (split planning, scheduling, per-task wait/attempt/repack,
	// post-task work) plus qcache probe counts, exportable as Chrome
	// trace_event JSON. A nil Trace is fully inert: every obs call site
	// in the engine no-ops without allocating.
	Trace *obs.Trace
}
