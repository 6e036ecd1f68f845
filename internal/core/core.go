// Package core implements HAIL — the Hadoop Aggressive Indexing Library —
// the paper's primary contribution.
//
// Upload side (§3): the HAIL client parses text input into typed rows
// (separating bad records), cuts blocks at record boundaries, converts each
// block to binary PAX and sends it through the HDFS pipeline once. Each
// datanode in the pipeline reassembles the block in memory, sorts it on its
// own attribute, builds a sparse clustered index, recomputes checksums and
// flushes — so with replication three, every block is stored in three sort
// orders with three different clustered indexes, for (almost) free. The
// datanodes build their replicas at the same time, and the client parses
// the next block meanwhile, with one block in flight.
//
// Query side (§4): HailInputFormat asks the namenode which replicas carry
// an index matching the job's filter attribute (getHostsWithIndex) and
// either builds one split per block (default) or packs all blocks of a
// locality group into a few splits (HailSplitting, §4.3) to amortize
// Hadoop's per-task scheduling overhead. HailRecordReader performs an
// index scan when a matching clustered index exists — partition range
// lookup in memory, contiguous column-range reads, post-filtering — and
// falls back to a PAX column scan otherwise, applying the selection and
// projection from the job's HailQuery annotation either way. It reads
// through an hdfs replica view: the two headers, the index when it will be
// used and the candidate range of each needed column are the only bytes
// verified and touched, all of them before the block's first emit, so a
// corrupt chunk fails over to the next replica and never shows in output.
//
// Execution inside the record reader is vectorized and streaming: the
// candidate row range (whole block, or the index-narrowed slice of it)
// flows through in fixed-size batches. Filter columns are decoded from
// PAX bytes into typed vectors, the conjunction runs as selection-vector
// kernels (query.MatchesBatch), and projection columns are materialized
// late — only for the rows that survived, at row granularity via
// pax.ColumnCursor.NextSelected. Batches reach the job's map function
// (mapred.Job.MapBatch) whole. This is the only scan path; a row-at-a-time
// reader survives as a test-side oracle (vector_test.go) that holds its
// output and I/O accounting byte-identical.
package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/hdfs"
	"repro/internal/index"
	"repro/internal/pax"
	"repro/internal/schema"
)

// LayoutConfig is the per-dataset configuration Bob writes (§1.1): which
// attribute each replica is clustered and indexed on. It plays the role of
// the configuration file read by the HAIL upload pipeline.
type LayoutConfig struct {
	Schema *schema.Schema
	// SortColumns has one entry per replica: the attribute to cluster and
	// index that replica on, or -1 to store the replica as unsorted PAX
	// (no index). len(SortColumns) is the replication factor.
	SortColumns []int
	// BlockSize is the target input text bytes per block; rows are never
	// split across blocks (§3.1).
	BlockSize int
}

// Validate checks the configuration against its schema.
func (c *LayoutConfig) Validate() error {
	if c.Schema == nil {
		return fmt.Errorf("hail: config has no schema")
	}
	if len(c.SortColumns) == 0 {
		return fmt.Errorf("hail: config needs at least one replica")
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("hail: block size must be positive")
	}
	for i, col := range c.SortColumns {
		if col < -1 || col >= c.Schema.NumFields() {
			return fmt.Errorf("hail: replica %d sort column %d out of range", i, col)
		}
	}
	return nil
}

// Replication returns the replication factor implied by the config.
func (c *LayoutConfig) Replication() int { return len(c.SortColumns) }

// UploadSummary reports the real measured sizes of a HAIL upload; the
// experiment harness converts them into simulated upload time.
type UploadSummary struct {
	Blocks     int
	Rows       int64
	BadRecords int64
	TextBytes  int64 // input text size
	PaxBytes   int64 // client-side binary PAX size (what crosses the network)
	// StoredBytes is the total stored across replicas (per-replica sizes
	// differ: indexes and sort order change nothing in data size, but the
	// index is stored with the block).
	StoredBytes int64
	// SortedBytes is the PAX bytes that went through sort+index, summed
	// over replicas (k indexed replicas sort k× the block bytes).
	SortedBytes int64
	IndexBytes  int64 // total index bytes stored
	BlockIDs    []hdfs.BlockID
}

// BuildIndexedReplica converts a marshalled PAX block into the stored
// form of a replica clustered and indexed on col (§3.2 step 7): Unmarshal,
// then buildIndexed. Every conversion path shares buildIndexed — the upload
// pipeline's per-replica transform, RebuildReplica (recovery and the
// adaptive indexer's lazy query-time conversion) and this function — so
// the stored layout and the registered ReplicaInfo cannot diverge between
// them. bench/ and tests call it; no binary does.
func BuildIndexedReplica(paxData []byte, col int) ([]byte, hdfs.ReplicaInfo, error) {
	b, err := pax.Unmarshal(paxData)
	if err != nil {
		return nil, hdfs.ReplicaInfo{}, err
	}
	return buildIndexed(b, col)
}

// buildIndexed sorts a view of block on col, builds the sparse clustered
// index and frames both, serializing the block once, straight into the
// frame. block itself is only read, so every replica of one block can be
// built from it at once.
func buildIndexed(block *pax.Block, col int) ([]byte, hdfs.ReplicaInfo, error) {
	b := block.View()
	defer b.Release()
	if err := b.Sort(col); err != nil {
		return nil, hdfs.ReplicaInfo{}, err
	}
	ix, err := index.Build(b, col)
	if err != nil {
		return nil, hdfs.ReplicaInfo{}, err
	}
	ixData, err := ix.Marshal()
	if err != nil {
		return nil, hdfs.ReplicaInfo{}, err
	}
	paxLen := b.MarshalSize()
	framed := appendFrameHeader(make([]byte, 0, frameHeader+paxLen+len(ixData)), paxLen, len(ixData))
	if framed, err = b.MarshalAppend(framed); err != nil {
		return nil, hdfs.ReplicaInfo{}, err
	}
	framed = append(framed, ixData...)
	return framed, hdfs.ReplicaInfo{SortColumn: col, HasIndex: true, IndexSize: len(ixData)}, nil
}

// buildReplica is what a datanode stores for a PAX block it holds in
// memory, whichever way the block reached it (upload pipeline, recovery):
// the replica clustered and indexed on col, or for col < 0 the block as
// received — validated, framed, no index.
func buildReplica(paxData []byte, col int) ([]byte, hdfs.ReplicaInfo, error) {
	b, err := pax.Unmarshal(paxData)
	if err != nil {
		return nil, hdfs.ReplicaInfo{}, err
	}
	return storedReplica(b, paxData, col)
}

// storedReplica is buildReplica for a block already validated: block is
// paxData unmarshalled.
func storedReplica(block *pax.Block, paxData []byte, col int) ([]byte, hdfs.ReplicaInfo, error) {
	if col >= 0 {
		return buildIndexed(block, col)
	}
	return FrameReplica(paxData, nil), hdfs.ReplicaInfo{SortColumn: -1}, nil
}

// uploadBuffers is what an upload parses and serializes into: the block
// whose arenas take the lines, and the serialized block the pipeline reads.
type uploadBuffers struct {
	block   *pax.Block
	paxData []byte
}

// uploadBufs keeps an upload's buffers for the next, so an upload after
// the first grows no arena.
var uploadBufs sync.Pool

// Client uploads text data to HDFS the HAIL way.
type Client struct {
	Cluster *hdfs.Cluster
	Config  LayoutConfig
	Sep     byte // field separator; 0 defaults to ','
}

// Upload parses, blocks, converts and ships the given lines (§3.1–3.2).
// Bad records go to the block's bad-record section instead of failing the
// upload. One block and one serialization buffer serve the whole upload:
// each line is parsed straight into the block's arenas, and a full block is
// serialized and emptied for the next. Both come from the last upload of a
// block with an equal schema when one has finished, and go back for the
// next once the last write has returned.
//
// The client streams on while the pipeline works, as in the paper: a
// serialized block is written through the pipeline on its own goroutine
// while the next block is parsed. At most one block is in flight — the
// next serialization waits for it, because it reuses the buffer the
// pipeline is still reading — so blocks are written, and get their IDs, in
// file order. Upload never returns while a write is in flight.
func (cl *Client) Upload(file string, lines []string) (UploadSummary, error) {
	if err := cl.Config.Validate(); err != nil {
		return UploadSummary{}, err
	}
	sep := cl.Sep
	if sep == 0 {
		sep = ','
	}
	parser := &schema.Parser{Schema: cl.Config.Schema, Sep: sep}

	var sum UploadSummary
	bufs, _ := uploadBufs.Get().(*uploadBuffers)
	if bufs == nil || !bufs.block.Schema().Equal(cl.Config.Schema) {
		bufs = &uploadBuffers{block: pax.NewBlock(cl.Config.Schema)}
	}
	block, paxData := bufs.block, bufs.paxData
	block.Reset()
	blockText := 0

	// The writer fills written's block-side counts, and owns it until the
	// upload's last wait; the parser fills sum's text-side counts meanwhile.
	var written UploadSummary
	done := make(chan error, 1)
	inFlight := false
	wait := func() error {
		if !inFlight {
			return nil
		}
		inFlight = false
		return <-done
	}
	finish := func(err error) (UploadSummary, error) {
		if werr := wait(); err == nil {
			err = werr
		}
		bufs.paxData = paxData
		uploadBufs.Put(bufs)
		written.TextBytes, written.Rows, written.BadRecords = sum.TextBytes, sum.Rows, sum.BadRecords
		return written, err
	}
	flush := func() error {
		if block.NumRows() == 0 && block.NumBad() == 0 {
			return nil
		}
		if err := wait(); err != nil {
			return err
		}
		var err error
		if paxData, err = block.MarshalAppend(paxData[:0]); err != nil {
			return err
		}
		inFlight = true
		go func(data []byte) {
			done <- cl.writeBlock(file, data, &written)
		}(paxData)
		block.Reset()
		blockText = 0
		return nil
	}

	for _, line := range lines {
		sum.TextBytes += int64(len(line) + 1)
		if err := block.AppendLine(parser, line); err == nil {
			sum.Rows++
		} else if errors.Is(err, pax.ErrTooLarge) {
			return finish(err)
		} else {
			block.AppendBad(line)
			sum.BadRecords++
		}
		blockText += len(line) + 1
		if blockText >= cl.Config.BlockSize {
			if err := flush(); err != nil {
				return finish(err)
			}
		}
	}
	return finish(flush())
}

// writeBlock writes one serialized PAX block through the pipeline with the
// per-replica sort+index transform and adds it to sum.
func (cl *Client) writeBlock(file string, paxData []byte, sum *UploadSummary) error {
	cfg := cl.Config
	// Each datanode reassembles the PAX block in memory (§3.2 step 6) —
	// data is exactly the reassembled packet payload — then sorts on its
	// own attribute and builds its clustered index. The pipeline hands every
	// position the same reassembled bytes, so the first position to get
	// there validates them into a block, once, with pooled row directories,
	// and each position sorts its own view of that block.
	var (
		once     sync.Once
		block    *pax.Block
		blockErr error
	)
	transform := func(pos int, _ hdfs.NodeID, data []byte) ([]byte, hdfs.ReplicaInfo, error) {
		once.Do(func() { block, blockErr = pax.UnmarshalPooled(data) })
		if blockErr != nil {
			return nil, hdfs.ReplicaInfo{}, blockErr
		}
		return storedReplica(block, data, cfg.SortColumns[pos])
	}
	id, stats, err := cl.Cluster.WriteBlock(file, paxData, cfg.Replication(), transform)
	// Every transform has returned, and no replica aliases the block: each
	// is a fresh frame.
	if block != nil {
		block.Release()
	}
	if err != nil {
		return err
	}
	sum.Blocks++
	sum.PaxBytes += int64(len(paxData))
	sum.BlockIDs = append(sum.BlockIDs, id)
	for pos, sz := range stats.ReplicaSizes {
		sum.StoredBytes += int64(sz)
		if cfg.SortColumns[pos] >= 0 {
			sum.SortedBytes += int64(len(paxData))
			info, ok := cl.Cluster.NameNode().ReplicaInfo(id, stats.PipelineNodes[pos])
			if ok {
				sum.IndexBytes += int64(info.IndexSize)
			}
		}
	}
	return nil
}
