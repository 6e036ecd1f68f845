package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/hdfs"
	"repro/internal/index"
	"repro/internal/mapred"
	"repro/internal/pax"
	"repro/internal/query"
	"repro/internal/schema"
)

// selectAll is the query a reader without one runs: every row, every
// attribute. It is one value so that a lay-out for it is reused.
var selectAll = &query.Query{}

// batchRows is the vectorized pipeline's batch size. It matches the PAX
// partition granularity, so one batch straddles at most two variable-size
// partitions.
const batchRows = pax.PartitionSize

// recordReader is the HailRecordReader (§4.3): per block it performs an
// index scan when the block's replica carries a clustered index matching a
// filter predicate, and a PAX column scan otherwise. Either way it applies
// the full conjunction, reconstructs the projected attributes of
// qualifying tuples, and passes bad records through flagged.
//
// It reads what the access path says and nothing else. A block is opened
// as an hdfs replica view; the frame header, the PAX header, the index
// (only when a filter matches the sort column), one contiguous range per
// needed column and the bad-record section are fetched through it, each
// range CRC-verified by the datanode as it is handed out and none of it
// copied. All of a block's range reads complete before its first batch is
// emitted, so a corrupt chunk anywhere the scan would look fails the block
// over to its next replica — exactly as an unreadable replica does — and
// never after partial output.
//
// Execution is vectorized and streaming. An index scan on a fixed-size
// sort column first narrows the index's partition range to the rows the
// indexed conjunct selects: the replica is sorted on that column, so they
// are one run, which a binary search over the column bytes finds
// (pax.ColumnCursor.Run). The rows left — that run, or the whole candidate
// range — flow through the reader in fixed-size batches (batchRows rows).
// When the indexed conjunct is the whole filter every row of the run
// qualifies and the batches are dense: no kernel runs. Otherwise, per
// batch, the filter columns are decoded from PAX bytes into typed vectors,
// the conjunction runs as selection-vector kernels (query.MatchesBatch),
// and the remaining projection columns are decoded only when the batch has
// surviving rows — late materialization. Column bytes are read (and
// I/O-accounted) once per block at cursor creation, over the whole
// candidate range and in ascending column order, so
// BytesRead/Seeks/PartitionsScanned equal those of one contiguous range
// read per needed column — the accounting the test-side row oracle
// (rowOracleReader) holds this pipeline to. Only decoding narrows.
type recordReader struct {
	cluster *hdfs.Cluster
	query   *query.Query
	split   mapred.Split
	node    hdfs.NodeID

	view  hdfs.ReplicaView // the replica being scanned; reused across blocks
	scan  blockScan        // the block being scanned; its column scratch is reused across blocks
	batch mapred.Batch     // reused across blocks; fn must not retain it
	sel   query.Selection  // reused selection vector
}

// ReadBatches implements mapred.BatchReader: the split's blocks as a lazy
// batch stream. The batch passed to fn is reused; it is valid only for
// the duration of the call. ReadBatches is called once per Open: when it
// returns, the reader is back in the pool.
func (r *recordReader) ReadBatches(fn func(*mapred.Batch)) (mapred.TaskStats, error) {
	var stats mapred.TaskStats
	for _, b := range r.split.Blocks {
		if err := r.readBlockBatches(b, fn, &stats); err != nil {
			r.release()
			return stats, err
		}
	}
	r.release()
	return stats, nil
}

// readers pools record readers across Opens: the engine opens one per
// block, and a pooled one arrives with its lay-out, vectors, selection
// vectors and batch scratch already grown by the blocks before. A reader
// whose fn panicked is not put back.
var readers sync.Pool

// release drops every reference the reader holds into the job and the
// replica it served — cluster, split, view, the PAX reader's source, the
// cursors' ranges, the vectors' and the batch's views of column bytes, bad
// records — and puts it in the pool. What it keeps is scratch: the PAX
// reader's directory arrays, the cursors, the index's key array (its
// string keys are its own copy), the lay-out with the schema and query it
// was built for, the vectors' own arrays and the batch's buffers.
func (r *recordReader) release() {
	bs := &r.scan
	bs.reader.Close()
	clear(bs.cursors)
	clear(bs.bad[:cap(bs.bad)])
	bs.bad = bs.bad[:0]
	for _, v := range bs.vecs {
		if v != nil {
			v.Reset()
		}
	}
	r.cluster, r.query, r.split, r.view = nil, nil, mapred.Split{}, hdfs.ReplicaView{}
	r.batch.Cols, r.batch.Rows, r.batch.Bad = nil, 0, nil
	readers.Put(r)
}

// blockScan is one block opened for scanning: the PAX reader, the
// index-resolved candidate row range with the conjunct that resolved it,
// and — once fetch has run — every byte the scan will decode. A reader
// has one, valid until it opens the next block (or the next replica of
// this one). The PAX reader, the index and the cursors are values opened
// in place, so a block opens without allocating.
//
// The column lay-out below the line is scratch that outlives the block and
// the Open: it is built for a (schema, query) pair and kept while the next
// blocks bring the same pair, as the blocks of a file scanned by one job
// do — and since the reader is pooled, the next job's blocks too when it
// asks the same query. A new pair is laid out in the old one's arrays, the
// vectors keep their capacity, and nothing but the cursors is set up again
// per block.
type blockScan struct {
	reader         pax.Reader
	ix             index.Index // decoded when the scan uses the block's index
	fromRow, toRow int
	key            int // the conjunct of q the index resolved, or -1 for a full scan
	bad            []string

	q                *query.Query       // the query the lay-out is for
	sch              *schema.Schema     // the schema the lay-out is for
	proj             []int              // the projection, resolved against sch
	all              []int              // proj when q has none: every column of sch
	cols, filterCols []int              // filter ∪ projection, and the filter columns; ascending
	isFilter         []bool             // by column
	vecs             []*schema.Vector   // by column; nil where the scan does not look
	spare            []*schema.Vector   // layOut's scratch: the vectors of the lay-out before
	projVecs         []*schema.Vector   // vecs in projection order: a batch's Cols
	cursors          []pax.ColumnCursor // by column; over [fromRow, toRow) once fetch has run
}

// layOut resolves query q's columns against a block's schema, unless the
// lay-out already is for that pair. A failed lay-out leaves none: the next
// block lays out afresh.
func (bs *blockScan) layOut(sch *schema.Schema, q *query.Query) error {
	if bs.q == q && bs.sch.Equal(sch) {
		return nil
	}
	n := sch.NumFields()
	proj := q.Projection
	if len(proj) == 0 {
		bs.all = bs.all[:0]
		for c := range n {
			bs.all = append(bs.all, c)
		}
		proj = bs.all
	}
	cols, filterCols := neededColumns(q, proj, bs.cols[:0], bs.filterCols[:0])
	bs.q, bs.sch, bs.proj, bs.cols, bs.filterCols = q, sch, proj, cols, filterCols
	if len(cols) > 0 && (cols[0] < 0 || cols[len(cols)-1] >= n) {
		bs.q = nil
		return fmt.Errorf("hail: query %s names a column outside the block's %d", q, n)
	}
	bs.isFilter = reuse(bs.isFilter, n)
	for _, c := range filterCols {
		bs.isFilter[c] = true
	}
	bs.spare = append(bs.spare[:0], bs.vecs...)
	bs.vecs = reuse(bs.vecs, n)
	for _, c := range cols {
		bs.vecs[c] = takeVector(bs.spare, sch.Field(c).Type)
	}
	clear(bs.spare)
	bs.projVecs = bs.projVecs[:0]
	for _, c := range proj {
		bs.projVecs = append(bs.projVecs, bs.vecs[c])
	}
	bs.cursors = reuse(bs.cursors, n)
	return nil
}

// reuse returns s resized to n zero values, in its own array when that has
// room.
func reuse[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// takeVector takes a vector of type t out of vecs, so that a new lay-out
// keeps the capacity the old one grew, or makes one.
func takeVector(vecs []*schema.Vector, t schema.Type) *schema.Vector {
	for i, v := range vecs {
		if v != nil && v.Type() == t {
			vecs[i] = nil
			return v
		}
	}
	return schema.NewVector(t)
}

// openBlockScan opens block b on the first replica that can serve every
// byte the scan needs: the split's pinned replica (the one with the
// matching index, via getHostsWithIndex) if it recorded one, then the
// executing node's own, then the remaining holders in registration order.
// When the pinned replica is unreachable or corrupt the access path
// degrades to a scan if the next replica's index does not match (§6.4.3,
// HAIL vs HAIL-1Idx).
func (r *recordReader) openBlockScan(b hdfs.BlockID, stats *mapred.TaskStats) (*blockScan, error) {
	var lastErr error
	pinned, isPinned := r.split.Replica[b]
	if isPinned {
		bs, next, err := r.scanReplica(b, pinned, stats)
		if !next {
			return bs, err
		}
		lastErr = err
	}
	for _, h := range r.cluster.ReplicaOrder(b, r.node) {
		if isPinned && h == pinned {
			continue
		}
		bs, next, err := r.scanReplica(b, h, stats)
		if !next {
			return bs, err
		}
		lastErr = err
	}
	if lastErr == nil {
		return nil, fmt.Errorf("hail: block %d has no replicas", b)
	}
	return nil, fmt.Errorf("hail: all replicas of block %d unreadable: %v", b, lastErr)
}

// scanReplica is one attempt at a block: open the replica on node, run the
// prologue, fetch every range the scan will touch. next reports a failure
// that is the replica's rather than the block's — the node is dead, the
// replica is gone, or a chunk failed verification — so another replica may
// still serve the scan. A failed attempt leaves nothing in stats but, for
// a corrupt chunk, the failover it caused, and the corrupt replica is
// quarantined.
func (r *recordReader) scanReplica(b hdfs.BlockID, node hdfs.NodeID, stats *mapred.TaskStats) (bs *blockScan, next bool, err error) {
	if r.view, err = r.cluster.OpenBlockFrom(node, b); err != nil {
		return nil, true, err
	}
	before := *stats
	if bs, err = r.openView(b, node, stats); err == nil {
		err = bs.fetch(stats)
	}
	if err == nil {
		return bs, false, nil
	}
	*stats = before
	if errors.Is(err, hdfs.ErrCorruptChunk) {
		// Out of service, unless it is the block's last replica.
		stats.ChecksumFailovers++
		r.cluster.NameNode().QuarantineReplica(b, node, err.Error())
		return nil, true, err
	}
	return nil, false, err
}

// openView is the per-replica prologue over r.view, block b's replica on
// servedBy: parse the frame and PAX headers and pick the access path — an
// index scan narrows the candidate range via the replica's clustered
// index when one matches a filter predicate, a full scan keeps the whole
// block. Only the two headers are read, plus the index when it will be
// used. All access-path stats (Blocks, RemoteReads, IndexScans/FullScans,
// IndexBytesRead, PartitionsScanned) are accounted here.
func (r *recordReader) openView(b hdfs.BlockID, servedBy hdfs.NodeID, stats *mapred.TaskStats) (*blockScan, error) {
	if servedBy != r.node {
		stats.RemoteReads++
	}
	stats.Blocks++

	bs := &r.scan
	reader := &bs.reader
	ixOff, ixLen, err := openFrame(&r.view, reader)
	if err != nil {
		return nil, err
	}
	q := r.query
	if q == nil {
		q = selectAll
	}
	bs.fromRow, bs.toRow, bs.key = 0, reader.NumRows(), -1
	if err := bs.layOut(reader.Schema(), q); err != nil {
		return nil, err
	}

	if ixLen > 0 {
		for i, p := range q.Filter {
			if p.Column != reader.SortColumn() {
				continue
			}
			// Reading the index costs its bytes plus one seek (§4.3:
			// "we read the index entirely into main memory").
			ixData, err := r.view.Range(ixOff, ixLen)
			if err != nil {
				return nil, err
			}
			if err := bs.ix.UnmarshalBinary(ixData); err != nil {
				return nil, fmt.Errorf("hail: block %d index: %v", b, err)
			}
			stats.IndexBytesRead += int64(ixLen)
			stats.Seeks++
			f, t, ok := bs.ix.PartitionRange(p.Lo, p.Hi)
			bs.key = i
			if !ok {
				bs.fromRow, bs.toRow = 0, 0
			} else {
				bs.fromRow, bs.toRow = f, t
			}
			break
		}
	}
	if bs.key >= 0 {
		stats.IndexScans++
	} else {
		stats.FullScans++
	}
	if bs.toRow > bs.fromRow {
		stats.PartitionsScanned += int64((bs.toRow - bs.fromRow + pax.PartitionSize - 1) / pax.PartitionSize)
	}
	return bs, nil
}

// fetch performs every remaining read of the block: a cursor per needed
// column over the candidate range, opened in ascending column order — one
// contiguous range per column, which is where the column bytes are read —
// and then the bad-record section. After it returns the scan only decodes
// bytes it already holds.
func (bs *blockScan) fetch(stats *mapred.TaskStats) (err error) {
	if bs.toRow > bs.fromRow {
		for _, col := range bs.cols {
			if err := bs.cursors[col].Open(&bs.reader, col, bs.fromRow, bs.toRow); err != nil {
				return err
			}
		}
	}
	if bs.bad, err = bs.reader.ReadAllBad(bs.bad); err != nil {
		return err
	}
	io := bs.reader.Stats()
	stats.BytesRead, stats.Seeks = stats.BytesRead+io.BytesRead, stats.Seeks+io.Seeks
	return nil
}

// neededColumns appends to cols the distinct columns the scan must touch
// (filter ∪ projection) in ascending order — the read order — and to
// filterCols the distinct filter columns, also ascending.
func neededColumns(q *query.Query, proj, cols, filterCols []int) ([]int, []int) {
	for _, p := range q.Filter {
		filterCols = append(filterCols, p.Column)
	}
	slices.Sort(filterCols)
	filterCols = slices.Compact(filterCols)
	cols = append(append(cols, filterCols...), proj...)
	slices.Sort(cols)
	return slices.Compact(cols), filterCols
}

// readBlockBatches is the vectorized per-block execution: stream the
// candidate range as batches, then the bad records as one final batch.
func (r *recordReader) readBlockBatches(b hdfs.BlockID, fn func(*mapred.Batch), stats *mapred.TaskStats) error {
	bs, err := r.openBlockScan(b, stats)
	if err != nil {
		return err
	}
	if bs.toRow > bs.fromRow {
		if err := r.streamRange(bs, fn, stats); err != nil {
			return err
		}
	}
	// Bad records are handed to the map function flagged, whatever the
	// access path (§4.3).
	if len(bs.bad) > 0 {
		stats.RecordsDelivered += int64(len(bs.bad))
		stats.BatchesEmitted++
		r.batch.Cols, r.batch.Rows, r.batch.Bad = nil, 0, bs.bad
		fn(&r.batch)
	}
	return nil
}

// streamRange drives the candidate row range through the batch pipeline.
// The cursors fetch opened hold every column byte already. On an index
// scan whose sort column has a fixed width, the indexed conjunct's cursor
// binary-searches the run of rows it selects and every cursor skips to
// the run's start; the rows after the run are never looked at. The range
// still counts as scanned in full — RecordsScanned and RowsScanned are the
// access path's candidate rows, which the cost model prices.
//
// When the indexed conjunct is the query's only one, the run is the
// answer: each batch decodes the projected columns and nothing else, and
// goes out dense. Otherwise each batch decodes the filter columns and runs
// the selection-vector kernels. Projection columns are materialized at row
// granularity: when the filters discard part of a batch, the
// projection-only cursors decode values for the surviving rows alone, and
// the already-decoded filter columns are compacted in place, so every
// emitted batch is dense. A selective scan therefore pays projection
// decoding proportional to its selectivity, not its scan range — the
// late-materialization payoff.
func (r *recordReader) streamRange(bs *blockScan, fn func(*mapred.Batch), stats *mapred.TaskStats) (err error) {
	cols, filterCols, cursors, vecs := bs.cols, bs.filterCols, bs.cursors, bs.vecs
	rows := bs.toRow - bs.fromRow
	stats.RecordsScanned += int64(rows)
	stats.RowsScanned += int64(rows)
	dense := false
	if bs.key >= 0 {
		p := bs.q.Filter[bs.key]
		if from, to, ok := cursors[p.Column].Run(p.Lo, p.Hi); ok {
			for _, col := range cols {
				if _, err := cursors[col].Next(from, nil); err != nil {
					return err
				}
			}
			rows, dense = to-from, len(bs.q.Filter) == 1
		}
	}
	for remaining := rows; remaining > 0; {
		n := batchRows
		if n > remaining {
			n = remaining
		}
		remaining -= n
		for _, col := range filterCols {
			if dense && !isProjected(bs.proj, col) {
				continue
			}
			if _, err := cursors[col].Next(n, vecs[col]); err != nil {
				return err
			}
		}
		if dense {
			r.sel = query.MakeSelection(r.sel, n)
		} else {
			r.sel = bs.q.MatchesBatch(func(c int) *schema.Vector { return vecs[c] }, query.MakeSelection(r.sel, n))
		}
		stats.RowsSelected += int64(len(r.sel))
		partial := len(r.sel) > 0 && len(r.sel) < n
		for _, col := range cols {
			if bs.isFilter[col] {
				continue
			}
			switch {
			case len(r.sel) == 0:
				_, err = cursors[col].Next(n, nil) // skip the bytes, decode nothing
			case partial:
				_, err = cursors[col].NextSelected(n, r.sel, vecs[col])
			default:
				_, err = cursors[col].Next(n, vecs[col])
			}
			if err != nil {
				return err
			}
		}
		if len(r.sel) == 0 {
			continue
		}
		if partial {
			for _, col := range filterCols {
				if isProjected(bs.proj, col) {
					vecs[col].Gather(r.sel)
				}
			}
		}
		stats.RecordsDelivered += int64(len(r.sel))
		stats.AttrsDelivered += int64(len(r.sel) * len(bs.proj))
		stats.BatchesEmitted++
		r.batch.Cols, r.batch.Rows, r.batch.Bad = bs.projVecs, len(r.sel), nil
		fn(&r.batch)
	}
	return nil
}

// isProjected reports whether col appears in the (short, ascending)
// projection list.
func isProjected(proj []int, col int) bool {
	for _, c := range proj {
		if c == col {
			return true
		}
	}
	return false
}
