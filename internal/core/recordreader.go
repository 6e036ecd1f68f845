package core

import (
	"fmt"
	"sort"

	"repro/internal/hdfs"
	"repro/internal/index"
	"repro/internal/mapred"
	"repro/internal/pax"
	"repro/internal/query"
	"repro/internal/schema"
)

// batchRows is the vectorized pipeline's batch size. It matches the PAX
// partition granularity, so one batch never straddles more variable-size
// partitions than the rows it carries.
const batchRows = pax.PartitionSize

// recordReader is the HailRecordReader (§4.3): per block it performs an
// index scan when the block's replica carries a clustered index matching a
// filter predicate, and a PAX column scan otherwise. Either way it applies
// the full conjunction, reconstructs the projected attributes of
// qualifying tuples, and passes bad records through flagged.
//
// The default execution is vectorized and streaming: the candidate row
// range flows through the reader in fixed-size batches (batchRows rows).
// Per batch, the filter columns are decoded from PAX bytes into typed
// vectors, the conjunction runs as selection-vector kernels
// (query.MatchesBatch), and the remaining projection columns are decoded
// only when the batch has surviving rows — late materialization. Column
// bytes are read (and I/O-accounted) once per block at cursor creation,
// in ascending column order, so BytesRead/Seeks/PartitionsScanned equal
// those of one contiguous range read per needed column — the accounting
// the test-side row oracle (rowOracleReader) holds this pipeline to.
type recordReader struct {
	cluster *hdfs.Cluster
	query   *query.Query
	split   mapred.Split
	node    hdfs.NodeID

	batch mapred.Batch    // reused across blocks; fn must not retain it
	sel   query.Selection // reused selection vector
	ident query.Selection // reused identity selection for compacted batches
}

// Read implements mapred.RecordReader: it streams batches and
// materializes records through Batch.Each's scratch row, so ordinary map
// functions get the kernel speedup without change.
func (r *recordReader) Read(fn func(mapred.Record)) (mapred.TaskStats, error) {
	return r.ReadBatches(func(b *mapred.Batch) { b.Each(fn) })
}

// ReadBatches implements mapred.BatchReader: the split's blocks as a lazy
// batch stream. The batch passed to fn is reused; it is valid only for
// the duration of the call.
func (r *recordReader) ReadBatches(fn func(*mapred.Batch)) (mapred.TaskStats, error) {
	var stats mapred.TaskStats
	for _, b := range r.split.Blocks {
		if err := r.readBlockBatches(b, fn, &stats); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// openReplica fetches the preferred replica's bytes: the one with the
// matching index if the split recorded one (via getHostsWithIndex),
// otherwise the closest available replica.
func (r *recordReader) openReplica(b hdfs.BlockID) ([]byte, hdfs.NodeID, error) {
	if preferred, ok := r.split.Replica[b]; ok {
		data, err := r.cluster.ReadBlockFrom(preferred, b)
		if err == nil {
			return data, preferred, nil
		}
		// Preferred replica unreachable (e.g. node died): fall back to
		// any replica; the access path degrades to a scan if that
		// replica's index does not match (§6.4.3, HAIL vs HAIL-1Idx).
	}
	data, servedBy, err := r.cluster.ReadBlockAny(b, r.node)
	return data, servedBy, err
}

// blockScan is the per-block prologue: the parsed PAX reader and the
// index-resolved candidate row range.
type blockScan struct {
	reader         *pax.Reader
	q              *query.Query
	proj           []int
	fromRow, toRow int
}

// openBlockScan opens block b's preferred replica, parses it, and picks
// the access path: an index scan narrows the candidate range via the
// replica's clustered index when one matches a filter predicate; a full
// scan keeps the whole block. All access-path stats (Blocks, RemoteReads,
// IndexScans/FullScans, IndexBytesRead, PartitionsScanned) are accounted
// here.
func (r *recordReader) openBlockScan(b hdfs.BlockID, stats *mapred.TaskStats) (*blockScan, error) {
	data, servedBy, err := r.openReplica(b)
	if err != nil {
		return nil, err
	}
	if servedBy != r.node {
		stats.RemoteReads++
	}
	stats.Blocks++

	paxData, ixData, err := ParseFrame(data)
	if err != nil {
		return nil, err
	}
	reader, err := pax.NewReader(paxData)
	if err != nil {
		return nil, err
	}
	q := r.query
	if q == nil {
		q = &query.Query{}
	}
	bs := &blockScan{
		reader: reader,
		q:      q,
		proj:   q.ProjectionOrAll(reader.Schema()),
		toRow:  reader.NumRows(),
	}

	indexed := false
	if ixData != nil {
		for _, p := range q.Filter {
			if p.Column != reader.SortColumn() {
				continue
			}
			ix, err := index.Unmarshal(ixData)
			if err != nil {
				return nil, fmt.Errorf("hail: block %d index: %v", b, err)
			}
			// Reading the index costs its bytes plus one seek (§4.3:
			// "we read the index entirely into main memory").
			stats.IndexBytesRead += int64(len(ixData))
			stats.Seeks++
			f, t, ok := ix.PartitionRange(p.Lo, p.Hi)
			indexed = true
			if !ok {
				bs.fromRow, bs.toRow = 0, 0
			} else {
				bs.fromRow, bs.toRow = f, t
			}
			break
		}
	}
	if indexed {
		stats.IndexScans++
	} else {
		stats.FullScans++
	}
	if bs.toRow > bs.fromRow {
		stats.PartitionsScanned += int64((bs.toRow - bs.fromRow + pax.PartitionSize - 1) / pax.PartitionSize)
	}
	return bs, nil
}

// neededColumns returns the distinct columns the scan must touch
// (filter ∪ projection) in ascending order — the read order, so the seek
// count never depends on map iteration order — plus the distinct filter
// columns, also ascending.
func neededColumns(q *query.Query, proj []int) (cols, filterCols []int) {
	need := make(map[int]bool)
	for _, p := range q.Filter {
		if !need[p.Column] {
			need[p.Column] = true
			filterCols = append(filterCols, p.Column)
		}
	}
	sort.Ints(filterCols)
	for _, c := range proj {
		need[c] = true
	}
	cols = make([]int, 0, len(need))
	for c := range need {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	return cols, filterCols
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
	if bs.reader.NumBad() > 0 {
		bad, err := bs.reader.ReadAllBad()
		if err != nil {
			return err
		}
		stats.RecordsDelivered += int64(len(bad))
		stats.BatchesEmitted++
		r.batch.Cols, r.batch.Sel, r.batch.Bad = nil, nil, bad
		fn(&r.batch)
	}
	stats.AddIO(bs.reader.Stats())
	return nil
}

// streamRange drives the candidate row range through the batch pipeline.
// Cursors for every needed column are opened up front in ascending column
// order — that is where all raw reads happen, one contiguous range per
// column — then each batch decodes the filter columns and
// runs the selection-vector kernels. Projection columns are materialized
// at row granularity: when the filters discard part of a batch, the
// projection-only cursors decode (and, for strings, allocate) values for
// the surviving rows alone, and the already-decoded filter columns are
// compacted in place, so every emitted batch is dense. A selective scan
// therefore pays projection decoding proportional to its selectivity,
// not its scan range — the late-materialization payoff.
func (r *recordReader) streamRange(bs *blockScan, fn func(*mapred.Batch), stats *mapred.TaskStats) error {
	cols, filterCols := neededColumns(bs.q, bs.proj)
	sch := bs.reader.Schema()
	cursors := make(map[int]*pax.ColumnCursor, len(cols))
	vecs := make(map[int]*schema.Vector, len(cols))
	for _, col := range cols {
		cur, err := bs.reader.NewColumnCursor(col, bs.fromRow, bs.toRow)
		if err != nil {
			return err
		}
		cursors[col] = cur
		vecs[col] = schema.NewVector(sch.Field(col).Type)
	}
	isFilter := make(map[int]bool, len(filterCols))
	for _, c := range filterCols {
		isFilter[c] = true
	}
	projVecs := make([]*schema.Vector, len(bs.proj))
	for j, c := range bs.proj {
		projVecs[j] = vecs[c]
	}

	for remaining := bs.toRow - bs.fromRow; remaining > 0; {
		n := batchRows
		if n > remaining {
			n = remaining
		}
		remaining -= n
		for _, col := range filterCols {
			if _, err := cursors[col].Next(n, vecs[col]); err != nil {
				return err
			}
		}
		r.sel = bs.q.MatchesBatch(func(c int) *schema.Vector { return vecs[c] }, query.MakeSelection(r.sel, n))
		stats.RecordsScanned += int64(n)
		stats.RowsScanned += int64(n)
		stats.RowsSelected += int64(len(r.sel))
		partial := len(r.sel) > 0 && len(r.sel) < n
		for _, col := range cols {
			if isFilter[col] {
				continue
			}
			var err error
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
		sel := r.sel
		if partial {
			for _, col := range filterCols {
				if isProjected(bs.proj, col) {
					vecs[col].Gather(r.sel)
				}
			}
			r.ident = query.MakeSelection(r.ident, len(r.sel))
			sel = r.ident
		}
		stats.RecordsDelivered += int64(len(sel))
		stats.AttrsDelivered += int64(len(sel) * len(bs.proj))
		stats.BatchesEmitted++
		r.batch.Cols, r.batch.Sel, r.batch.Bad = projVecs, sel, nil
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
