package trojan

import (
	"repro/internal/hadoop"
	"repro/internal/hdfs"
	"repro/internal/mapred"
	"repro/internal/query"
	"repro/internal/schema"
)

// InputFormat is Hadoop++'s input format over converted trojan blocks:
// one split per block, always. Unlike HAIL, the split phase must read each
// block's header to learn about the index (§6.4.1), which delays job
// start; and since all replicas are identical, scheduling is plain
// locality scheduling.
type InputFormat struct {
	System *System
	Query  *query.Query
}

// Splits creates Hadoop's one split per block over the trojan blocks, and
// reads each block's header (the cost HAIL avoids by keeping index
// metadata in the namenode); the returned stats are those header reads.
// The cache probe plans nothing.
func (f *InputFormat) Splits(file string, _ func(hdfs.BlockID) (hdfs.NodeID, bool)) ([]mapred.Split, mapred.TaskStats, error) {
	splits, stats, err := (&hadoop.TextInputFormat{Cluster: f.System.Cluster}).Splits(binaryFile(file), nil)
	if err != nil {
		return nil, stats, err
	}
	for _, s := range splits {
		// Header read: one seek plus a few hundred bytes per block.
		data, _, err := f.System.Cluster.ReadBlock(s.Blocks[0], 0)
		if err != nil {
			return nil, mapred.TaskStats{}, err
		}
		r, err := NewBlockReader(data)
		if err != nil {
			return nil, mapred.TaskStats{}, err
		}
		stats.Seeks++
		stats.BytesRead += int64(r.HeaderBytes())
	}
	return splits, stats, nil
}

// Open returns the trojan record reader.
func (f *InputFormat) Open(split mapred.Split, node hdfs.NodeID) (mapred.BatchReader, error) {
	return &recordReader{format: f, split: split, node: node}, nil
}

// recordReader is Hadoop++'s itemize UDF: an index scan over the row
// layout when the filter matches the trojan index attribute, a full binary
// scan otherwise. Row layout means every touched row is read completely —
// projection saves no I/O (contrast with HAIL's PAX column ranges). The
// qualifying rows' projected values are appended to typed vectors and
// delivered as one batch per block. Blocks are read whole (ReadBlock:
// verified, not copied); the stats count what the cost model charges.
type recordReader struct {
	format *InputFormat
	split  mapred.Split
	node   hdfs.NodeID
	batch  mapred.Batch // reused across blocks; fn must not retain it
}

func (r *recordReader) ReadBatches(fn func(*mapred.Batch)) (mapred.TaskStats, error) {
	var stats mapred.TaskStats
	q := r.format.Query
	if q == nil {
		q = &query.Query{}
	}
	for _, b := range r.split.Blocks {
		data, servedBy, err := r.format.System.Cluster.ReadBlock(b, r.node)
		if err != nil {
			return stats, err
		}
		if servedBy != r.node {
			stats.RemoteReads++
		}
		stats.Blocks++
		br, err := NewBlockReader(data)
		if err != nil {
			return stats, err
		}
		sch := br.Schema()
		proj := q.ProjectionOrAll(sch)
		cols := make([]*schema.Vector, len(proj))
		for j, c := range proj {
			cols[j] = schema.NewVector(sch.Field(c).Type)
		}
		delivered := 0

		// Pick the access path.
		byteOff, fromRow, toRow := 0, 0, br.NumRows()
		indexed := false
		if br.SortColumn() >= 0 {
			for _, p := range q.Filter {
				if p.Column != br.SortColumn() {
					continue
				}
				indexed = true
				// Reading the (dense) trojan index costs its full size.
				stats.IndexBytesRead += int64(br.IndexBytes())
				stats.Seeks++
				off, f2, t2, ok, err := br.LookupRange(p.Lo, p.Hi)
				if err != nil {
					return stats, err
				}
				if !ok {
					byteOff, fromRow, toRow = 0, 0, 0
				} else {
					byteOff, fromRow, toRow = off, f2, t2
				}
				break
			}
		}
		if indexed {
			stats.IndexScans++
		} else {
			stats.FullScans++
		}

		if toRow > fromRow {
			stats.Seeks++
			bytes, err := br.ScanRange(byteOff, fromRow, toRow, func(rowID int, row schema.Row) error {
				stats.RecordsScanned++
				if !q.MatchesRow(row) {
					return nil
				}
				for j, c := range proj {
					cols[j].Append(row[c])
				}
				delivered++
				return nil
			})
			stats.BytesRead += bytes
			if err != nil {
				return stats, err
			}
		}
		if delivered > 0 {
			stats.RecordsDelivered += int64(delivered)
			stats.AttrsDelivered += int64(delivered * len(proj))
			r.batch.Cols, r.batch.Rows = cols, delivered
			fn(&r.batch)
		}
	}
	return stats, nil
}
