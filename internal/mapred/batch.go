package mapred

import "repro/internal/schema"

// Batch is one unit of the vectorized record stream: a fixed-size run of
// rows (pax.PartitionSize in the HAIL reader) in columnar form, plus the
// selection vector of rows that survived the job's filter. Record readers
// that stream batches deliver the projected attributes as typed vectors
// and never materialize non-qualifying rows — late materialization at the
// record-reader boundary.
//
// Bad records ride in their own final batch per block (Cols and Sel
// empty, Bad set): good rows first, then bad, per block.
type Batch struct {
	// Cols holds the projected attributes' vectors, in projection order.
	// Vectors are owned by the reader and reused between batches.
	Cols []*schema.Vector
	// Sel is the selection vector: ascending row indexes into Cols'
	// vectors for the rows that satisfy the filter.
	Sel []int32
	// Bad carries schema-violating records, flagged through to the map
	// function (HAIL delivers bad records rather than dropping them,
	// §4.3).
	Bad []string

	scratch schema.Row
}

// NumRows returns the number of records the batch delivers (selected
// good rows plus bad records).
func (b *Batch) NumRows() int { return len(b.Sel) + len(b.Bad) }

// Each materializes the batch record by record — the row-compat shim that
// lets every existing MapFunc consume the batch stream unchanged. The
// Record's Row is a scratch buffer reused across calls (Hadoop's object
// reuse contract): it is valid only for the duration of fn and must be
// copied to be retained.
func (b *Batch) Each(fn func(Record)) {
	if len(b.Sel) > 0 {
		if cap(b.scratch) < len(b.Cols) {
			b.scratch = make(schema.Row, len(b.Cols))
		}
		row := b.scratch[:len(b.Cols)]
		for _, i := range b.Sel {
			for c, vec := range b.Cols {
				row[c] = vec.Value(int(i))
			}
			fn(Record{Row: row})
		}
	}
	for _, line := range b.Bad {
		fn(Record{Raw: line, Bad: true})
	}
}

// MapBatchFunc is a map function that consumes whole batches. It must be
// observationally identical to the job's MapFunc applied to Each's record
// stream — the engine caches block results under the job's MapSig without
// distinguishing which form computed them.
type MapBatchFunc func(b *Batch, emit Emit)

// BatchReader is implemented by record readers that can stream batches
// instead of records. The batch passed to fn (and its vectors) is only
// valid for the duration of the call.
type BatchReader interface {
	ReadBatches(fn func(*Batch)) (TaskStats, error)
}
