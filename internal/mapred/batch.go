package mapred

import (
	"math"
	"slices"

	"repro/internal/schema"
)

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
	// Vectors are owned by the reader and reused between batches; a string
	// vector's bytes are a range of the replica being scanned.
	Cols []*schema.Vector
	// Sel is the selection vector: ascending row indexes into Cols'
	// vectors for the rows that satisfy the filter.
	Sel []int32
	// Bad carries schema-violating records, flagged through to the map
	// function (HAIL delivers bad records rather than dropping them,
	// §4.3).
	Bad []string
	// Expect, if positive, is the reader's estimate of the records its
	// current block delivers in all, this batch and the ones before it
	// included. The engine sizes the block's output by it once instead of
	// growing it batch by batch; a wrong estimate costs memory, never
	// output.
	Expect int

	scratch schema.Row // Each's row
	text    []byte     // Lines' output, rebuilt per batch
	ends    []int32    // Lines' row-end directory
}

// NumRows returns the number of records the batch delivers (selected
// good rows plus bad records).
func (b *Batch) NumRows() int { return len(b.Sel) + len(b.Bad) }

// Each materializes the batch record by record — the row-compat shim that
// lets every existing MapFunc consume the batch stream unchanged. The
// Record's Row is a scratch buffer reused across calls (Hadoop's object
// reuse contract): it is valid only for the duration of fn and must be
// copied to be retained. Boxing costs one allocation per string value
// (schema.Vector.Value); a map function that only wants the rows' text
// should use Lines.
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

// Lines renders the selected rows as text, straight from the vectors: text
// holds each row's schema.Row.Line(sep) form back to back, in selection
// order, and row k is text[ends[k-1]:ends[k]] (from 0 for the first). Bad
// records are not part of it. The rows are formatted into a scratch the
// batch owns and become one string per batch, so the cost is one
// allocation per batch, not several per row; ends is reused by the next
// call.
//
// A substring of text keeps all of text reachable — about 120 KB for a
// full batch of nine-attribute rows. Every retainer of map output today
// (a cache entry, a job result, a haild response) holds a block's rows
// together, so nothing extra stays live; a map function that keeps one
// row in a thousand should clone it.
func (b *Batch) Lines(sep byte) (text string, ends []int32) {
	b.text, b.ends = b.text[:0], slices.Grow(b.ends[:0], len(b.Sel))
	for k, i := range b.Sel {
		for c, vec := range b.Cols {
			if c > 0 {
				b.text = append(b.text, sep)
			}
			b.text = vec.AppendText(b.text, int(i))
		}
		b.ends = append(b.ends, int32(len(b.text)))
		if k == 0 {
			// The first row sizes the scratch for the rest, with an eighth
			// to spare: growing it a quarter at a time from nothing would
			// allocate five times the batch.
			b.text = slices.Grow(b.text, len(b.text)*len(b.Sel)*9/8)
		}
	}
	if len(b.text) > math.MaxInt32 {
		panic("mapred: a batch's text exceeds the row-end directory's 2 GiB")
	}
	return string(b.text), b.ends
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
