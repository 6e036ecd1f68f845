package mapred

import (
	"math"
	"slices"

	"repro/internal/schema"
)

// Batch is one unit of the record stream every reader yields. A columnar
// reader delivers a run of rows (pax.PartitionSize in the HAIL reader, a
// whole block in the trojan one) as typed vectors of the projected
// attributes, holding only the rows that survived the job's filter — it
// never materializes non-qualifying rows: late materialization at the
// record-reader boundary. A text reader delivers unparsed lines instead
// (Raw).
//
// A batch's records are its rows, then its raw lines, then its bad
// records. HAIL's reader puts a block's bad records in their own final
// batch (Cols empty, Rows 0, Bad set): good rows first, then bad, per
// block.
type Batch struct {
	// Cols holds the projected attributes' vectors, in projection order.
	// Vectors are owned by the reader and reused between batches; a string
	// vector's bytes are a range of the replica being scanned.
	Cols []*schema.Vector
	// Rows is the number of rows the batch delivers: rows 0 to Rows-1 of
	// every vector in Cols. A batch is dense — a reader compacts away the
	// rows its filter dropped before it emits.
	Rows int
	// Raw carries unparsed text lines, each one record: a text reader
	// leaves splitting them to the map function (Hadoop's TextInputFormat,
	// §4.1).
	Raw []string
	// Bad carries schema-violating records, flagged through to the map
	// function (HAIL delivers bad records rather than dropping them,
	// §4.3).
	Bad []string

	scratch schema.Row // Each's row (compat.go)
	text    []byte     // Lines' output, rebuilt per batch
	ends    []int32    // Lines' row-end directory
	offs    []int      // Lines' running offset into each packed column
}

// NumRows returns the number of records the batch delivers: rows, raw
// lines and bad records.
func (b *Batch) NumRows() int { return b.Rows + len(b.Raw) + len(b.Bad) }

// Lines renders the rows as text, straight from the vectors: text holds
// each row's schema.Row.Line(sep) form back to back, and row k is
// text[ends[k-1]:ends[k]] (from 0 for the first). Raw lines and bad
// records are not part of it. The rows are formatted into a scratch the
// batch owns and become one string per batch, so the cost is one
// allocation per batch, not several per row; ends is reused by the next
// call.
//
// A packed string column (schema.Vector.Pack) is copied value after value
// from a running offset, each value's end found as it is copied, and no
// span directory is built; any other column is read by row index
// (AppendText).
//
// A substring of text keeps all of text reachable — about 120 KB for a
// full batch of nine-attribute rows. A chunk holds text whole (Chunk), and
// every retainer of map output (a cache entry, a job result, a haild
// response) holds a block's rows together, so nothing extra stays live; a
// map function that keeps one row in a thousand should clone it.
func (b *Batch) Lines(sep byte) (text string, ends []int32) {
	b.text, b.ends = b.text[:0], slices.Grow(b.ends[:0], b.Rows)
	b.offs = slices.Grow(b.offs[:0], len(b.Cols))[:len(b.Cols)]
	clear(b.offs)
	for i := 0; i < b.Rows; i++ {
		for c, vec := range b.Cols {
			if c > 0 {
				b.text = append(b.text, sep)
			}
			if vec.Packed() {
				b.text, b.offs[c] = vec.AppendPacked(b.text, b.offs[c])
			} else {
				b.text = vec.AppendText(b.text, i)
			}
		}
		b.ends = append(b.ends, int32(len(b.text)))
		if i == 0 {
			// The first row sizes the scratch for the rest, with an eighth
			// to spare: growing it a quarter at a time from nothing would
			// allocate five times the batch.
			b.text = slices.Grow(b.text, len(b.text)*b.Rows*9/8)
		}
	}
	if len(b.text) > math.MaxInt32 {
		panic("mapred: a batch's text exceeds the row-end directory's 2 GiB")
	}
	return string(b.text), b.ends
}

// MapBatchFunc is a map function that consumes whole batches: the form
// every job's map function has. It writes the batch's output to out.
type MapBatchFunc func(b *Batch, out Emitter)

// BatchReader is the record reader of one split, the one shape every input
// format's reader has: it streams the split's records as batches, block
// after block, and accumulates its real I/O into the returned stats. The
// batch passed to fn (and its vectors) is only valid for the duration of
// the call.
type BatchReader interface {
	ReadBatches(fn func(*Batch)) (TaskStats, error)
}
