// Package pax implements the PAX (Partition Attributes Across) block layout
// HAIL uses for every block replica (paper §2.2, §3.1, §3.5).
//
// A Block holds the parsed rows of one HDFS block column-wise: all values of
// attribute 0, then all values of attribute 1, and so on. Records that did
// not parse against the schema ("bad records") are kept verbatim in a
// dedicated section of the block and are delivered, flagged, to the map
// function at query time.
//
// Fixed-size attributes are stored as packed little-endian values.
// Variable-size attributes are stored as zero-terminated byte strings,
// preceded by a sparse offset list holding the position of every n-th value
// (n = PartitionSize), exactly as described in §3.5 "Accessing Variable-size
// Attributes": tuple reconstruction for row r starts at offset[r/n] and
// skips r%n terminators.
//
// A Reader looks at a serialized block through a RangeSource — the block's
// bytes in memory (NewReader) or a window of any store that serves byte
// ranges (OpenAt; the record reader passes an hdfs replica view) —
// and asks it only for the header and the ranges a caller reads.
//
// A Block holds its columns in the serialized form's own layout — packed
// little-endian bytes, zero-terminated strings behind a row directory, the
// bad-record section as stored — so Unmarshal validates and aliases its
// input instead of decoding it, AppendLine parses text straight into them,
// and View shares them between blocks that differ only in their row order.
// Sort sorts (key, row) pairs of the sort column and records the order as
// a permutation; it moves no value bytes. Marshal writes the header and
// then each column once, gathered through that permutation straight into
// the output.
//
// Reading has two granularities. Reader.ReadColumnRange boxes a row range
// into []schema.Value eagerly — what the scan tests' row oracle reads
// with. ColumnCursor is the
// vectorized access path: it performs the same raw reads (same bytes,
// same seeks) once at creation, then decodes lazily, batch by batch, into
// reused typed schema.Vectors; NextSelected decodes only the rows a
// selection vector kept, which is what makes late materialization pay on
// selective scans — skipped string values are walked past, never
// allocated.
package pax

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/schema"
)

// PartitionSize is the number of rows per logical index partition. Sparse
// offset lists for variable-size attributes and the sparse clustered index
// both use this granularity (paper §3.5: "partitions consisting of 1,024
// values").
const PartitionSize = 1024

// column is one attribute's values, laid out as Marshal writes them.
type column struct {
	typ schema.Type
	// data is the packed little-endian values of a fixed-size attribute, or
	// the zero-terminated values of a string attribute back to back.
	data []byte
	// starts is a string attribute's row directory: row r's value and its
	// terminator are data[starts[r]:starts[r+1]], so it holds one entry
	// more than there are rows. Nil for fixed-size attributes.
	starts []uint32
	// nul records that a string value holds a zero byte besides its
	// terminator. Only AppendRow can store one: AppendLine's parser rejects
	// the line, and Unmarshal's terminator scan rules it out.
	nul bool
}

// append adds one value of the column's type.
func (c *column) append(v schema.Value) {
	if c.typ != schema.String {
		c.data = schema.AppendFixed(c.data, c.typ, v.Bits())
		return
	}
	c.nul = c.nul || strings.IndexByte(v.Str(), 0) >= 0
	c.appendString(v.Str())
}

// appendText parses one field's text straight into the column.
func (c *column) appendText(text string) error {
	if c.typ == schema.String {
		c.appendString(text)
		return nil
	}
	bits, err := schema.ParseFixed(c.typ, text)
	if err != nil {
		return err
	}
	c.data = schema.AppendFixed(c.data, c.typ, bits)
	return nil
}

// appendString adds a string value and its terminator.
func (c *column) appendString(s string) {
	c.data = append(append(c.data, s...), 0)
	c.starts = append(c.starts, uint32(len(c.data)))
}

// truncate drops every value past the column's first rows.
func (c *column) truncate(rows int) {
	if c.typ == schema.String {
		c.starts = c.starts[:rows+1]
		c.data = c.data[:c.starts[rows]]
		return
	}
	c.data = c.data[:rows*c.typ.Width()]
}

// str returns row i's bytes, without the terminator, aliasing the column.
func (c *column) str(i int) []byte { return c.data[c.starts[i] : c.starts[i+1]-1] }

func (c *column) value(i int) schema.Value {
	if c.typ == schema.String {
		return schema.StringVal(string(c.str(i)))
	}
	return schema.FixedValue(c.typ, schema.LoadFixed(c.typ, c.data[i*c.typ.Width():]))
}

// Block is an in-memory PAX block: the unit HAIL sorts, indexes and flushes.
//
// A block returned by Unmarshal aliases the bytes it was decoded from and
// never writes to them: its slices are cap-limited, so appending copies
// first, and Sort only records an order.
type Block struct {
	sch     *schema.Schema
	cols    []column
	numRows int
	bad     []byte // bad records, verbatim input lines: {len uint32, bytes} each
	numBad  int
	// sortCol is the attribute the good rows are clustered on, or -1.
	sortCol int
	// perm is the block's row order: logical row r is stored at physical
	// row perm[r] of every column. Nil means arrival order. Sort sets it;
	// every accessor and Marshal read through it.
	perm []uint32
	// order and dirs are the pooled arrays this block borrowed for its
	// last Sort's row order and for UnmarshalPooled's row directories;
	// Release returns them. A view or a clone borrows nothing.
	order, dirs *[]uint32
	// aliased marks arenas that belong to Unmarshal's caller: Reset drops
	// them where it would otherwise keep them to be overwritten.
	aliased bool
}

// NewBlock returns an empty block for the given schema.
func NewBlock(s *schema.Schema) *Block {
	b := &Block{sch: s, cols: make([]column, s.NumFields())}
	for i := range b.cols {
		b.cols[i].typ = s.Field(i).Type
	}
	b.Reset()
	return b
}

// Reset empties the block, keeping its arenas for the rows to come.
func (b *Block) Reset() {
	if b.aliased {
		for i := range b.cols {
			b.cols[i].data, b.cols[i].starts = nil, nil
		}
		b.bad, b.aliased = nil, false
	}
	for i := range b.cols {
		c := &b.cols[i]
		c.data, c.nul = c.data[:0], false
		if c.typ == schema.String {
			c.starts = append(c.starts[:0], 0)
		}
	}
	b.numRows, b.bad, b.numBad, b.sortCol, b.perm = 0, b.bad[:0], 0, -1, nil
}

// Schema returns the block's schema.
func (b *Block) Schema() *schema.Schema { return b.sch }

// NumRows returns the number of good (parsed) rows.
func (b *Block) NumRows() int { return b.numRows }

// NumBad returns the number of bad records.
func (b *Block) NumBad() int { return b.numBad }

// SortColumn returns the attribute index the rows are clustered on, or -1
// if the block is in arrival order.
func (b *Block) SortColumn() int { return b.sortCol }

// ErrTooLarge reports that a row would take a column past the 4 GiB a
// block's row directory and serialized form can address. It fails an
// upload; it does not make the row a bad record.
var ErrTooLarge = errors.New("pax: block too large")

// AppendRow adds one parsed row. The row must match the schema. On a
// sorted block it first moves every column into its sorted order, since a
// new row goes behind the sorted ones. bench/ and tests build blocks with
// it; the upload parses text with AppendLine.
func (b *Block) AppendRow(r schema.Row) error {
	if len(r) != len(b.cols) {
		return fmt.Errorf("pax: row has %d values, schema has %d", len(r), len(b.cols))
	}
	for i := range r {
		c := &b.cols[i]
		if r[i].Type() != c.typ {
			return fmt.Errorf("pax: row value %d is %s, schema wants %s", i, r[i].Type(), c.typ)
		}
		// The row directory, like the serialized block, counts in uint32.
		if c.typ == schema.String && len(c.data)+len(r[i].Str())+1 > math.MaxUint32 {
			return fmt.Errorf("%w: column %d would pass %d bytes", ErrTooLarge, i, math.MaxUint32)
		}
	}
	b.materialize()
	for i := range r {
		b.cols[i].append(r[i])
	}
	b.numRows++
	b.sortCol = -1
	return nil
}

// AppendLine parses one text line with p straight into the block's
// arenas — a string's bytes and its terminator, a fixed-size value's
// little-endian bits — and leaves the block as AppendRow of p.ParseLine's
// row would. It is the upload's fast path: one pass over the line cuts
// each string at the separator and parses each fixed-size value with
// schema.ScanFixed while finding its end, with no call per field and no
// row. A line the pass does not take — a NUL, a value in another form, a
// field count that does not fit, or a separator a value can hold — is
// truncated off and parsed again with ParseLine's own reference, p.Split
// and schema.ParseFixed. So AppendLine accepts exactly the lines ParseLine
// accepts and stores the same bits (FuzzAppendLine); a rejected line
// returns p's error and leaves the block's rows as they were, a bad record
// for the caller to keep with AppendBad. ErrTooLarge is returned as
// AppendRow returns it, after the line has parsed.
func (b *Block) AppendLine(p *schema.Parser, line string) error {
	if !p.Schema.Equal(b.sch) {
		return fmt.Errorf("pax: parser schema %s, block schema %s", p.Schema, b.sch)
	}
	b.materialize()
	var err error
	if !b.appendScanned(p.Sep, line) {
		b.truncate()
		err = p.Split(line, func(i int, text string) error { return b.cols[i].appendText(text) })
	}
	for i := 0; err == nil && i < len(b.cols); i++ {
		if len(b.cols[i].data) > math.MaxUint32 {
			err = fmt.Errorf("%w: column %d would pass %d bytes", ErrTooLarge, i, math.MaxUint32)
		}
	}
	if err != nil {
		b.truncate()
		return err
	}
	b.numRows++
	b.sortCol = -1
	return nil
}

// appendScanned is AppendLine's one pass. It reports false, with part of
// the line possibly appended, when the line needs the reference parser.
// The separator must be one no scanned value holds, so that a value ends
// where Split cuts the field; and no line may hold a NUL, which Split
// rejects wherever it is.
func (b *Block) appendScanned(sep byte, line string) bool {
	if sep == 0 || sep-'0' <= 9 || sep == '+' || sep == '-' || sep == '.' || strings.IndexByte(line, 0) >= 0 {
		return false
	}
	last := len(b.cols) - 1
	rest := line
	for i := range b.cols {
		c := &b.cols[i]
		if c.typ == schema.String {
			text := rest
			if i < last {
				j := strings.IndexByte(rest, sep)
				if j < 0 {
					return false
				}
				text, rest = rest[:j], rest[j+1:]
			}
			c.appendString(text)
			continue
		}
		bits, n, ok := schema.ScanFixed(c.typ, rest)
		if !ok {
			return false
		}
		if i < last {
			if n == len(rest) || rest[n] != sep {
				return false
			}
			rest = rest[n+1:]
		} else if n != len(rest) {
			return false
		}
		c.data = schema.AppendFixed(c.data, c.typ, bits)
	}
	return true
}

// truncate drops whatever a line appended past row numRows.
func (b *Block) truncate() {
	for i := range b.cols {
		b.cols[i].truncate(b.numRows)
	}
}

// AppendBad adds one bad record (the unparsed input line).
func (b *Block) AppendBad(line string) {
	b.bad = append(binary.LittleEndian.AppendUint32(b.bad, uint32(len(line))), line...)
	b.numBad++
}

// BadRecord returns the i-th bad record.
func (b *Block) BadRecord(i int) string {
	sec := b.bad
	for ; i > 0; i-- {
		sec = sec[4+binary.LittleEndian.Uint32(sec):]
	}
	return string(sec[4 : 4+binary.LittleEndian.Uint32(sec)])
}

// physical returns the column position of logical row r.
func (b *Block) physical(r int) int {
	if b.perm == nil {
		return r
	}
	return int(b.perm[r])
}

// Value returns the value of attribute col in row r.
func (b *Block) Value(r, col int) schema.Value { return b.cols[col].value(b.physical(r)) }

// Row materializes row r across all attributes (a test oracle).
func (b *Block) Row(r int) schema.Row {
	row := make(schema.Row, len(b.cols))
	p := b.physical(r)
	for i := range b.cols {
		row[i] = b.cols[i].value(p)
	}
	return row
}

// View returns a block over b's rows that shares b's arenas, row
// directories and row order without copying them: it can be sorted, read
// and marshalled on its own, concurrently with b and with b's other views,
// while nobody appends to or resets b. It is what a pipeline builds its
// replicas from: one validated block, one view — one sort order — per
// replica. Appending to a view copies its columns first, as appending to an
// Unmarshal'd block does.
func (b *Block) View() *Block {
	v := *b
	v.cols = make([]column, len(b.cols))
	for i, c := range b.cols {
		v.cols[i] = column{typ: c.typ, data: slices.Clip(c.data), starts: slices.Clip(c.starts), nul: c.nul}
	}
	v.bad, v.aliased = slices.Clip(b.bad), true
	v.order, v.dirs = nil, nil
	return &v
}

// Release returns the arrays the block borrowed from the package's pool —
// its row order if Sort made it, its row directories if UnmarshalPooled
// made them — for the next block to reuse. Neither the block nor any view
// of it may be used afterwards.
func (b *Block) Release() {
	for _, buf := range []*[]uint32{b.order, b.dirs} {
		if buf != nil {
			u32Bufs.Put(buf)
		}
	}
	b.order, b.dirs, b.perm, b.cols = nil, nil, nil, nil
}

// materialize rewrites every column in the block's row order into fresh
// arenas and drops the permutation.
func (b *Block) materialize() {
	if b.perm == nil {
		return
	}
	for i := range b.cols {
		c := &b.cols[i]
		data := c.appendGathered(make([]byte, 0, len(c.data)), b.perm)
		if c.typ == schema.String {
			starts := make([]uint32, len(c.starts))
			for r, p := range b.perm {
				starts[r+1] = starts[r] + c.starts[p+1] - c.starts[p]
			}
			c.starts = starts
		}
		c.data = data
	}
	b.perm = nil
}

// ColumnBytes returns the serialized size in bytes of attribute col,
// including the sparse offset list for variable-size attributes.
func (b *Block) ColumnBytes(col int) int {
	c := &b.cols[col]
	if c.typ.FixedSize() {
		return len(c.data)
	}
	return numPartitions(b.numRows)*4 + len(c.data)
}

// numPartitions returns the number of PartitionSize-row partitions needed
// to cover n rows.
func numPartitions(n int) int { return (n + PartitionSize - 1) / PartitionSize }
