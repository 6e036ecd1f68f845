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
// ranges (NewReaderAt; the record reader passes an hdfs replica view) —
// and asks it only for the header and the ranges a caller reads.
//
// Reading has two granularities. Reader.ReadColumnRange boxes a row range
// into []schema.Value eagerly — what Unmarshal rebuilds a Block from, and
// what the scan tests' row oracle reads with. ColumnCursor is the
// vectorized access path: it performs the same raw reads (same bytes,
// same seeks) once at creation, then decodes lazily, batch by batch, into
// reused typed schema.Vectors; NextSelected decodes only the rows a
// selection vector kept, which is what makes late materialization pay on
// selective scans — skipped string values are walked past, never
// allocated.
package pax

import (
	"fmt"
	"sort"

	"repro/internal/schema"
)

// PartitionSize is the number of rows per logical index partition. Sparse
// offset lists for variable-size attributes and the sparse clustered index
// both use this granularity (paper §3.5: "partitions consisting of 1,024
// values").
const PartitionSize = 1024

// column is the in-memory representation of one attribute's values.
type column struct {
	typ schema.Type
	i32 []int32 // Int32, Date
	i64 []int64
	f64 []float64
	str []string
}

func newColumn(t schema.Type) *column { return &column{typ: t} }

func (c *column) len() int {
	switch c.typ {
	case schema.Int32, schema.Date:
		return len(c.i32)
	case schema.Int64:
		return len(c.i64)
	case schema.Float64:
		return len(c.f64)
	case schema.String:
		return len(c.str)
	}
	return 0
}

func (c *column) append(v schema.Value) {
	switch c.typ {
	case schema.Int32, schema.Date:
		c.i32 = append(c.i32, int32(v.Long()))
	case schema.Int64:
		c.i64 = append(c.i64, v.Long())
	case schema.Float64:
		c.f64 = append(c.f64, v.Float())
	case schema.String:
		c.str = append(c.str, v.Str())
	}
}

func (c *column) value(i int) schema.Value {
	switch c.typ {
	case schema.Int32:
		return schema.IntVal(c.i32[i])
	case schema.Date:
		return schema.DateVal(c.i32[i])
	case schema.Int64:
		return schema.LongVal(c.i64[i])
	case schema.Float64:
		return schema.FloatVal(c.f64[i])
	case schema.String:
		return schema.StringVal(c.str[i])
	}
	panic("pax: invalid column type")
}

// compare orders the values at rows i and j.
func (c *column) compare(i, j int) int {
	switch c.typ {
	case schema.Int32, schema.Date:
		a, b := c.i32[i], c.i32[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case schema.Int64:
		a, b := c.i64[i], c.i64[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case schema.Float64:
		a, b := c.f64[i], c.f64[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	case schema.String:
		a, b := c.str[i], c.str[j]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
		return 0
	}
	panic("pax: invalid column type")
}

// permute reorders the column in place so that new position i holds the
// value previously at perm[i].
func (c *column) permute(perm []int) {
	switch c.typ {
	case schema.Int32, schema.Date:
		out := make([]int32, len(c.i32))
		for i, p := range perm {
			out[i] = c.i32[p]
		}
		c.i32 = out
	case schema.Int64:
		out := make([]int64, len(c.i64))
		for i, p := range perm {
			out[i] = c.i64[p]
		}
		c.i64 = out
	case schema.Float64:
		out := make([]float64, len(c.f64))
		for i, p := range perm {
			out[i] = c.f64[p]
		}
		c.f64 = out
	case schema.String:
		out := make([]string, len(c.str))
		for i, p := range perm {
			out[i] = c.str[p]
		}
		c.str = out
	}
}

// Block is an in-memory PAX block: the unit HAIL sorts, indexes and flushes.
type Block struct {
	sch  *schema.Schema
	cols []*column
	bad  []string // bad records, verbatim input lines
	// sortCol is the attribute the good rows are clustered on, or -1.
	sortCol int
}

// NewBlock returns an empty block for the given schema.
func NewBlock(s *schema.Schema) *Block {
	cols := make([]*column, s.NumFields())
	for i := 0; i < s.NumFields(); i++ {
		cols[i] = newColumn(s.Field(i).Type)
	}
	return &Block{sch: s, cols: cols, sortCol: -1}
}

// Schema returns the block's schema.
func (b *Block) Schema() *schema.Schema { return b.sch }

// NumRows returns the number of good (parsed) rows.
func (b *Block) NumRows() int { return b.cols[0].len() }

// NumBad returns the number of bad records.
func (b *Block) NumBad() int { return len(b.bad) }

// SortColumn returns the attribute index the rows are clustered on, or -1
// if the block is in arrival order.
func (b *Block) SortColumn() int { return b.sortCol }

// AppendRow adds one parsed row. The row must match the schema.
func (b *Block) AppendRow(r schema.Row) error {
	if len(r) != len(b.cols) {
		return fmt.Errorf("pax: row has %d values, schema has %d", len(r), len(b.cols))
	}
	for i, v := range r {
		want := b.sch.Field(i).Type
		if v.Type() != want {
			return fmt.Errorf("pax: row value %d is %s, schema wants %s", i, v.Type(), want)
		}
	}
	for i, v := range r {
		b.cols[i].append(v)
	}
	b.sortCol = -1
	return nil
}

// AppendBad adds one bad record (the unparsed input line).
func (b *Block) AppendBad(line string) { b.bad = append(b.bad, line) }

// BadRecord returns the i-th bad record.
func (b *Block) BadRecord(i int) string { return b.bad[i] }

// Value returns the value of attribute col in row r.
func (b *Block) Value(r, col int) schema.Value { return b.cols[col].value(r) }

// Row materializes row r across all attributes.
func (b *Block) Row(r int) schema.Row {
	row := make(schema.Row, len(b.cols))
	for i, c := range b.cols {
		row[i] = c.value(r)
	}
	return row
}

// Rows materializes every good row (test helper; O(rows × cols)).
func (b *Block) Rows() []schema.Row {
	out := make([]schema.Row, b.NumRows())
	for i := range out {
		out[i] = b.Row(i)
	}
	return out
}

// SortBy clusters the block on attribute col: it stable-sorts the rows by
// that attribute and applies the resulting permutation (the paper's "sort
// index") to every column, preserving row integrity. It returns the
// permutation so callers can account for the reorganization cost.
func (b *Block) SortBy(col int) ([]int, error) {
	if col < 0 || col >= len(b.cols) {
		return nil, fmt.Errorf("pax: sort column %d out of range [0,%d)", col, len(b.cols))
	}
	n := b.NumRows()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	key := b.cols[col]
	sort.SliceStable(perm, func(i, j int) bool { return key.compare(perm[i], perm[j]) < 0 })
	for _, c := range b.cols {
		c.permute(perm)
	}
	b.sortCol = col
	return perm, nil
}

// Clone deep-copies the block. Each replica of a block starts from the same
// logical content and is then sorted independently (paper §3.2).
func (b *Block) Clone() *Block {
	nb := NewBlock(b.sch)
	nb.sortCol = b.sortCol
	for i, c := range b.cols {
		nc := nb.cols[i]
		nc.i32 = append(nc.i32, c.i32...)
		nc.i64 = append(nc.i64, c.i64...)
		nc.f64 = append(nc.f64, c.f64...)
		nc.str = append(nc.str, c.str...)
	}
	nb.bad = append(nb.bad, b.bad...)
	return nb
}

// ColumnBytes returns the serialized size in bytes of attribute col,
// including the sparse offset list for variable-size attributes.
func (b *Block) ColumnBytes(col int) int {
	c := b.cols[col]
	n := c.len()
	if c.typ.FixedSize() {
		return n * c.typ.Width()
	}
	sz := numPartitions(n) * 4 // sparse offset list, one uint32 per partition
	for _, s := range c.str {
		sz += len(s) + 1 // zero-terminated
	}
	return sz
}

// numPartitions returns the number of PartitionSize-row partitions needed
// to cover n rows.
func numPartitions(n int) int { return (n + PartitionSize - 1) / PartitionSize }
