package pax

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/schema"
)

// ColumnCursor decodes one column's candidate row range batch by batch —
// the access path of the vectorized scan pipeline. The raw column bytes
// are read (and accounted) once, at cursor creation, with exactly the
// same read sequence ReadColumnRange performs: one contiguous range per
// fixed-size column, the sparse offset list plus one partition-bounded
// value range for variable-size columns. A serialized block therefore
// costs the same bytes and seeks whether a range is boxed eagerly or
// streamed in batches; what the cursor changes is decoding, which happens
// lazily, PartitionSize rows at a time, into a reused typed Vector
// instead of boxing the whole range into []schema.Value up front.
type ColumnCursor struct {
	typ schema.Type
	col int    // the attribute, for error messages
	raw []byte // the column's value bytes for the (partition-aligned) range

	// Fixed-size columns: raw holds exactly the requested rows.
	width int
	pos   int // next undecoded row, as an index into raw/width

	// Variable-size columns: raw starts at a partition boundary at or
	// before fromRow; bpos is the next undecoded byte. long is set when the
	// range's values are long enough on average for term to find their
	// terminators with bytes.IndexByte (see longTerm).
	bpos int
	long bool

	remaining int // rows left to deliver
}

// NewColumnCursor opens a cursor over attribute col for rows [fromRow,
// toRow). All raw reads (and their IOStats) happen here, in the same
// order ReadColumnRange would issue them, so creating cursors for several
// columns in ascending column order costs exactly the seeks of reading
// those columns' ranges eagerly.
func (r *Reader) NewColumnCursor(col, fromRow, toRow int) (*ColumnCursor, error) {
	if col < 0 || col >= r.sch.NumFields() {
		return nil, fmt.Errorf("pax: column %d out of range", col)
	}
	if fromRow < 0 || toRow > r.numRows || fromRow > toRow {
		return nil, fmt.Errorf("pax: row range [%d,%d) out of bounds (rows=%d)", fromRow, toRow, r.numRows)
	}
	t := r.sch.Field(col).Type
	c := &ColumnCursor{typ: t, col: col, remaining: toRow - fromRow}
	if fromRow == toRow {
		return c, nil
	}
	if t.FixedSize() {
		c.width = t.Width()
		raw, err := r.raw(r.colOff[col]+fromRow*c.width, (toRow-fromRow)*c.width)
		if err != nil {
			return nil, err
		}
		c.raw = raw
		return c, nil
	}

	// Variable-size: replicate readStringRange's reads, then skip the
	// partition-alignment prefix so Next starts delivering at fromRow.
	nParts := numPartitions(r.numRows)
	valBase := r.colOff[col] + nParts*4
	valLen := r.colLen[col] - nParts*4
	pFrom := fromRow / PartitionSize
	pTo := (toRow - 1) / PartitionSize
	offRaw, err := r.raw(r.colOff[col]+pFrom*4, (pTo-pFrom+1)*4)
	if err != nil {
		return nil, err
	}
	startOff := int(binary.LittleEndian.Uint32(offRaw[0:]))
	endOff := valLen
	if (pTo+1)*PartitionSize < r.numRows {
		tail, err := r.raw(r.colOff[col]+(pTo+1)*4, 4)
		if err != nil {
			return nil, err
		}
		endOff = int(binary.LittleEndian.Uint32(tail))
	}
	raw, err := r.raw(valBase+startOff, endOff-startOff)
	if err != nil {
		return nil, err
	}
	c.raw = raw
	c.long = len(raw) >= longTerm*(min((pTo+1)*PartitionSize, r.numRows)-pFrom*PartitionSize)
	if err := c.skip(fromRow - pFrom*PartitionSize); err != nil {
		return nil, err
	}
	return c, nil
}

// Remaining returns the rows the cursor has yet to deliver.
func (c *ColumnCursor) Remaining() int { return c.remaining }

// Run finds by binary search the run of the cursor's remaining rows whose
// values satisfy lo <= v <= hi, where a nil bound is unbounded. The column
// must be sorted ascending over those rows, as a replica's sort column is.
// Rows are counted from the cursor's position: the run is [from, to), and
// the cursor does not move. Run compares in the column's native type,
// exactly as query.Predicate.FilterVector does, so the run holds that
// kernel's survivors. ok is false for a variable-size column, which has
// no fixed stride to search.
func (c *ColumnCursor) Run(lo, hi *schema.Value) (from, to int, ok bool) {
	raw := c.raw[c.pos*c.width:]
	switch c.typ {
	case schema.Int32, schema.Date:
		l, h := int32(math.MinInt32), int32(math.MaxInt32)
		if lo != nil {
			l = int32(lo.Long())
		}
		if hi != nil {
			h = int32(hi.Long())
		}
		from, to = searchRun(c.remaining, func(i int) int32 { return int32(binary.LittleEndian.Uint32(raw[i*4:])) }, l, h)
	case schema.Int64:
		l, h := int64(math.MinInt64), int64(math.MaxInt64)
		if lo != nil {
			l = lo.Long()
		}
		if hi != nil {
			h = hi.Long()
		}
		from, to = searchRun(c.remaining, func(i int) int64 { return int64(binary.LittleEndian.Uint64(raw[i*8:])) }, l, h)
	case schema.Float64:
		l, h := math.Inf(-1), math.Inf(1)
		if lo != nil {
			l = lo.Float()
		}
		if hi != nil {
			h = hi.Float()
		}
		from, to = searchRun(c.remaining, func(i int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:])) }, l, h)
	default:
		return 0, 0, false
	}
	return from, to, true
}

// searchRun returns the rows [from, to) of the ascending values at(0..n-1)
// with lo <= v <= hi. The second test is !(v <= hi), not v > hi, so that a
// bound no value compares to (NaN) selects nothing, as the kernel does.
func searchRun[T int32 | int64 | float64](n int, at func(int) T, lo, hi T) (from, to int) {
	from = sort.Search(n, func(i int) bool { return at(i) >= lo })
	to = from + sort.Search(n-from, func(i int) bool { return !(at(from+i) <= hi) })
	return from, to
}

// Next decodes up to n rows into dst (which is Reset first and must have
// the cursor's type) and returns the count delivered — less than n only
// at the end of the range. A nil dst skips the rows instead of decoding
// them: fixed-size columns jump, variable-size columns count terminators
// in bulk (skip).
// The batch pipeline uses the skip form for projection-only columns of
// batches in which no row survived the filters — late materialization at
// batch granularity.
func (c *ColumnCursor) Next(n int, dst *schema.Vector) (int, error) {
	if n > c.remaining {
		n = c.remaining
	}
	if dst != nil {
		dst.Reset()
	}
	if n <= 0 {
		return 0, nil
	}
	if c.typ.FixedSize() {
		c.nextFixed(n, dst)
		c.remaining -= n
		return n, nil
	}
	var err error
	if dst == nil {
		err = c.skip(n)
	} else {
		err = c.nextString(n, dst)
	}
	if err != nil {
		return 0, err
	}
	c.remaining -= n
	return n, nil
}

// NextSelected advances the cursor n rows like Next, but decodes only the
// rows whose batch-relative indices appear in sel (ascending, each in
// [0,n)), appending len(sel) values to dst — late materialization at row
// granularity: a selective filter pays decoding only for surviving rows,
// while the cursor still walks past the rest. dst is Reset first and
// receives values in sel order. Returns the rows advanced, like Next.
func (c *ColumnCursor) NextSelected(n int, sel []int32, dst *schema.Vector) (int, error) {
	if n > c.remaining {
		n = c.remaining
	}
	dst.Reset()
	if n <= 0 {
		return 0, nil
	}
	if c.typ.FixedSize() {
		raw := c.raw[c.pos*c.width:]
		switch c.typ {
		case schema.Int32, schema.Date:
			dst.I32 = slices.Grow(dst.I32, len(sel))
			for _, s := range sel {
				dst.I32 = append(dst.I32, int32(binary.LittleEndian.Uint32(raw[int(s)*4:])))
			}
		case schema.Int64:
			dst.I64 = slices.Grow(dst.I64, len(sel))
			for _, s := range sel {
				dst.I64 = append(dst.I64, int64(binary.LittleEndian.Uint64(raw[int(s)*8:])))
			}
		case schema.Float64:
			dst.F64 = slices.Grow(dst.F64, len(sel))
			for _, s := range sel {
				dst.F64 = append(dst.F64, math.Float64frombits(binary.LittleEndian.Uint64(raw[int(s)*8:])))
			}
		}
		c.pos += n
		c.remaining -= n
		return n, nil
	}
	// The gaps between selected rows, and the tail after the last one, are
	// skipped in bulk; only the selected values are walked one by one. An
	// entry out of order (or past n) is dropped: the walk only goes forward.
	dst.Bytes = c.raw[:len(c.raw):len(c.raw)]
	dst.Start, dst.End = slices.Grow(dst.Start, len(sel)), slices.Grow(dst.End, len(sel))
	at := 0 // the batch row the cursor stands on
	for _, s := range sel {
		if int(s) < at || int(s) >= n {
			continue
		}
		if err := c.skip(int(s) - at); err != nil {
			return 0, err
		}
		z := c.term()
		if z < 0 {
			return 0, c.unterminated()
		}
		dst.Start = append(dst.Start, uint32(c.bpos))
		dst.End = append(dst.End, uint32(z))
		c.bpos = z + 1
		at = int(s) + 1
	}
	if err := c.skip(n - at); err != nil {
		return 0, err
	}
	c.remaining -= n
	return n, nil
}

func (c *ColumnCursor) nextFixed(n int, dst *schema.Vector) {
	if dst == nil {
		c.pos += n
		return
	}
	raw := c.raw[c.pos*c.width:]
	switch c.typ {
	case schema.Int32, schema.Date:
		dst.I32 = slices.Grow(dst.I32, n)
		for i := 0; i < n; i++ {
			dst.I32 = append(dst.I32, int32(binary.LittleEndian.Uint32(raw[i*4:])))
		}
	case schema.Int64:
		dst.I64 = slices.Grow(dst.I64, n)
		for i := 0; i < n; i++ {
			dst.I64 = append(dst.I64, int64(binary.LittleEndian.Uint64(raw[i*8:])))
		}
	case schema.Float64:
		dst.F64 = slices.Grow(dst.F64, n)
		for i := 0; i < n; i++ {
			dst.F64 = append(dst.F64, math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:])))
		}
	}
	c.pos += n
}

// nextString walks n values' terminators. What it delivers into dst is
// where each value lies, not the value: dst.Bytes is the column range
// itself, its capacity clamped so that appending to it copies.
func (c *ColumnCursor) nextString(n int, dst *schema.Vector) error {
	dst.Bytes = c.raw[:len(c.raw):len(c.raw)]
	dst.Start, dst.End = slices.Grow(dst.Start, n), slices.Grow(dst.End, n)
	for i := 0; i < n; i++ {
		z := c.term()
		if z < 0 {
			return c.unterminated()
		}
		dst.Start = append(dst.Start, uint32(c.bpos))
		dst.End = append(dst.End, uint32(z))
		c.bpos = z + 1
	}
	return nil
}

// skipChunk is how many bytes skip counts terminators in at a time. One
// bytes.Count over a chunk is a single vector pass with no call per value;
// the chunk that holds the last terminator is then walked value by value,
// so a larger chunk trades fewer calls for a longer final walk.
// BenchmarkTerminatorWalk's skip cases (1,024 values on a 2-core Xeon,
// chunk 64 / 128 / 256 / 512 B: 3 B values 0.61 / 0.59 / 0.59 / 0.82 µs,
// 12 B 1.40 / 1.22 / 0.65 / 0.78, 45 B 6.41 / 2.98 / 1.79 / 1.64) put it at
// 256, against 7.0, 9.3 and 11.8 µs to walk the same values.
const skipChunk = 256

// skip advances past k string values without delivering them: whole
// chunks are passed by counting their terminators, and only the chunk
// that holds the k-th is walked. A range with fewer than k terminators
// left is unterminated.
func (c *ColumnCursor) skip(k int) error {
	for k > 0 {
		end := min(c.bpos+skipChunk, len(c.raw))
		if n := bytes.Count(c.raw[c.bpos:end], []byte{0}); n < k {
			if end == len(c.raw) {
				return c.unterminated()
			}
			k -= n
			c.bpos = end // mid-value, perhaps: term finds the same terminator from there
			continue
		}
		for ; k > 0; k-- {
			c.bpos = c.term() + 1 // found: the chunk holds k more terminators
		}
	}
	return nil
}

// longTerm is the mean stored length of a value, terminator included, from
// which a cursor finds terminators with bytes.IndexByte rather than a byte
// loop. IndexByte pays a call and a vector set-up per value and then scans
// a word or more per step; the loop pays per byte. BenchmarkTerminatorWalk
// puts the crossover between 8 and 12 bytes of value (decoding 1,024
// values on a 2-core Xeon, loop vs IndexByte: 3 B 6.4 vs 8.8 µs, 8 B 8.4
// vs 8.4, 12 B 9.9 vs 8.5, 24 B 15.8 vs 8.6, 45 B 31.4 vs 9.4), so a range
// switches where IndexByte is clearly ahead. The choice is a property of
// the stored bytes, made once per cursor.
const longTerm = 13

// term returns the index in raw of the terminator of the value at bpos, or
// -1 when the range ends first.
func (c *ColumnCursor) term() int {
	if !c.long {
		return indexByteFrom(c.raw, c.bpos, 0)
	}
	z := bytes.IndexByte(c.raw[c.bpos:], 0)
	if z < 0 {
		return -1
	}
	return c.bpos + z
}

func (c *ColumnCursor) unterminated() error {
	return fmt.Errorf("pax: unterminated string value in column %d", c.col)
}
