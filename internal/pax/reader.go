package pax

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/schema"
)

// IOStats records how much of a serialized block an access path touched.
// The cluster simulator converts these counts into simulated disk time, so
// the numbers must reflect what a disk-resident block would really cost:
// every non-adjacent byte range costs one seek, and variable-size columns
// are read at whole-partition granularity (paper §3.5).
type IOStats struct {
	BytesRead int64 // bytes transferred from the block
	Seeks     int   // non-contiguous range starts
}

// RangeSource is what a Reader reads a serialized block through: bytes
// [off, off+n) of some store, valid and unchanged for as long as the
// Reader and its cursors are used. A source may verify what it hands out
// (an hdfs replica view checks the covering chunks' CRCs) and may return
// a sub-slice of its own storage; the Reader never writes to it.
type RangeSource interface {
	Range(off, n int) ([]byte, error)
}

// bytesSource serves ranges of a block held in memory.
type bytesSource []byte

// Range is only reached through Reader.fetch, which has checked the bounds.
func (b *bytesSource) Range(off, n int) ([]byte, error) { return (*b)[off : off+n], nil }

// Reader provides random access to a serialized PAX block without decoding
// the whole block, mirroring how the HailRecordReader reads only the
// qualifying column ranges from disk. Every byte it looks at — header
// included — comes through its RangeSource, so what a scan fetches is what
// it reads. It tracks IOStats for the data reads: consecutive reads of
// adjacent ranges count as one seek.
type Reader struct {
	src  RangeSource
	mem  bytesSource // Open's source, held here so it costs no allocation of its own
	base int         // offset of the block within src
	size int         // serialized size of the block

	sch     *schema.Schema
	sortCol int
	numRows int
	numBad  int
	colOff  []int // offset of each column area within the block
	colLen  []int
	badOff  int
	badLen  int

	stats   IOStats
	lastEnd int64 // end offset of the previous raw read, -1 initially
}

// fixedHeader is the part of the block header before the schema DDL.
const fixedHeader = 4 + 2 + 4 + 4 + 4 + 2

// NewReader opens a block held in memory.
func NewReader(data []byte) (*Reader, error) {
	r := new(Reader)
	return opened(r, r.Open(data))
}

// opened is what a constructor over an in-place open returns: the object,
// or nil and the error.
func opened[T any](p *T, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Open re-opens r on a block held in memory, as NewReader does.
func (r *Reader) Open(data []byte) error {
	r.mem = data
	return r.OpenAt(&r.mem, 0, len(data))
}

// OpenAt re-opens r on the block serialized in bytes [off, off+size) of
// src, fetching only the header. Whatever r held
// before is forgotten — the accounting too — except the arrays it decodes
// the column directory into, so a Reader kept across blocks opens the next
// one without allocating. After a failed open, r must be opened again
// before it is read.
func (r *Reader) OpenAt(src RangeSource, off, size int) error {
	r.src, r.base, r.size = src, off, size
	r.ResetStats()
	return r.parseHeader()
}

// Close drops r's source, so that a Reader kept for reuse holds no block
// bytes; Open or OpenAt makes it serve again.
func (r *Reader) Close() { r.src, r.mem = nil, nil }

// parseHeader reads the block header and validates it against the block
// size and against itself — the areas the directory lists must lie inside
// the block, after the header and one after another, and the row and
// bad-record counts must fit the areas they describe — so that a
// corrupted or truncated block fails here rather than during reads, and
// no count read from disk is trusted as an allocation size.
func (r *Reader) parseHeader() error {
	if r.size < fixedHeader {
		return fmt.Errorf("pax: block too short (%d bytes)", r.size)
	}
	hdr, err := r.fetch(0, fixedHeader)
	if err != nil {
		return err
	}
	if string(hdr[:4]) != blockMagic {
		return fmt.Errorf("pax: bad magic %q", hdr[:4])
	}
	if version := binary.LittleEndian.Uint16(hdr[4:]); version != blockVersion {
		return fmt.Errorf("pax: unsupported version %d", version)
	}
	r.sortCol = int(int32(binary.LittleEndian.Uint32(hdr[6:])))
	r.numRows = int(binary.LittleEndian.Uint32(hdr[10:]))
	r.numBad = int(binary.LittleEndian.Uint32(hdr[14:]))
	schemaLen := int(binary.LittleEndian.Uint16(hdr[18:]))

	p := fixedHeader
	if p+schemaLen+2 > r.size {
		return fmt.Errorf("pax: truncated schema")
	}
	ddl, err := r.fetch(p, schemaLen+2)
	if err != nil {
		return err
	}
	sch, err := decodeSchema(ddl[:schemaLen])
	if err != nil {
		return err
	}
	r.sch = sch
	nCols := int(binary.LittleEndian.Uint16(ddl[schemaLen:]))
	p += schemaLen + 2
	if nCols != sch.NumFields() {
		return fmt.Errorf("pax: directory has %d columns, schema has %d", nCols, sch.NumFields())
	}
	if p+nCols*8+8 > r.size {
		return fmt.Errorf("pax: truncated column directory")
	}
	dir, err := r.fetch(p, nCols*8+8)
	if err != nil {
		return err
	}
	r.colOff = slices.Grow(r.colOff[:0], nCols)[:nCols]
	r.colLen = slices.Grow(r.colLen[:0], nCols)[:nCols]
	next := p + nCols*8 + 8 // areas follow the header in order, without overlap
	for i := 0; i < nCols; i++ {
		r.colOff[i] = int(binary.LittleEndian.Uint32(dir[i*8:]))
		r.colLen[i] = int(binary.LittleEndian.Uint32(dir[i*8+4:]))
		if r.colOff[i] < next || r.colOff[i]+r.colLen[i] > r.size {
			return fmt.Errorf("pax: column %d area out of bounds", i)
		}
		next = r.colOff[i] + r.colLen[i]
		if t := sch.Field(i).Type; t.FixedSize() {
			if r.colLen[i] != r.numRows*t.Width() {
				return fmt.Errorf("pax: column %d area is %d bytes, %d rows need %d", i, r.colLen[i], r.numRows, r.numRows*t.Width())
			}
		} else if need := numPartitions(r.numRows)*4 + r.numRows; r.colLen[i] < need {
			return fmt.Errorf("pax: column %d area is %d bytes, %d rows need at least %d", i, r.colLen[i], r.numRows, need)
		}
	}
	r.badOff = int(binary.LittleEndian.Uint32(dir[nCols*8:]))
	r.badLen = int(binary.LittleEndian.Uint32(dir[nCols*8+4:]))
	if r.badOff < next || r.badOff+r.badLen > r.size {
		return fmt.Errorf("pax: bad-record area out of bounds")
	}
	if r.numBad > r.badLen/4 {
		return fmt.Errorf("pax: %d bad records cannot fit a %d-byte area", r.numBad, r.badLen)
	}
	if r.sortCol < -1 || r.sortCol >= nCols {
		return fmt.Errorf("pax: sort column %d out of range", r.sortCol)
	}
	return nil
}

// decodedSchema is a schema together with the DDL it was parsed from.
type decodedSchema struct {
	ddl string
	sch *schema.Schema
}

// lastSchema is the most recently decoded block schema. The blocks of a
// file share one DDL, so nearly every header finds its schema here and
// every Reader of the file hands out the same *schema.Schema, which
// Schema.Equal answers by pointer.
var lastSchema atomic.Pointer[decodedSchema]

// decodeSchema returns the schema a header's DDL bytes describe: the last
// one decoded when the bytes are equal, a fresh parse otherwise, which
// then becomes the last one. A Schema is immutable, so sharing it is safe.
func decodeSchema(ddl []byte) (*schema.Schema, error) {
	if d := lastSchema.Load(); d != nil && d.ddl == string(ddl) {
		return d.sch, nil
	}
	d := &decodedSchema{ddl: string(ddl)}
	sch, err := schema.ParseSchema(d.ddl)
	if err != nil {
		return nil, err
	}
	d.sch = sch
	lastSchema.Store(d)
	return sch, nil
}

// Schema returns the block schema parsed from the header.
func (r *Reader) Schema() *schema.Schema { return r.sch }

// NumRows returns the number of good rows.
func (r *Reader) NumRows() int { return r.numRows }

// NumBad returns the number of bad records.
func (r *Reader) NumBad() int { return r.numBad }

// SortColumn returns the clustering attribute, or -1.
func (r *Reader) SortColumn() int { return r.sortCol }

// BlockSize returns the total serialized size.
func (r *Reader) BlockSize() int { return r.size }

// Stats returns the accumulated I/O accounting.
func (r *Reader) Stats() IOStats { return r.stats }

// ResetStats clears the I/O accounting.
func (r *Reader) ResetStats() {
	r.stats = IOStats{}
	r.lastEnd = -1
}

// fetch returns bytes [off, off+n) of the block, unaccounted: the header
// reads come through here directly.
func (r *Reader) fetch(off, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+n > r.size {
		return nil, fmt.Errorf("pax: read [%d,%d) out of bounds", off, off+n)
	}
	return r.src.Range(r.base+off, n)
}

// raw is fetch for data reads: it accounts the bytes, and a seek when the
// range is not adjacent to the previous read.
func (r *Reader) raw(off, n int) ([]byte, error) {
	b, err := r.fetch(off, n)
	if err != nil {
		return nil, err
	}
	if int64(off) != r.lastEnd {
		r.stats.Seeks++
	}
	r.stats.BytesRead += int64(n)
	r.lastEnd = int64(off + n)
	return b, nil
}

// ReadColumnRange reads the values of attribute col for rows [fromRow,
// toRow). For variable-size attributes it reads whole partitions covering
// the range, as the on-disk format only records every PartitionSize-th
// offset, but returns exactly the requested values. No binary calls it: it
// is the cursor path's independent reference, values and IOStats both.
func (r *Reader) ReadColumnRange(col, fromRow, toRow int) ([]schema.Value, error) {
	if col < 0 || col >= r.sch.NumFields() {
		return nil, fmt.Errorf("pax: column %d out of range", col)
	}
	if fromRow < 0 || toRow > r.numRows || fromRow > toRow {
		return nil, fmt.Errorf("pax: row range [%d,%d) out of bounds (rows=%d)", fromRow, toRow, r.numRows)
	}
	if fromRow == toRow {
		return nil, nil
	}
	t := r.sch.Field(col).Type
	if t.FixedSize() {
		return r.readFixedRange(col, t, fromRow, toRow)
	}
	return r.readStringRange(col, fromRow, toRow)
}

func (r *Reader) readFixedRange(col int, t schema.Type, fromRow, toRow int) ([]schema.Value, error) {
	w := t.Width()
	raw, err := r.raw(r.colOff[col]+fromRow*w, (toRow-fromRow)*w)
	if err != nil {
		return nil, err
	}
	out := make([]schema.Value, 0, toRow-fromRow)
	for i := 0; i < toRow-fromRow; i++ {
		out = append(out, schema.FixedValue(t, schema.LoadFixed(t, raw[i*w:])))
	}
	return out, nil
}

func (r *Reader) readStringRange(col, fromRow, toRow int) ([]schema.Value, error) {
	nParts := numPartitions(r.numRows)
	valBase := r.colOff[col] + nParts*4
	valLen := r.colLen[col] - nParts*4
	pFrom := fromRow / PartitionSize
	pTo := (toRow - 1) / PartitionSize

	// Read the needed slice of the sparse offset list. The list is tiny
	// (4 bytes per 1,024 rows) and in practice cached in memory; it still
	// counts as a read the first time.
	offRaw, err := r.raw(r.colOff[col]+pFrom*4, (pTo-pFrom+1)*4)
	if err != nil {
		return nil, err
	}
	startOff := int(binary.LittleEndian.Uint32(offRaw[0:]))
	// The byte span ends at the start of partition pTo+1, or at the end of
	// the value area for the last partition. We read to the partition
	// boundary and post-filter in memory (paper §3.5).
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

	out := make([]schema.Value, 0, toRow-fromRow)
	row := pFrom * PartitionSize
	pos := 0
	for row < toRow {
		z := schema.Terminator(raw, pos, false)
		if z < 0 {
			return nil, fmt.Errorf("pax: unterminated string value in column %d", col)
		}
		if row >= fromRow {
			out = append(out, schema.StringVal(string(raw[pos:z])))
		}
		pos = z + 1
		row++
	}
	return out, nil
}

// ReadAllBad reads the whole bad-record section, as one range, and
// appends its records to dst[:0]. The records are one string, copied from
// the section once, and sliced: they share its memory and none of the
// block's.
func (r *Reader) ReadAllBad(dst []string) ([]string, error) {
	dst = dst[:0]
	if r.numBad == 0 {
		return dst, nil
	}
	sec, err := r.raw(r.badOff, r.badLen)
	if err != nil {
		return dst, err
	}
	text := string(sec)
	for p, k := 0, 0; k < r.numBad; k++ {
		if len(sec)-p < 4 {
			return dst[:0], fmt.Errorf("pax: bad record %d truncated", k)
		}
		n := int(binary.LittleEndian.Uint32(sec[p:]))
		if n > len(sec)-p-4 {
			return dst[:0], fmt.Errorf("pax: bad record %d truncated", k)
		}
		dst = append(dst, text[p+4:p+4+n])
		p += 4 + n
	}
	return dst, nil
}
