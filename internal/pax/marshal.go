package pax

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/pool"
	"repro/internal/schema"
)

// Binary layout of a serialized PAX block ("Block Metadata" header followed
// by the column data areas and the bad-record section):
//
//	magic     [4]byte  "PAXB"
//	version   uint16   currently 1
//	sortCol   int32    clustering attribute, -1 if unsorted
//	numRows   uint32
//	numBad    uint32
//	schemaLen uint16, schema DDL (see schema.ParseSchema)
//	colCount  uint16
//	col dirs  colCount × {offset uint32, length uint32}
//	bad dir   {offset uint32, length uint32}
//	data      column areas in order, then the bad-record section
//
// A fixed-size column area is packed little-endian values. A variable-size
// column area is a sparse offset list (one uint32 per PartitionSize rows,
// relative to the start of the value bytes) followed by the zero-terminated
// values. The bad-record section is a sequence of {len uint32, bytes}.
const (
	blockMagic   = "PAXB"
	blockVersion = 1
)

// Marshal serializes the block.
func (b *Block) Marshal() ([]byte, error) { return b.MarshalAppend(nil) }

// headerSize returns the length of the block header given the schema DDL.
func (b *Block) headerSize(ddl string) int { return fixedHeader + len(ddl) + 2 + len(b.cols)*8 + 8 }

// MarshalSize returns the length of the block's serialized form.
func (b *Block) MarshalSize() int {
	size := b.headerSize(b.sch.String()) + len(b.bad)
	for i := range b.cols {
		size += b.ColumnBytes(i)
	}
	return size
}

// MarshalAppend appends the block's serialized form to dst, growing it at
// most once: the header, then each column — an arena copied as it stands,
// or, on a sorted block, its values gathered through the row order.
func (b *Block) MarshalAppend(dst []byte) ([]byte, error) {
	if b.numRows > math.MaxUint32 {
		return nil, fmt.Errorf("pax: too many rows (%d)", b.numRows)
	}
	ddl := b.sch.String()
	if len(ddl) > math.MaxUint16 {
		return nil, fmt.Errorf("pax: schema too large")
	}
	total := b.MarshalSize()
	if total > math.MaxUint32 {
		return nil, fmt.Errorf("pax: block too large (%d bytes)", total)
	}
	for i := range b.cols {
		// The terminator is what ends a value for every reader, so a value
		// holding one cannot be stored.
		if b.cols[i].nul {
			return nil, fmt.Errorf("pax: column %d (%s): string value contains NUL", i, b.sch.Field(i).Name)
		}
	}

	out := slices.Grow(dst, total)
	out = append(out, blockMagic...)
	out = binary.LittleEndian.AppendUint16(out, blockVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(b.sortCol)))
	out = binary.LittleEndian.AppendUint32(out, uint32(b.numRows))
	out = binary.LittleEndian.AppendUint32(out, uint32(b.numBad))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(ddl)))
	out = append(out, ddl...)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(b.cols)))
	off := b.headerSize(ddl)
	for i := range b.cols {
		out = binary.LittleEndian.AppendUint32(out, uint32(off))
		out = binary.LittleEndian.AppendUint32(out, uint32(b.ColumnBytes(i)))
		off += b.ColumnBytes(i)
	}
	out = binary.LittleEndian.AppendUint32(out, uint32(off))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(b.bad)))
	for i := range b.cols {
		c := &b.cols[i]
		if b.perm == nil {
			if c.typ == schema.String {
				for r := 0; r < b.numRows; r += PartitionSize {
					out = binary.LittleEndian.AppendUint32(out, c.starts[r])
				}
			}
			out = append(out, c.data...)
			continue
		}
		if c.typ != schema.String {
			out = c.appendGathered(out, b.perm)
			continue
		}
		// The offset list is reserved, and each entry written as the gather
		// reaches its partition: where that partition's first value landed.
		list := len(out)
		out = out[:list+numPartitions(b.numRows)*4]
		vals := len(out)
		for r := 0; r < b.numRows; r += PartitionSize {
			binary.LittleEndian.PutUint32(out[list+r/PartitionSize*4:], uint32(len(out)-vals))
			out = c.appendGathered(out, b.perm[r:min(r+PartitionSize, b.numRows)])
		}
	}
	return append(out, b.bad...), nil
}

// Unmarshal decodes a serialized block into an in-memory Block that
// aliases data: the header is validated, every string column is scanned
// once for its terminators and the bad-record section for its lengths, and
// nothing is copied. data must stay unchanged while the block is in use;
// the block never writes to it. The upload path uses this when a datanode
// reassembles a block from packets; query-time access should prefer
// Reader, which touches only the byte ranges a query needs.
func Unmarshal(data []byte) (*Block, error) { return unmarshal(data, false) }

// UnmarshalPooled is Unmarshal with the string columns' row directories
// taken from the package's pool: the caller calls Release when it, and
// every view of the block, is done with it.
func UnmarshalPooled(data []byte) (*Block, error) { return unmarshal(data, true) }

func unmarshal(data []byte, pooled bool) (_ *Block, err error) {
	r, err := NewReader(data)
	if err != nil {
		return nil, err
	}
	b := &Block{sch: r.sch, cols: make([]column, len(r.colOff)), numRows: r.numRows, numBad: r.numBad, sortCol: r.sortCol, aliased: true}
	// One array holds every string column's directory, n+1 entries each.
	strCols := 0
	for i := range b.cols {
		if !r.sch.Field(i).Type.FixedSize() {
			strCols++
		}
	}
	var dirs []uint32
	if strCols > 0 {
		if n := strCols * (r.numRows + 1); pooled {
			b.dirs = pool.Borrow[uint32](&u32Bufs, n)
			dirs = *b.dirs
			defer func() {
				if err != nil {
					b.Release()
				}
			}()
		} else {
			dirs = make([]uint32, n)
		}
	}
	for i := range b.cols {
		c := &b.cols[i]
		c.typ = r.sch.Field(i).Type
		area := data[r.colOff[i] : r.colOff[i]+r.colLen[i]]
		if c.typ.FixedSize() {
			c.data = slices.Clip(area)
			continue
		}
		// The header parse has checked that the area can hold the offset
		// list and a terminator per row.
		vals := area[numPartitions(r.numRows)*4:]
		c.starts, dirs = dirs[:r.numRows+1:r.numRows+1], dirs[r.numRows+1:]
		c.starts[0] = 0
		at := 0
		for row := range r.numRows {
			if row%PartitionSize == 0 && binary.LittleEndian.Uint32(area[row/PartitionSize*4:]) != uint32(at) {
				return nil, fmt.Errorf("pax: column %d offset list disagrees with its values at row %d", i, row)
			}
			z := bytes.IndexByte(vals[at:], 0)
			if z < 0 {
				return nil, fmt.Errorf("pax: unterminated string value in column %d", i)
			}
			at += z + 1
			c.starts[row+1] = uint32(at)
		}
		c.data = vals[:at:at]
	}
	b.bad = data[r.badOff : r.badOff+r.badLen]
	at := 0
	for k := range r.numBad {
		if len(b.bad)-at < 4 || int(binary.LittleEndian.Uint32(b.bad[at:])) > len(b.bad)-at-4 {
			return nil, fmt.Errorf("pax: bad record %d truncated", k)
		}
		at += 4 + int(binary.LittleEndian.Uint32(b.bad[at:]))
	}
	b.bad = b.bad[:at:at]
	return b, nil
}
