// Package trojan implements the Hadoop++ baseline ([12], paper §5):
// trojan indexes created *after* upload by additional MapReduce jobs.
//
// Differences from HAIL, faithfully reproduced:
//
//   - Data is stored in binary *row* layout, so a scan or index range read
//     always fetches whole rows regardless of projection (§6.4.2 discusses
//     this against HAIL's PAX reads).
//   - There is exactly one trojan index per *logical* block, on one global
//     attribute; all replicas are byte-identical, so a query on any other
//     attribute degenerates to a full scan.
//   - Index creation runs as MapReduce jobs over the already-uploaded
//     data: one job to convert to binary, one more to sort and index —
//     the expensive part HAIL eliminates (Figure 4's 5–8× upload gap).
//   - The index is much denser than HAIL's (the paper measures 304 KB vs
//     HAIL's 2 KB per block): one entry per IndexGranularity rows, since
//     variable-length rows need explicit offsets.
//   - The split phase must read each block's header to locate the index
//     (§6.4.1: HAIL "does not have to read any block header to compute
//     input splits while Hadoop++ does").
package trojan

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"repro/internal/schema"
)

// IndexGranularity is the number of rows per trojan index entry. Row
// layout needs an explicit byte offset per entry, which together with the
// finer granularity is why the trojan index is ~100× larger than HAIL's
// sparse per-partition directory.
const IndexGranularity = 16

// Block layout:
//
//	magic    "TRJB"
//	version  uint16
//	sortCol  int32   indexed attribute, -1 if unsorted (no index)
//	numRows  uint32
//	schemaLen uint16, schema DDL
//	rowAreaLen uint32, indexAreaLen uint32
//	row area: rows back to back, each field in its binary form
//	          (schema.AppendBinary)
//	index area: entries of {key (binary form), rowID uint32, byteOff
//	          uint32}, one per IndexGranularity rows, keys ascending
const (
	blockMagic   = "TRJB"
	blockVersion = 1
)

// encodeRow appends the row-layout encoding of row to dst: each field's
// binary form (schema.AppendBinary), back to back.
func encodeRow(dst []byte, s *schema.Schema, row schema.Row) ([]byte, error) {
	if len(row) != s.NumFields() {
		return nil, fmt.Errorf("trojan: row has %d values, schema has %d", len(row), s.NumFields())
	}
	for i, v := range row {
		if v.Type() != s.Field(i).Type {
			return nil, fmt.Errorf("trojan: value %d is %s, schema wants %s", i, v.Type(), s.Field(i).Type)
		}
		var err error
		if dst, err = schema.AppendBinary(dst, v); err != nil {
			return nil, fmt.Errorf("trojan: value %d: %w", i, err)
		}
	}
	return dst, nil
}

// decodeRow decodes one row starting at data[off] into row, which holds
// one value per field of s, and returns the offset past it.
func decodeRow(data []byte, off int, s *schema.Schema, row schema.Row) (int, error) {
	for i := range row {
		var err error
		if row[i], off, err = schema.ReadBinary(s.Field(i).Type, data, off); err != nil {
			return 0, fmt.Errorf("trojan: field %d: %w", i, err)
		}
	}
	return off, nil
}

// indexEntry is one trojan index entry.
type indexEntry struct {
	key     schema.Value
	rowID   uint32
	byteOff uint32 // offset of the row within the row area
}

// MarshalBlock builds a trojan block from rows (already sorted on sortCol
// when sortCol >= 0; the index is built over the row offsets).
func MarshalBlock(s *schema.Schema, rows []schema.Row, sortCol int) ([]byte, error) {
	var rowArea []byte
	var entries []indexEntry
	for i, row := range rows {
		if sortCol >= 0 && i%IndexGranularity == 0 {
			entries = append(entries, indexEntry{
				key:     row[sortCol],
				rowID:   uint32(i),
				byteOff: uint32(len(rowArea)),
			})
		}
		var err error
		rowArea, err = encodeRow(rowArea, s, row)
		if err != nil {
			return nil, err
		}
	}
	var ixArea []byte
	if sortCol >= 0 {
		for _, e := range entries {
			var err error
			if ixArea, err = schema.AppendBinary(ixArea, e.key); err != nil {
				return nil, fmt.Errorf("trojan: key: %w", err)
			}
			ixArea = binary.LittleEndian.AppendUint32(ixArea, e.rowID)
			ixArea = binary.LittleEndian.AppendUint32(ixArea, e.byteOff)
		}
	}

	ddl := s.String()
	out := make([]byte, 0, 4+2+4+4+2+len(ddl)+8+len(rowArea)+len(ixArea))
	out = append(out, blockMagic...)
	out = binary.LittleEndian.AppendUint16(out, blockVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(sortCol)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rows)))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(ddl)))
	out = append(out, ddl...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(rowArea)))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ixArea)))
	out = append(out, rowArea...)
	out = append(out, ixArea...)
	return out, nil
}

// BlockReader gives access to a serialized trojan block.
type BlockReader struct {
	data    []byte
	sch     *schema.Schema
	sortCol int
	numRows int
	rowOff  int // absolute offset of the row area
	rowLen  int
	ixOff   int
	ixLen   int
}

// NewBlockReader parses the header.
func NewBlockReader(data []byte) (*BlockReader, error) {
	if len(data) < 4+2+4+4+2 {
		return nil, fmt.Errorf("trojan: block too short")
	}
	if string(data[:4]) != blockMagic {
		return nil, fmt.Errorf("trojan: bad magic %q", data[:4])
	}
	p := 4
	if v := binary.LittleEndian.Uint16(data[p:]); v != blockVersion {
		return nil, fmt.Errorf("trojan: unsupported version %d", v)
	}
	p += 2
	r := &BlockReader{data: data}
	r.sortCol = int(int32(binary.LittleEndian.Uint32(data[p:])))
	p += 4
	r.numRows = int(binary.LittleEndian.Uint32(data[p:]))
	p += 4
	ddlLen := int(binary.LittleEndian.Uint16(data[p:]))
	p += 2
	if p+ddlLen+8 > len(data) {
		return nil, fmt.Errorf("trojan: truncated header")
	}
	sch, err := schema.ParseSchema(string(data[p : p+ddlLen]))
	if err != nil {
		return nil, err
	}
	if r.sortCol < -1 || r.sortCol >= sch.NumFields() {
		return nil, fmt.Errorf("trojan: sort column %d outside the schema's %d fields", r.sortCol, sch.NumFields())
	}
	r.sch = sch
	p += ddlLen
	r.rowLen = int(binary.LittleEndian.Uint32(data[p:]))
	r.ixLen = int(binary.LittleEndian.Uint32(data[p+4:]))
	p += 8
	r.rowOff = p
	r.ixOff = p + r.rowLen
	if r.ixOff+r.ixLen != len(data) {
		return nil, fmt.Errorf("trojan: area lengths inconsistent with block size")
	}
	return r, nil
}

// Schema returns the block's schema.
func (r *BlockReader) Schema() *schema.Schema { return r.sch }

// NumRows returns the row count.
func (r *BlockReader) NumRows() int { return r.numRows }

// SortColumn returns the indexed attribute or -1.
func (r *BlockReader) SortColumn() int { return r.sortCol }

// HeaderBytes returns the size of the header the split phase must read.
func (r *BlockReader) HeaderBytes() int { return r.rowOff }

// IndexBytes returns the size of the trojan index area.
func (r *BlockReader) IndexBytes() int { return r.ixLen }

// RowAreaBytes returns the size of the row data area.
func (r *BlockReader) RowAreaBytes() int { return r.rowLen }

// ScanRange iterates rows [fromRow, toRow) starting at the given byte
// offset within the row area, calling fn with each decoded row. Every row
// is decoded into one row the scan reuses (Hadoop's object reuse
// contract): row is valid only during fn, and fn copies what it keeps. It
// returns the number of bytes covered.
func (r *BlockReader) ScanRange(byteOff, fromRow, toRow int, fn func(rowID int, row schema.Row) error) (int64, error) {
	off := r.rowOff + byteOff
	start := off
	row := make(schema.Row, r.sch.NumFields())
	for rowID := fromRow; rowID < toRow; rowID++ {
		next, err := decodeRow(r.data, off, r.sch, row)
		if err != nil {
			return int64(off - start), err
		}
		if next > r.rowOff+r.rowLen {
			return int64(off - start), fmt.Errorf("trojan: row %d overruns row area", rowID)
		}
		if err := fn(rowID, row); err != nil {
			return int64(off - start), err
		}
		off = next
	}
	return int64(off - start), nil
}

// LookupRange uses the trojan index to find the covering (byteOff, fromRow,
// toRow) for lo <= key <= hi: from the entry before the first key >= lo
// (duplicates can span an entry boundary) to the first key > hi. ok is
// false when no row can match or there is no index. The index is searched
// where it lies, no entry decoded: fixed-width keys by binary search over
// the entries' stride, string keys in one pass that compares their bytes
// in place. Either way a malformed index is an error.
func (r *BlockReader) LookupRange(lo, hi *schema.Value) (byteOff, fromRow, toRow int, ok bool, err error) {
	if r.sortCol < 0 || r.numRows == 0 {
		return 0, 0, 0, false, nil
	}
	t := r.sch.Field(r.sortCol).Type
	ix := r.data[r.ixOff : r.ixOff+r.ixLen]
	// Entries [0, below) have keys < lo and [0, upTo) keys <= hi; first
	// and end are where the row IDs of entries max(below-1, 0) and upTo lie,
	// each followed by its row's offset.
	var n, below, upTo, first, end int
	stride := t.Width() + 8
	switch {
	case t == schema.String:
		n, below, upTo, first, end, err = searchStrings(ix, lo, hi)
	case len(ix)%stride != 0:
		err = errTruncatedIndex
	default:
		n = len(ix) / stride
		upTo = n
		key := func(i int) schema.Value { return schema.FixedValue(t, schema.LoadFixed(t, ix[i*stride:])) }
		if lo != nil {
			below = sort.Search(n, func(i int) bool { return key(i).Compare(*lo) >= 0 })
		}
		if hi != nil {
			upTo = sort.Search(n, func(i int) bool { return key(i).Compare(*hi) > 0 })
		}
		first, end = max(below-1, 0)*stride+t.Width(), upTo*stride+t.Width()
	}
	if err != nil || n == 0 || max(below-1, 0) >= upTo {
		return 0, 0, 0, false, err
	}
	fromRow, byteOff = int(binary.LittleEndian.Uint32(ix[first:])), int(binary.LittleEndian.Uint32(ix[first+4:]))
	toRow = r.numRows
	if upTo < n {
		toRow = int(binary.LittleEndian.Uint32(ix[end:]))
	}
	return byteOff, fromRow, toRow, true, nil
}

var errTruncatedIndex = errors.New("trojan: truncated index entry")

// searchStrings is LookupRange's pass over an index of string keys: it
// counts the entries and returns below, upTo, first and end as
// LookupRange defines them.
func searchStrings(ix []byte, lo, hi *schema.Value) (n, below, upTo, first, end int, err error) {
	upTo = -1
	for p := 0; p < len(ix); n++ {
		k := p + 2
		if k > len(ix) || k+int(binary.LittleEndian.Uint16(ix[p:]))+8 > len(ix) {
			return 0, 0, 0, 0, 0, errTruncatedIndex
		}
		key := ix[k : k+int(binary.LittleEndian.Uint16(ix[p:]))]
		ref := k + len(key)
		if below == n && lo != nil && string(key) < lo.Str() {
			below, first = n+1, ref
		} else if n == 0 {
			first = ref
		}
		if hi != nil && upTo < 0 && string(key) > hi.Str() {
			upTo, end = n, ref
		}
		p = ref + 8
	}
	if upTo < 0 {
		upTo = n
	}
	return n, below, upTo, first, end, nil
}
