// Package index implements HAIL's sparse clustered index (paper §3.5).
//
// The index is built on a block whose rows are already clustered (sorted)
// on the indexed attribute. It has a single root directory — an array with
// the first key of every PartitionSize-row partition. Child pointers are
// implicit: all partitions are contiguous on disk, so partition p starts at
// row p × PartitionSize. For a range query the first and last qualifying
// partitions are determined entirely in main memory (steps 1 and 2 in the
// paper's Figure 2) and the covering rows are read from disk; the record
// reader then finds the qualifying run inside them.
//
// The paper argues (§3.5 "Why not a multi-level tree?") that a single-level
// directory is optimal for block sizes below ~5 GB; see the ablation bench
// BenchmarkAblationMultiLevelIndex.
package index

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/pax"
	"repro/internal/schema"
)

// Index is a sparse clustered index over one attribute of one PAX block.
type Index struct {
	column  int            // indexed (and clustering) attribute
	keyType schema.Type    // type of the indexed attribute
	numRows int            // rows covered
	keys    []schema.Value // first key of each partition, ascending
}

// Build creates the index for attribute col of block b. The block must
// already be clustered on col (call (*pax.Block).Sort first); requiring
// this keeps "sort, then index" two explicit steps of the upload pipeline.
func Build(b *pax.Block, col int) (*Index, error) {
	if col < 0 || col >= b.Schema().NumFields() {
		return nil, fmt.Errorf("index: column %d out of range", col)
	}
	if b.SortColumn() != col {
		return nil, fmt.Errorf("index: block is clustered on %d, not %d", b.SortColumn(), col)
	}
	n := b.NumRows()
	ix := &Index{
		column:  col,
		keyType: b.Schema().Field(col).Type,
		numRows: n,
	}
	for r := 0; r < n; r += pax.PartitionSize {
		ix.keys = append(ix.keys, b.Value(r, col))
	}
	return ix, nil
}

// Column returns the indexed attribute position.
func (ix *Index) Column() int { return ix.column }

// KeyType returns the type of the indexed attribute.
func (ix *Index) KeyType() schema.Type { return ix.keyType }

// NumRows returns the number of rows the index covers.
func (ix *Index) NumRows() int { return ix.numRows }

// NumPartitions returns the number of partitions (index entries).
func (ix *Index) NumPartitions() int { return len(ix.keys) }

// PartitionRange computes, in main memory, the contiguous row range
// [fromRow, toRow) that covers every row possibly matching lo <= key <= hi
// (nil bounds are unbounded). The range is partition-aligned; the reader
// binary-searches the run inside it (pax.ColumnCursor.Run). ok is false
// when no row can match.
func (ix *Index) PartitionRange(lo, hi *schema.Value) (fromRow, toRow int, ok bool) {
	if ix.numRows == 0 {
		return 0, 0, false
	}
	nParts := len(ix.keys)

	// First partition: the predecessor of the first partition whose first
	// key is >= lo. Strictly earlier partitions contain only keys < lo
	// (clustered order); the predecessor itself may hold keys == lo or the
	// first keys >= lo in its tail — note ">= lo", not "> lo": when a run
	// of duplicates of lo crosses a partition boundary, the duplicates at
	// the tail of the previous partition must be covered too.
	pFrom := 0
	if lo != nil {
		i := sort.Search(nParts, func(p int) bool { return ix.keys[p].Compare(*lo) >= 0 })
		if i > 0 {
			pFrom = i - 1
		}
	}

	// Last partition: the last one whose first key is <= hi. If even the
	// first partition starts above hi, nothing matches.
	pTo := nParts - 1
	if hi != nil {
		i := sort.Search(nParts, func(p int) bool { return ix.keys[p].Compare(*hi) > 0 })
		if i == 0 {
			return 0, 0, false
		}
		pTo = i - 1
	}
	if pFrom > pTo {
		return 0, 0, false
	}
	fromRow = pFrom * pax.PartitionSize
	toRow = (pTo + 1) * pax.PartitionSize
	if toRow > ix.numRows {
		toRow = ix.numRows
	}
	return fromRow, toRow, true
}

// SizeBytes returns the serialized size of the index. For the paper's
// datasets this is a few KB (they report 2 KB vs. Hadoop++'s 304 KB), which
// is why reading the whole index into memory per block is cheap.
func (ix *Index) SizeBytes() int {
	data, err := ix.Marshal()
	if err != nil {
		return 0
	}
	return len(data)
}

// Binary layout: magic "HIDX", version uint16, column int32, keyType uint8,
// numRows uint32, numKeys uint32, then the keys (packed little-endian for
// fixed types; {len uint16, bytes} for strings).
const (
	indexMagic   = "HIDX"
	indexVersion = 1
)

// Marshal serializes the index (the "Index Metadata" plus the root
// directory that gets stored with the block, paper §3.2 step 7).
func (ix *Index) Marshal() ([]byte, error) {
	out := make([]byte, 0, 16+len(ix.keys)*8)
	out = append(out, indexMagic...)
	out = binary.LittleEndian.AppendUint16(out, indexVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(int32(ix.column)))
	out = append(out, byte(ix.keyType))
	out = binary.LittleEndian.AppendUint32(out, uint32(ix.numRows))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(ix.keys)))
	for _, k := range ix.keys {
		switch ix.keyType {
		case schema.Int32, schema.Date:
			out = binary.LittleEndian.AppendUint32(out, uint32(k.Int()))
		case schema.Int64:
			out = binary.LittleEndian.AppendUint64(out, uint64(k.Long()))
		case schema.Float64:
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(k.Float()))
		case schema.String:
			s := k.Str()
			if len(s) > math.MaxUint16 {
				return nil, fmt.Errorf("index: key too long (%d bytes)", len(s))
			}
			out = binary.LittleEndian.AppendUint16(out, uint16(len(s)))
			out = append(out, s...)
		default:
			return nil, fmt.Errorf("index: cannot marshal key type %s", ix.keyType)
		}
	}
	return out, nil
}

// Unmarshal decodes a serialized index.
func Unmarshal(data []byte) (*Index, error) {
	ix := new(Index)
	if err := ix.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	return ix, nil
}

// UnmarshalBinary decodes a serialized index into ix, in place of what ix
// held: the key array is reused, so an Index kept across blocks decodes
// the next block's index without allocating — string keys excepted, which
// are one copy of their bytes, sliced. ix keeps no reference to data.
// After a failed decode, ix must be decoded again before it is used.
func (ix *Index) UnmarshalBinary(data []byte) error {
	if len(data) < 4+2+4+1+4+4 {
		return fmt.Errorf("index: too short (%d bytes)", len(data))
	}
	if string(data[:4]) != indexMagic {
		return fmt.Errorf("index: bad magic %q", data[:4])
	}
	p := 4
	if v := binary.LittleEndian.Uint16(data[p:]); v != indexVersion {
		return fmt.Errorf("index: unsupported version %d", v)
	}
	p += 2
	ix.column = int(int32(binary.LittleEndian.Uint32(data[p:])))
	p += 4
	ix.keyType = schema.Type(data[p])
	p++
	ix.numRows = int(binary.LittleEndian.Uint32(data[p:]))
	p += 4
	nKeys := int(binary.LittleEndian.Uint32(data[p:]))
	p += 4
	// Every key takes at least two bytes (an empty string's length), so a
	// count the remaining bytes cannot hold is corrupt — and must not be
	// trusted as an allocation size.
	if nKeys > (len(data)-p)/2 {
		return fmt.Errorf("index: %d keys cannot fit %d bytes", nKeys, len(data)-p)
	}
	ix.keys = slices.Grow(ix.keys[:0], nKeys)
	var text string // a string key's bytes: data from p on, copied once
	if ix.keyType == schema.String && nKeys > 0 {
		text = string(data[p:])
	}
	base := p
	for i := 0; i < nKeys; i++ {
		switch ix.keyType {
		case schema.Int32:
			if p+4 > len(data) {
				return fmt.Errorf("index: truncated keys")
			}
			ix.keys = append(ix.keys, schema.IntVal(int32(binary.LittleEndian.Uint32(data[p:]))))
			p += 4
		case schema.Date:
			if p+4 > len(data) {
				return fmt.Errorf("index: truncated keys")
			}
			ix.keys = append(ix.keys, schema.DateVal(int32(binary.LittleEndian.Uint32(data[p:]))))
			p += 4
		case schema.Int64:
			if p+8 > len(data) {
				return fmt.Errorf("index: truncated keys")
			}
			ix.keys = append(ix.keys, schema.LongVal(int64(binary.LittleEndian.Uint64(data[p:]))))
			p += 8
		case schema.Float64:
			if p+8 > len(data) {
				return fmt.Errorf("index: truncated keys")
			}
			k := math.Float64frombits(binary.LittleEndian.Uint64(data[p:]))
			// Compare reads NaN as equal to everything, so it would pass
			// the ascending check below and then misdirect the lookups'
			// binary searches; no parsed row holds one (schema.ParseValue).
			if math.IsNaN(k) {
				return fmt.Errorf("index: key %d is NaN", i)
			}
			ix.keys = append(ix.keys, schema.FloatVal(k))
			p += 8
		case schema.String:
			if p+2 > len(data) {
				return fmt.Errorf("index: truncated keys")
			}
			n := int(binary.LittleEndian.Uint16(data[p:]))
			p += 2
			if p+n > len(data) {
				return fmt.Errorf("index: truncated string key")
			}
			ix.keys = append(ix.keys, schema.StringVal(text[p-base:p-base+n]))
			p += n
		default:
			return fmt.Errorf("index: invalid key type %d", ix.keyType)
		}
	}
	// Sanity: keys must be ascending or the index was corrupted.
	for i := 1; i < len(ix.keys); i++ {
		if ix.keys[i-1].Compare(ix.keys[i]) > 0 {
			return fmt.Errorf("index: keys out of order at %d", i)
		}
	}
	if want := (ix.numRows + pax.PartitionSize - 1) / pax.PartitionSize; len(ix.keys) != want {
		return fmt.Errorf("index: %d keys for %d rows, want %d", len(ix.keys), ix.numRows, want)
	}
	return nil
}
