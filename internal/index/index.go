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

// NumRows returns the number of rows the index covers.
func (ix *Index) NumRows() int { return ix.numRows }

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

// Binary layout: magic "HIDX", version uint16, column int32, keyType uint8,
// numRows uint32, numKeys uint32, then the keys in their binary form
// (schema.AppendBinary).
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
		var err error
		if out, err = schema.AppendBinary(out, k); err != nil {
			return nil, fmt.Errorf("index: %w", err)
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
	var err error
	if ix.keyType == schema.String && nKeys > 0 {
		// String keys are substrings of one copy of the key bytes.
		ix.keys, err = appendKeys(ix.keys, ix.keyType, string(data[p:]), nKeys)
	} else {
		ix.keys, err = appendKeys(ix.keys, ix.keyType, data[p:], nKeys)
	}
	if err != nil {
		return err
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

// appendKeys appends the n keys of type t stored at the start of src.
func appendKeys[S []byte | string](keys []schema.Value, t schema.Type, src S, n int) ([]schema.Value, error) {
	for i, off := 0, 0; i < n; i++ {
		k, next, err := schema.ReadBinary(t, src, off)
		if err != nil {
			return keys, fmt.Errorf("index: key %d: %w", i, err)
		}
		// Compare reads NaN as equal to everything, so it would pass the
		// ascending check and then misdirect the lookups' binary searches;
		// no parsed row holds one (schema.ParseFixed).
		if t == schema.Float64 && math.IsNaN(k.Float()) {
			return keys, fmt.Errorf("index: key %d is NaN", i)
		}
		keys, off = append(keys, k), next
	}
	return keys, nil
}
