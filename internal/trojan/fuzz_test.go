package trojan

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fuzzcheck"
	"repro/internal/schema"
)

// FuzzBlockReader: whatever the bytes, opening a trojan block, looking a
// range of its sort column up and scanning its rows return a result or an
// error, never a panic, and allocate in proportion to the input. The
// in-place lookup fails exactly when a decode of the whole index does, and
// otherwise equals lookupRef's walk over the decoded entries whenever
// their keys ascend, as MarshalBlock writes them. The seeds are blocks
// indexed on each of sch's types and one unindexed.
func FuzzBlockReader(f *testing.F) {
	for col := -1; col < sch.NumFields(); col++ {
		rows := randRows(3*IndexGranularity+5, int64(col+2))
		if col >= 0 {
			sortRows(rows, col)
		}
		data, err := MarshalBlock(sch, rows, col)
		if err != nil {
			f.Fatal(err)
		}
		r, err := NewBlockReader(data)
		if err != nil {
			f.Fatal(err)
		}
		k := 0
		if _, err := r.ScanRange(0, 0, r.NumRows(), func(_ int, row schema.Row) error {
			if !row.Equal(rows[k]) {
				f.Fatalf("sort column %d: row %d reads back as %v, was %v", col, k, row, rows[k])
			}
			k++
			return nil
		}); err != nil || k != len(rows) {
			f.Fatalf("sort column %d: %d of %d rows read back: %v", col, k, len(rows), err)
		}
		f.Add(data, int64(-3), int64(5000))
	}
	f.Fuzz(func(t *testing.T, data []byte, lo, hi int64) {
		if r, err := NewBlockReader(data); err == nil && r.SortColumn() >= 0 {
			typ := r.Schema().Field(r.SortColumn()).Type
			l, h := boundOf(typ, lo), boundOf(typ, hi)
			matchesRef(t, r, &l, &h)
		}
		fuzzcheck.BoundedAlloc(t, len(data), func() {
			r, err := NewBlockReader(data)
			if err != nil {
				return
			}
			if c := r.SortColumn(); c >= 0 {
				typ := r.Schema().Field(c).Type
				l, h := boundOf(typ, lo), boundOf(typ, hi)
				off, from, to, ok, err := r.LookupRange(&l, &h)
				if err == nil && ok {
					_, _ = r.ScanRange(off, from, to, func(int, schema.Row) error { return nil })
				}
			}
			_, _ = r.ScanRange(0, 0, r.NumRows(), func(int, schema.Row) error { return nil })
		})
	})
}

// readIndex decodes a block's whole trojan index into entries: what
// LookupRange searches in place, decoded the plain way.
func readIndex(r *BlockReader) ([]indexEntry, error) {
	keyType := r.sch.Field(r.sortCol).Type
	var entries []indexEntry
	p, end := r.ixOff, r.ixOff+r.ixLen
	for p < end {
		key, np, err := schema.ReadBinary(keyType, r.data[:end], p)
		if err != nil {
			return nil, err
		}
		if p = np; p+8 > end {
			return nil, fmt.Errorf("truncated index entry")
		}
		entries = append(entries, indexEntry{
			key:     key,
			rowID:   binary.LittleEndian.Uint32(r.data[p:]),
			byteOff: binary.LittleEndian.Uint32(r.data[p+4:]),
		})
		p += 8
	}
	return entries, nil
}

// lookupRef is LookupRange as a linear walk over the decoded index, and
// whether the index's keys ascend (no NaN among them), the order a search
// may rely on.
func lookupRef(r *BlockReader, lo, hi *schema.Value) (byteOff, fromRow, toRow int, ok, ascending bool, err error) {
	if r.numRows == 0 {
		return 0, 0, 0, false, true, nil
	}
	entries, err := readIndex(r)
	if err != nil || len(entries) == 0 {
		return 0, 0, 0, false, true, err
	}
	ascending = true
	for i, e := range entries {
		nan := e.key.Type() == schema.Float64 && math.IsNaN(e.key.Float())
		if nan || i > 0 && entries[i-1].key.Compare(e.key) > 0 {
			ascending = false
		}
	}
	first, last := 0, len(entries)-1
	if lo != nil {
		i := 0
		for i < len(entries) && entries[i].key.Compare(*lo) < 0 {
			i++
		}
		first = max(i-1, 0)
	}
	if hi != nil {
		i := 0
		for i < len(entries) && entries[i].key.Compare(*hi) <= 0 {
			i++
		}
		last = i - 1
	}
	if first > last {
		return 0, 0, 0, false, ascending, nil
	}
	toRow = r.numRows
	if last+1 < len(entries) {
		toRow = int(entries[last+1].rowID)
	}
	return int(entries[first].byteOff), int(entries[first].rowID), toRow, true, ascending, nil
}

// matchesRef fails t unless r.LookupRange(lo, hi) fails exactly when
// lookupRef does and, over keys that ascend, returns what it returns.
func matchesRef(t *testing.T, r *BlockReader, lo, hi *schema.Value) {
	t.Helper()
	off, from, to, ok, err := r.LookupRange(lo, hi)
	wOff, wFrom, wTo, wOK, ascending, wErr := lookupRef(r, lo, hi)
	if (err == nil) != (wErr == nil) {
		t.Fatalf("LookupRange(%v, %v): err = %v, a decode of the index: %v", lo, hi, err, wErr)
	}
	if err == nil && ascending && (off != wOff || from != wFrom || to != wTo || ok != wOK) {
		t.Fatalf("LookupRange(%v, %v) = %d, [%d,%d), %v; the decoded index gives %d, [%d,%d), %v",
			lo, hi, off, from, to, ok, wOff, wFrom, wTo, wOK)
	}
}

// boundOf makes a query bound of type t from n.
func boundOf(t schema.Type, n int64) schema.Value {
	switch t {
	case schema.Int32:
		return schema.IntVal(int32(n))
	case schema.Int64:
		return schema.LongVal(n)
	case schema.Float64:
		return schema.FloatVal(float64(n))
	case schema.Date:
		return schema.DateVal(int32(n))
	}
	return schema.StringVal(strconv.FormatInt(n, 10))
}

// TestSortColumnOutsideTheSchemaIsRejected: a header naming a sort column
// the schema does not have fails at open, not in LookupRange.
func TestSortColumnOutsideTheSchemaIsRejected(t *testing.T) {
	two := schema.MustNew(schema.Field{Name: "k", Type: schema.Int32}, schema.Field{Name: "s", Type: schema.String})
	rows := []schema.Row{{schema.IntVal(1), schema.StringVal("a")}, {schema.IntVal(2), schema.StringVal(strings.Repeat("b", 9))}}
	data, err := MarshalBlock(two, rows, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []int32{7, 2, -2} {
		bad := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(bad[6:], uint32(col)) // after magic and version
		if _, err := NewBlockReader(bad); err == nil {
			t.Errorf("a block sorted on column %d of 2 opened", col)
		}
	}
}
