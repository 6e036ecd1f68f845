package trojan

import (
	"encoding/binary"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fuzzcheck"
	"repro/internal/schema"
)

// FuzzBlockReader: whatever the bytes, opening a trojan block, looking a
// range of its sort column up and scanning its rows return a result or an
// error, never a panic, and allocate in proportion to the input. The
// seeds are blocks indexed on each of sch's types and one unindexed.
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
