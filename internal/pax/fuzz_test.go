package pax

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/fuzzcheck"
	"repro/internal/schema"
)

// fuzzSeedBlock is a marshalled block of every column type, sorted, with
// bad records — the shape a datanode stores.
func fuzzSeedBlock(f *testing.F, rows int) []byte {
	b := buildBlock(nil, rows, 31)
	b.AppendBad("not,a,row")
	b.AppendBad("")
	if err := b.Sort(3); err != nil {
		f.Fatal(err)
	}
	data, err := b.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzNewReader: whatever the bytes, opening a block and reading all of it
// the way a scan does — one cursor per column over every row, decoding
// whole batches and then selected rows, then the bad-record section —
// yields values or an error, never a panic, and allocates in proportion to
// the input. Every string value is looked at, so a span outside the
// vector's Bytes is a failure here and not in a map function.
func FuzzNewReader(f *testing.F) {
	f.Add(fuzzSeedBlock(f, 2*PartitionSize+17))
	small := fuzzSeedBlock(f, 10)
	f.Add(small)
	f.Add(small[:len(small)/2])
	f.Add([]byte(blockMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzcheck.BoundedAlloc(t, len(data), func() {
			r, err := NewReader(data)
			if err != nil {
				return
			}
			touch := func(vec *schema.Vector) {
				for i := 0; vec.Type() == schema.String && i < vec.Len(); i++ {
					_ = vec.StrAt(i)
				}
			}
			sel := []int32{0, 1, 5, PartitionSize - 1}
			for col := 0; col < r.Schema().NumFields(); col++ {
				vec := schema.NewVector(r.Schema().Field(col).Type)
				if c, err := r.NewColumnCursor(col, 0, r.NumRows()); err == nil {
					for {
						if n, err := c.Next(PartitionSize, vec); err != nil || n == 0 {
							break
						}
						touch(vec)
					}
				}
				if c, err := r.NewColumnCursor(col, 0, r.NumRows()); err == nil {
					for c.Remaining() > 0 {
						n := min(PartitionSize, c.Remaining())
						k := 0
						for k < len(sel) && int(sel[k]) < n {
							k++
						}
						if _, err := c.NextSelected(n, sel[:k], vec); err != nil {
							break
						}
						if vec.Len() != k {
							t.Fatalf("NextSelected delivered %d values for %d selected rows", vec.Len(), k)
						}
						touch(vec)
					}
				}
			}
			if bad, err := r.ReadAllBad(); err == nil && len(bad) != r.NumBad() {
				t.Fatalf("ReadAllBad returned %d records, header says %d", len(bad), r.NumBad())
			}
		})
	})
}

// withGarbageAfterLastString returns the marshalled block data with junk
// (terminators included) between the last string column's final value and
// the bad-record section, the directory patched to match: bytes the header
// parse accepts and only the terminator scan tells from values.
func withGarbageAfterLastString(data []byte) []byte {
	junk := []byte("junk\x00after\x00the\x00values")
	dirAt := fixedHeader + len(testSchema.String()) + 2
	urlDir, badDir := dirAt+4*8, dirAt+5*8
	badOff := int(binary.LittleEndian.Uint32(data[badDir:]))
	out := append(append(append([]byte(nil), data[:badOff]...), junk...), data[badOff:]...)
	binary.LittleEndian.PutUint32(out[urlDir+4:], binary.LittleEndian.Uint32(data[urlDir+4:])+uint32(len(junk)))
	binary.LittleEndian.PutUint32(out[badDir:], uint32(badOff+len(junk)))
	return out
}

// FuzzUnmarshal: whatever the bytes, Unmarshal yields an error or a block
// that can be sorted on every attribute and marshalled — the datanode's
// transform — without a panic, without allocating out of proportion to
// the input and without writing to the input it aliases; and what Marshal
// writes, Unmarshal reads back to the same bytes.
func FuzzUnmarshal(f *testing.F) {
	f.Add(fuzzSeedBlock(f, 2*PartitionSize+17))
	small := fuzzSeedBlock(f, 10)
	f.Add(small)
	f.Add(small[:len(small)/2])
	f.Add(small[:len(small)-1])
	f.Add(withGarbageAfterLastString(small))
	f.Fuzz(func(t *testing.T, data []byte) {
		input := bytes.Clone(data)
		var b *Block
		var err error
		fuzzcheck.BoundedAlloc(t, len(data), func() { b, err = Unmarshal(data) })
		if err != nil {
			return
		}
		for col := 0; col < b.Schema().NumFields(); col++ {
			var out []byte
			fuzzcheck.BoundedAlloc(t, len(data), func() {
				if err = b.Sort(col); err == nil {
					out, err = b.Marshal()
				}
			})
			if err != nil {
				t.Fatalf("sorting on %d and marshalling: %v", col, err)
			}
			for r := 1; r < b.NumRows(); r++ {
				if b.Value(r-1, col).Compare(b.Value(r, col)) > 0 {
					t.Fatalf("sorted on %d, rows %d and %d are out of order", col, r-1, r)
				}
			}
			back, err := Unmarshal(out)
			if err != nil {
				t.Fatalf("Unmarshal of Marshal's output: %v", err)
			}
			if again, err := back.Marshal(); err != nil || !bytes.Equal(again, out) {
				t.Fatalf("block sorted on %d does not round-trip (%v)", col, err)
			}
		}
		if !bytes.Equal(data, input) {
			t.Fatal("the input was written to")
		}
	})
}
