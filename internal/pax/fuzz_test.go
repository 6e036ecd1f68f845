package pax

import (
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
	if _, err := b.SortBy(3); err != nil {
		f.Fatal(err)
	}
	data, err := b.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzNewReader: whatever the bytes, opening a block and reading all of it
// the way a scan does — one cursor per column over every row, then the
// bad-record section — yields values or an error, never a panic, and
// allocates in proportion to the input.
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
			for col := 0; col < r.Schema().NumFields(); col++ {
				c, err := r.NewColumnCursor(col, 0, r.NumRows())
				if err != nil {
					continue
				}
				vec := schema.NewVector(r.Schema().Field(col).Type)
				for {
					if n, err := c.Next(PartitionSize, vec); err != nil || n == 0 {
						break
					}
				}
			}
			if bad, err := r.ReadAllBad(); err == nil && len(bad) != r.NumBad() {
				t.Fatalf("ReadAllBad returned %d records, header says %d", len(bad), r.NumBad())
			}
		})
	})
}
