package index

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/fuzzcheck"
	"repro/internal/pax"
	"repro/internal/schema"
)

// fuzzSeedIndex marshals the index of a block sorted on col, with bad
// records in the block (they must not reach the index).
func fuzzSeedIndex(f *testing.F, col, rows int) []byte {
	s := schema.MustNew(
		schema.Field{Name: "id", Type: schema.Int32},
		schema.Field{Name: "rev", Type: schema.Float64},
		schema.Field{Name: "url", Type: schema.String},
	)
	b := pax.NewBlock(s)
	for i := 0; i < rows; i++ {
		row := schema.Row{schema.IntVal(int32(i * 7 % 1000)), schema.FloatVal(float64(i%97) / 4), schema.StringVal("u/" + string(rune('a'+i%26)))}
		if err := b.AppendRow(row); err != nil {
			f.Fatal(err)
		}
	}
	b.AppendBad("not,a,row")
	if err := b.Sort(col); err != nil {
		f.Fatal(err)
	}
	ix, err := Build(b, col)
	if err != nil {
		f.Fatal(err)
	}
	data, err := ix.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzIndexUnmarshal: whatever the bytes, decoding an index yields one
// whose lookup from its first key to its last covers the whole block, or
// an error, never a panic, and allocates in proportion to the input.
func FuzzIndexUnmarshal(f *testing.F) {
	for col := 0; col < 3; col++ {
		f.Add(fuzzSeedIndex(f, col, 3*pax.PartitionSize+5))
	}
	f.Add(fuzzSeedIndex(f, 0, 0))
	// Float keys 1e9, NaN, then the rest ascending: out of order, but NaN
	// compares equal to both neighbours.
	nan := fuzzSeedIndex(f, 1, 3*pax.PartitionSize+5)
	binary.LittleEndian.PutUint64(nan[19:], math.Float64bits(1e9))
	binary.LittleEndian.PutUint64(nan[19+8:], math.Float64bits(math.NaN()))
	f.Add(nan)
	f.Add([]byte(indexMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzcheck.BoundedAlloc(t, len(data), func() {
			ix, err := Unmarshal(data)
			if err != nil {
				return
			}
			if ix.NumPartitions() > 0 {
				lo, hi := ix.keys[0], ix.keys[len(ix.keys)-1]
				if from, to, ok := ix.PartitionRange(&lo, &hi); !ok || from != 0 || to != ix.NumRows() {
					t.Fatalf("lookup from first to last key returned rows [%d,%d) (ok=%v) of %d", from, to, ok, ix.NumRows())
				}
			}
		})
	})
}
