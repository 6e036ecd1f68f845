package index

import (
	"encoding/binary"
	"math"
	"slices"
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
// an error, never a panic, and allocates in proportion to the input. A
// decode in place is a fresh decode: the same bytes decoded into an Index
// that last held another index — of another key type, with more keys —
// give the same index, or the same error.
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
	// What the reused Index held before: string keys before any other
	// input, int keys before string keys; more keys than every seed.
	priorStr, priorInt := fuzzSeedIndex(f, 2, 9*pax.PartitionSize), fuzzSeedIndex(f, 0, 9*pax.PartitionSize)
	f.Fuzz(func(t *testing.T, data []byte) {
		var ix *Index
		var err error
		fuzzcheck.BoundedAlloc(t, len(data), func() {
			if ix, err = Unmarshal(data); err != nil {
				return
			}
			if ix.NumPartitions() > 0 {
				lo, hi := ix.keys[0], ix.keys[len(ix.keys)-1]
				if from, to, ok := ix.PartitionRange(&lo, &hi); !ok || from != 0 || to != ix.NumRows() {
					t.Fatalf("lookup from first to last key returned rows [%d,%d) (ok=%v) of %d", from, to, ok, ix.NumRows())
				}
			}
		})
		prior := priorStr
		if ix != nil && ix.KeyType() == schema.String {
			prior = priorInt
		}
		var re Index
		if err := re.UnmarshalBinary(prior); err != nil {
			t.Fatal(err)
		}
		reErr := re.UnmarshalBinary(data)
		switch {
		case (err == nil) != (reErr == nil):
			t.Fatalf("fresh decode: %v; in place: %v", err, reErr)
		case err != nil:
			if err.Error() != reErr.Error() {
				t.Fatalf("fresh decode fails with %q, in place with %q", err, reErr)
			}
		case re.column != ix.column || re.keyType != ix.keyType || re.numRows != ix.numRows || !slices.Equal(re.keys, ix.keys):
			t.Fatalf("in place decoded column %d, %s keys, %d rows, keys %v; fresh %d, %s, %d, %v",
				re.column, re.keyType, re.numRows, re.keys, ix.column, ix.keyType, ix.numRows, ix.keys)
		}
	})
}
