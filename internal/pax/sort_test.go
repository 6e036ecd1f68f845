package pax_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/index"
	"repro/internal/pax"
	"repro/internal/schema"
)

// The property test's schema: one attribute of every type, and the arrival
// position, which makes every row distinct so that an unstable sort shows
// in the bytes.
var sortSchema = schema.MustNew(
	schema.Field{Name: "i32", Type: schema.Int32},
	schema.Field{Name: "i64", Type: schema.Int64},
	schema.Field{Name: "f64", Type: schema.Float64},
	schema.Field{Name: "day", Type: schema.Date},
	schema.Field{Name: "str", Type: schema.String},
	schema.Field{Name: "seq", Type: schema.Int32},
)

// Values picked to break a key transform: the ends of each range, both
// zeros, infinities, and strings that differ only past their first eight
// bytes, prefix one another, are empty or hold bytes a signed comparison
// would misplace.
var (
	edgeI32 = []int32{math.MinInt32, math.MaxInt32, -1, 0, 1, 1 << 24, -(1 << 24)}
	edgeI64 = []int64{math.MinInt64, math.MaxInt64, -1, 0, 1, 1 << 40, -(1 << 40), math.MinInt32, math.MaxInt32}
	edgeF64 = []float64{math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), -1.5, 1.5, -math.MaxFloat64,
		math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 1e-300, -1e300}
	edgeStr = []string{"", "a", "ab", "abcdefg", "abcdefgh", "abcdefgha", "abcdefghb", "abcdefgh\x01",
		"abcdefghabcdefgh", "abcdefghabcdefgh!", "abcdefghabcdefgi", "http://example.com/a", "http://example.com/b",
		"\x80", "\xff\xfe", "\x7f", "é", "zz\xffzzzzzz\x80", "zz\xffzzzzzz\x7f"}
)

// sortRows makes n rows. mode "edge" draws every attribute from the edge
// values (few distinct keys, so duplicate runs cross partition
// boundaries), "equal" gives every row the same keys, "random" mixes
// edge values into wide random ones.
func sortRows(n int, mode string, rng *rand.Rand) []schema.Row {
	rows := make([]schema.Row, n)
	for i := range rows {
		row := schema.Row{
			schema.IntVal(edgeI32[rng.Intn(len(edgeI32))]),
			schema.LongVal(edgeI64[rng.Intn(len(edgeI64))]),
			schema.FloatVal(edgeF64[rng.Intn(len(edgeF64))]),
			schema.DateVal(edgeI32[rng.Intn(len(edgeI32))]),
			schema.StringVal(edgeStr[rng.Intn(len(edgeStr))]),
			schema.IntVal(int32(i)),
		}
		switch {
		case mode == "equal":
			row = schema.Row{schema.IntVal(7), schema.LongVal(-7), schema.FloatVal(math.Copysign(0, float64(i%2)-1)),
				schema.DateVal(7), schema.StringVal("abcdefghabcdefgh"), schema.IntVal(int32(i))}
		case mode == "random" && rng.Intn(8) > 0:
			s := make([]byte, rng.Intn(20))
			for j := range s {
				s[j] = byte(1 + rng.Intn(255))
			}
			row = schema.Row{schema.IntVal(int32(rng.Uint32())), schema.LongVal(int64(rng.Uint64())),
				schema.FloatVal(rng.NormFloat64() * 1e3), schema.DateVal(rng.Int31n(20000)),
				schema.StringVal(string(s)), schema.IntVal(int32(i))}
		}
		rows[i] = row
	}
	return rows
}

func blockOf(t *testing.T, rows []schema.Row) *pax.Block {
	t.Helper()
	b := pax.NewBlock(sortSchema)
	for _, r := range rows {
		if err := b.AppendRow(r); err != nil {
			t.Fatal(err)
		}
	}
	b.AppendBad("a bad record")
	return b
}

// oracleSort is what Sort replaced: the rows themselves, stable-sorted
// through Value.Compare.
func oracleSort(rows []schema.Row, col int) []schema.Row {
	out := append([]schema.Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool { return out[i][col].Compare(out[j][col]) < 0 })
	return out
}

// sortedBytes returns the serialized block and index of b clustered on col.
func sortedBytes(t *testing.T, b *pax.Block, col int) (blockData, indexData []byte) {
	t.Helper()
	ix, err := index.Build(b, col)
	if err != nil {
		t.Fatal(err)
	}
	if indexData, err = ix.Marshal(); err != nil {
		t.Fatal(err)
	}
	if blockData, err = b.Marshal(); err != nil {
		t.Fatal(err)
	}
	return blockData, indexData
}

// TestSortByMatchesRowSortOracle holds Sort — on a block built by
// AppendRow and on one that aliases marshalled bytes — to the bytes the
// row-at-a-time stable sort produces, for every attribute type, at the
// partition-boundary sizes, and again when the sorted block is re-sorted
// on the next attribute (the adaptive indexer's case).
func TestSortByMatchesRowSortOracle(t *testing.T) {
	nKeys := sortSchema.NumFields() - 1
	for _, n := range []int{0, 1, 1023, 1024, 1025, 3*1024 + 17} {
		for _, mode := range []string{"edge", "equal", "random"} {
			rows := sortRows(n, mode, rand.New(rand.NewSource(int64(n))))
			arrival, err := blockOf(t, rows).Marshal()
			if err != nil {
				t.Fatal(err)
			}
			for col := 0; col < nKeys; col++ {
				name := fmt.Sprintf("n=%d/%s/%s", n, mode, sortSchema.Field(col).Name)
				want := oracleSort(rows, col)
				wantOracle := blockOf(t, want)
				// The oracle block is in sorted order already; sorting it
				// with the code under test must then leave every row where
				// it is, and stamps the sort column the index builder
				// requires.
				if err := wantOracle.Sort(col); err != nil {
					t.Fatal(err)
				}
				for i, row := range want {
					if !wantOracle.Row(i).Equal(row) {
						t.Fatalf("%s: Sort moves row %d of the rows the oracle has sorted", name, i)
					}
				}
				wantBlock, wantIndex := sortedBytes(t, wantOracle, col)

				built := blockOf(t, rows)
				decoded, err := pax.Unmarshal(arrival)
				if err != nil {
					t.Fatal(err)
				}
				for what, b := range map[string]*pax.Block{"built": built, "unmarshalled": decoded} {
					if err := b.Sort(col); err != nil {
						t.Fatal(err)
					}
					gotBlock, gotIndex := sortedBytes(t, b, col)
					if !bytes.Equal(gotBlock, wantBlock) {
						t.Fatalf("%s: %s block sorted differently from the oracle", name, what)
					}
					if !bytes.Equal(gotIndex, wantIndex) {
						t.Fatalf("%s: %s block's index keys differ from the oracle's", name, what)
					}
				}

				// Re-sort the sorted replica on the next attribute.
				next := (col + 1) % nKeys
				resorted, err := pax.Unmarshal(wantBlock)
				if err != nil {
					t.Fatal(err)
				}
				if err := resorted.Sort(next); err != nil {
					t.Fatal(err)
				}
				again := blockOf(t, oracleSort(want, next))
				if err := again.Sort(next); err != nil {
					t.Fatal(err)
				}
				wantBlock, wantIndex = sortedBytes(t, again, next)
				gotBlock, gotIndex := sortedBytes(t, resorted, next)
				if !bytes.Equal(gotBlock, wantBlock) || !bytes.Equal(gotIndex, wantIndex) {
					t.Fatalf("%s: re-sorting on %s differs from the oracle", name, sortSchema.Field(next).Name)
				}
			}
		}
	}
}

// A block AppendRow filled with values Marshal would refuse still sorts
// as the oracle does: a NUL inside a value is data, not key padding.
func TestSortByOrdersStringsHoldingNUL(t *testing.T) {
	strs := []string{"a", "a\x00", "a\x00b", "", "\x00", "abcdefgh", "abcdefgh\x00", "abcdefg\x00h", "abcdefg"}
	rows := make([]schema.Row, 300)
	rng := rand.New(rand.NewSource(1))
	for i := range rows {
		rows[i] = sortRows(1, "edge", rng)[0]
		rows[i][4], rows[i][5] = schema.StringVal(strs[rng.Intn(len(strs))]), schema.IntVal(int32(i))
	}
	b := blockOf(t, rows)
	if err := b.Sort(4); err != nil {
		t.Fatal(err)
	}
	for i, want := range oracleSort(rows, 4) {
		if !b.Row(i).Equal(want) {
			t.Fatalf("row %d is %v, the oracle has %v", i, b.Row(i), want)
		}
	}
	if _, err := b.Marshal(); err == nil {
		t.Error("Marshal accepted string values containing NUL")
	}
}
