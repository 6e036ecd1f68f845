package mapred

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/schema"
)

// randomBatch builds a batch of n rows over every attribute type, with the
// values that format differently from how a glance would write them:
// negative and 64-bit integers, floats with exponents, ±Inf, dates outside
// four-digit years, empty strings and strings holding the separator. The
// seventh column is random floats: short decimals, as stored floats are,
// one ulp off them, and raw bit patterns. The last two are string columns
// as a reader's cursor hands a stored run over whole (Vector.Pack), one
// per terminator walk.
func randomBatch(rng *rand.Rand, n int) *Batch {
	types := []schema.Type{schema.String, schema.Int32, schema.Float64, schema.Date, schema.Int64, schema.String, schema.Float64}
	floats := []float64{0, -0.25, 1e21, 1e-7, 123456.789, math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64}
	strs := []string{"", ",", "a,b", "172.101.11.46", "http://x.example.com/p?q=1,2", "ünï"}
	b := &Batch{}
	for c, typ := range types {
		vec := schema.NewVector(typ)
		for i := 0; i < n; i++ {
			if c == len(types)-1 {
				v := float64(rng.Intn(10_000_000)-5_000_000) / math.Pow10(rng.Intn(8))
				switch rng.Intn(4) {
				case 0:
					v = math.Nextafter(v, math.Inf(1))
				case 1:
					v = math.Float64frombits(rng.Uint64())
				}
				vec.Append(schema.FloatVal(v))
				continue
			}
			switch typ {
			case schema.Int32:
				vec.Append(schema.IntVal(int32(rng.Uint32())))
			case schema.Int64:
				vec.Append(schema.LongVal(int64(rng.Uint64())))
			case schema.Float64:
				if rng.Intn(2) == 0 {
					vec.Append(schema.FloatVal(floats[rng.Intn(len(floats))]))
				} else {
					vec.Append(schema.FloatVal(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))))
				}
			case schema.Date:
				if rng.Intn(8) == 0 {
					vec.Append(schema.DateVal(int32(rng.Uint32())))
				} else {
					vec.Append(schema.DateVal(rng.Int31n(40_000) - 10_000))
				}
			case schema.String:
				vec.Append(schema.StringVal(strs[rng.Intn(len(strs))]))
			}
		}
		b.Cols = append(b.Cols, vec)
	}
	for _, long := range []bool{false, true} {
		var run []byte
		for i := 0; i < n; i++ {
			run = append(run, strs[rng.Intn(len(strs))]...)
			run = append(run, 0)
		}
		vec := schema.NewVector(schema.String)
		vec.Pack(run, n, long)
		b.Cols = append(b.Cols, vec)
	}
	return b
}

// strconvLine is Row.Line with every float formatted by strconv itself:
// the text schema.AppendFloat must reproduce.
func strconvLine(r schema.Row, sep byte) string {
	var b []byte
	for i, v := range r {
		if i > 0 {
			b = append(b, sep)
		}
		if v.Type() == schema.Float64 {
			b = strconv.AppendFloat(b, v.Float(), 'g', -1, 64)
		} else {
			b = append(b, v.String()...)
		}
	}
	return string(b)
}

// TestLinesMatchesEachAndRowLine: Batch.Lines is Each + Row.Line without
// the rows — the same text, row for row — and both format floats as
// strconv does. The engine's passthrough job emits from Lines and its
// caches and oracles were filled from Row.Line, so the two may not differ
// by a byte. The first separator's Lines reads the packed columns in
// order, before Each's random access builds their directories; the second
// reads them through the directories.
func TestLinesMatchesEachAndRowLine(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for round := 0; round < 200; round++ {
		n := 1 + rng.Intn(40)
		b := randomBatch(rng, n)
		b.Bad = []string{"a bad record is no part of Lines"}
		if round%2 == 0 { // every row; otherwise none
			b.Rows = n
		}
		if !b.Cols[len(b.Cols)-1].Packed() {
			t.Fatalf("round %d: the last column is not packed", round)
		}
		for _, sep := range []byte{',', '|'} {
			text, ends := b.Lines(sep)
			var want []string
			b.Each(func(r Record) {
				if !r.Bad {
					want = append(want, r.Row.Line(sep))
					if ref := strconvLine(r.Row, sep); want[len(want)-1] != ref {
						t.Fatalf("round %d: Row.Line gives %q, strconv %q", round, want[len(want)-1], ref)
					}
				}
			})
			if len(ends) != len(want) {
				t.Fatalf("round %d: Lines has %d rows, Each delivered %d", round, len(ends), len(want))
			}
			from := int32(0)
			for k, to := range ends {
				if got := text[from:to]; got != want[k] {
					t.Fatalf("round %d row %d: Lines gives %q, Row.Line %q", round, k, got, want[k])
				}
				from = to
			}
			if int(from) != len(text) {
				t.Fatalf("round %d: %d bytes of text after the last row", round, len(text)-int(from))
			}
		}
	}
}

// TestEachDeliversRowsThenRawThenBad: a batch's records are its rows in
// order, then its raw lines, then its bad records, and NumRows counts all
// three.
func TestEachDeliversRowsThenRawThenBad(t *testing.T) {
	vec := schema.NewVector(schema.Int32)
	for _, v := range []int32{10, 30, 50} {
		vec.Append(schema.IntVal(v))
	}
	b := &Batch{
		Cols: []*schema.Vector{vec},
		Rows: 2, // the vector's third value is past the batch
		Raw:  []string{"raw one", "raw two"},
		Bad:  []string{"bad"},
	}
	if got := b.NumRows(); got != 5 {
		t.Errorf("NumRows = %d, want 5", got)
	}
	var got []string
	b.Each(func(r Record) {
		got = append(got, fmt.Sprintf("%s|%q|%v", r.Row.Line(','), r.Raw, r.Bad))
	})
	want := []string{`10|""|false`, `30|""|false`, `|"raw one"|false`, `|"raw two"|false`, `|"bad"|true`}
	if !slices.Equal(got, want) {
		t.Errorf("Each delivered\n %q\nwant\n %q", got, want)
	}
}

// TestLinesAllocatesPerBatchNotPerRow: once the batch's scratch has grown,
// Lines costs the one string it returns.
func TestLinesAllocatesPerBatchNotPerRow(t *testing.T) {
	b := randomBatch(rand.New(rand.NewSource(31)), 1024)
	b.Rows = 1024
	b.Lines(',')
	if allocs := testing.AllocsPerRun(20, func() { b.Lines(',') }); allocs > 2 {
		t.Errorf("Lines over 1,024 rows allocates %v times", allocs)
	}
}
