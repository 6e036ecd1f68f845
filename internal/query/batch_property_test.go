package query

import (
	"math/rand"
	"testing"

	"repro/internal/schema"
)

// randValue draws a value of type t from a small domain so predicate
// bounds frequently coincide with data values — the boundary cases where
// an off-by-one in a kernel's >=/<= would hide.
func randValue(rng *rand.Rand, t schema.Type) schema.Value {
	switch t {
	case schema.Int32:
		return schema.IntVal(int32(rng.Intn(21) - 10))
	case schema.Date:
		return schema.DateVal(int32(rng.Intn(21)))
	case schema.Int64:
		return schema.LongVal(int64(rng.Intn(21) - 10))
	case schema.Float64:
		return schema.FloatVal(float64(rng.Intn(41)-20) / 4)
	case schema.String:
		letters := []string{"", "a", "ab", "b", "ba", "c", "zz"}
		return schema.StringVal(letters[rng.Intn(len(letters))])
	}
	panic("unreachable")
}

// randPredicate draws a predicate on column col of type t, covering every
// kind: point, between, at-least, at-most, and fully unbounded. Inverted
// ranges are normalized as Query.Validate requires.
func randPredicate(rng *rand.Rand, col int, t schema.Type) Predicate {
	switch rng.Intn(5) {
	case 0:
		return Eq(col, randValue(rng, t))
	case 1:
		lo, hi := randValue(rng, t), randValue(rng, t)
		if lo.Compare(hi) > 0 {
			lo, hi = hi, lo
		}
		return Between(col, lo, hi)
	case 2:
		return AtLeast(col, randValue(rng, t))
	case 3:
		return AtMost(col, randValue(rng, t))
	default:
		return Predicate{Column: col}
	}
}

var propTypes = []schema.Type{
	schema.Int32, schema.Date, schema.Int64, schema.Float64, schema.String,
}

// TestFilterVectorMatchesScalar holds the batch kernel equal to the scalar
// Matches on randomized vectors, per type, including empty vectors and
// empty starting selections.
func TestFilterVectorMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 500; trial++ {
		typ := propTypes[rng.Intn(len(propTypes))]
		n := rng.Intn(40) // 0..39 rows, often small, sometimes empty
		vec := schema.NewVector(typ)
		for i := 0; i < n; i++ {
			vec.Append(randValue(rng, typ))
		}
		p := randPredicate(rng, 0, typ)

		var start Selection
		if rng.Intn(10) == 0 {
			start = Selection{} // empty starting selection stays empty
		} else {
			start = MakeSelection(nil, n)
			if rng.Intn(3) == 0 && n > 0 {
				// Random subset, still ascending: simulate a prior conjunct.
				kept := start[:0]
				for _, i := range start {
					if rng.Intn(2) == 0 {
						kept = append(kept, i)
					}
				}
				start = kept
			}
		}
		wantSel := make([]int32, 0, len(start))
		for _, i := range start {
			if p.Matches(vec.Value(int(i))) {
				wantSel = append(wantSel, i)
			}
		}
		got := p.FilterVector(vec, start)
		if len(got) != len(wantSel) {
			t.Fatalf("trial %d (%s, %s): kernel kept %d rows, scalar kept %d",
				trial, typ, p, len(got), len(wantSel))
		}
		for k := range wantSel {
			if got[k] != wantSel[k] {
				t.Fatalf("trial %d (%s, %s): selection[%d] = %d, want %d",
					trial, typ, p, k, got[k], wantSel[k])
			}
		}
	}
}

// TestMatchesBatchMatchesRow holds the full conjunction equal between the
// batch and row forms on randomized multi-column blocks.
func TestMatchesBatchMatchesRow(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for trial := 0; trial < 300; trial++ {
		nCols := 1 + rng.Intn(4)
		types := make([]schema.Type, nCols)
		cols := make([]*schema.Vector, nCols)
		for c := range cols {
			types[c] = propTypes[rng.Intn(len(propTypes))]
			cols[c] = schema.NewVector(types[c])
		}
		n := rng.Intn(60)
		rows := make([]schema.Row, n)
		for i := 0; i < n; i++ {
			row := make(schema.Row, nCols)
			for c := range cols {
				v := randValue(rng, types[c])
				row[c] = v
				cols[c].Append(v)
			}
			rows[i] = row
		}
		q := &Query{}
		for k := rng.Intn(4); k > 0; k-- {
			col := rng.Intn(nCols)
			q.Filter = append(q.Filter, randPredicate(rng, col, types[col]))
		}

		sel := q.MatchesBatch(func(c int) *schema.Vector { return cols[c] }, MakeSelection(nil, n))
		want := make([]int32, 0, n)
		for i, row := range rows {
			if q.MatchesRow(row) {
				want = append(want, int32(i))
			}
		}
		if len(sel) != len(want) {
			t.Fatalf("trial %d (%s): batch kept %d, row-at-a-time kept %d", trial, q, len(sel), len(want))
		}
		for k := range want {
			if sel[k] != want[k] {
				t.Fatalf("trial %d (%s): selection[%d] = %d, want %d", trial, q, k, sel[k], want[k])
			}
		}
	}
}

// TestStringKernelDoesNotAllocate pins what the string kernel relies on:
// a string vector's values are byte windows, and comparing string(window)
// with a bound converts nothing — the compiler compares the bytes in
// place. Were it to copy, every row of a string filter would allocate.
func TestStringKernelDoesNotAllocate(t *testing.T) {
	vec := schema.NewVector(schema.String)
	for i := 0; i < 1024; i++ {
		vec.Append(schema.StringVal([]string{"a value longer than a small-string buffer would hold", "m", "zz"}[i%3]))
	}
	p := Between(0, schema.StringVal("b"), schema.StringVal("n"))
	sel := MakeSelection(nil, 1024)
	allocs := testing.AllocsPerRun(20, func() {
		if got := p.FilterVector(vec, MakeSelection(sel, 1024)); len(got) != 341 {
			t.Fatalf("kernel kept %d rows, want 341", len(got))
		}
	})
	if allocs != 0 {
		t.Errorf("string kernel over 1,024 rows allocates %v times", allocs)
	}
}
