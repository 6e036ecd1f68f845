package pax

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/hdfs"
	"repro/internal/query"
	"repro/internal/schema"
)

// drainCursor collects the cursor's remaining rows in batches of batchN.
func drainCursor(t *testing.T, c *ColumnCursor, typ schema.Type, batchN int) []schema.Value {
	t.Helper()
	vec := schema.NewVector(typ)
	var out []schema.Value
	for {
		n, err := c.Next(batchN, vec)
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		if n == 0 {
			break
		}
		if vec.Len() != n {
			t.Fatalf("Next returned %d but vector has %d values", n, vec.Len())
		}
		for i := 0; i < n; i++ {
			out = append(out, vec.Value(i))
		}
	}
	return out
}

func TestColumnCursorMatchesReadColumnRange(t *testing.T) {
	b := buildBlock(t, 4000, 21)
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int{
		{0, 4000},                          // whole block
		{1500, 2600},                       // interior, crosses a partition boundary
		{0, 1},                             // single row
		{PartitionSize, 2 * PartitionSize}, // exactly one partition
		{PartitionSize - 1, PartitionSize}, // last row of a partition
		{PartitionSize, PartitionSize + 1}, // first row of a partition
		{3999, 4000},                       // last row of the block
		{700, 700},                         // empty
	}
	for col := 0; col < testSchema.NumFields(); col++ {
		typ := testSchema.Field(col).Type
		for _, rg := range ranges {
			from, to := rg[0], rg[1]
			for _, batchN := range []int{1, 7, PartitionSize, 5000} {
				r, err := NewReader(data)
				if err != nil {
					t.Fatal(err)
				}
				c, err := r.NewColumnCursor(col, from, to)
				if err != nil {
					t.Fatalf("col %d [%d,%d): %v", col, from, to, err)
				}
				if c.Remaining() != to-from {
					t.Fatalf("col %d: Remaining = %d, want %d", col, c.Remaining(), to-from)
				}
				got := drainCursor(t, c, typ, batchN)

				ref, err := NewReader(data)
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.ReadColumnRange(col, from, to)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("col %d [%d,%d) batch %d: %d values, want %d", col, from, to, batchN, len(got), len(want))
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						t.Fatalf("col %d [%d,%d) row %d: %v != %v", col, from, to, i, got[i], want[i])
					}
				}
				// The cursor must cost exactly what the eager range read
				// costs — all raw reads happen at creation, none during Next.
				if r.Stats() != ref.Stats() {
					t.Fatalf("col %d [%d,%d): cursor stats %+v != range stats %+v",
						col, from, to, r.Stats(), ref.Stats())
				}
			}
		}
	}
}

func TestColumnCursorMultiColumnSeekParity(t *testing.T) {
	// Opening cursors for several columns in ascending order must produce
	// the same seek count as the row path's ascending ReadColumnRange
	// calls — this is what keeps block scan I/O accounting byte-identical
	// between the row and batch pipelines.
	b := buildBlock(t, 3000, 22)
	data, _ := b.Marshal()
	cols := []int{0, 2, 4}
	from, to := 800, 2500

	cur, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range cols {
		if _, err := cur.NewColumnCursor(col, from, to); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range cols {
		if _, err := ref.ReadColumnRange(col, from, to); err != nil {
			t.Fatal(err)
		}
	}
	if cur.Stats() != ref.Stats() {
		t.Fatalf("cursor stats %+v != range stats %+v", cur.Stats(), ref.Stats())
	}
}

func TestColumnCursorSkip(t *testing.T) {
	b := buildBlock(t, 2*PartitionSize, 23)
	data, _ := b.Marshal()
	for col := 0; col < testSchema.NumFields(); col++ {
		typ := testSchema.Field(col).Type
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		c, err := r.NewColumnCursor(col, 10, 2*PartitionSize)
		if err != nil {
			t.Fatal(err)
		}
		// Skip one batch (nil dst), then decode: values must line up with
		// the rows after the skipped span.
		skipN := 300
		if n, err := c.Next(skipN, nil); err != nil || n != skipN {
			t.Fatalf("skip: n=%d err=%v", n, err)
		}
		vec := schema.NewVector(typ)
		n, err := c.Next(50, vec)
		if err != nil || n != 50 {
			t.Fatalf("decode after skip: n=%d err=%v", n, err)
		}
		for i := 0; i < n; i++ {
			want := b.Value(10+skipN+i, col)
			if !vec.Value(i).Equal(want) {
				t.Fatalf("col %d: after skip, row %d = %v, want %v", col, i, vec.Value(i), want)
			}
		}
	}
}

// TestColumnCursorRunMatchesKernel holds the binary search to the kernel
// it stands in for: on a replica sorted by each fixed-size column, over
// ranges inside and across partitions and after skipped rows, the run Run
// finds is exactly the rows query.Predicate.FilterVector keeps of the same
// rows, and those rows are contiguous. The values repeat in runs that
// cross partition boundaries; they include both zeros and both infinities,
// and so do the bounds, which are also nil, equal, crossed, between the
// stored values or NaN, which the kernel compares false with everything.
func TestColumnCursorRunMatchesKernel(t *testing.T) {
	sch := schema.MustNew(
		schema.Field{Name: "i32", Type: schema.Int32},
		schema.Field{Name: "day", Type: schema.Date},
		schema.Field{Name: "i64", Type: schema.Int64},
		schema.Field{Name: "f64", Type: schema.Float64},
	)
	ints := func(mk func(int64) schema.Value, vs ...int64) []schema.Value {
		out := make([]schema.Value, len(vs))
		for i, v := range vs {
			out[i] = mk(v)
		}
		return out
	}
	i32 := func(v int64) schema.Value { return schema.IntVal(int32(v)) }
	day := func(v int64) schema.Value { return schema.DateVal(int32(v)) }
	negZero := math.Copysign(0, -1)
	stored := [][]schema.Value{
		ints(i32, math.MinInt32, -3, 0, 7, math.MaxInt32),
		ints(day, -719162, -1, 0, 11000, 2932896),
		ints(schema.LongVal, math.MinInt64, -5, 0, 9, math.MaxInt64),
		{schema.FloatVal(math.Inf(-1)), schema.FloatVal(-1.5), schema.FloatVal(negZero), schema.FloatVal(0), schema.FloatVal(2.5), schema.FloatVal(math.Inf(1))},
	}
	between := [][]schema.Value{
		ints(i32, -4, 1, 8),
		ints(day, -2, 1, 11001),
		ints(schema.LongVal, -6, 1, 10),
		{schema.FloatVal(-2), schema.FloatVal(1), schema.FloatVal(3), schema.FloatVal(math.NaN())},
	}

	const n = 3*PartitionSize + 100
	rng := rand.New(rand.NewSource(37))
	b := NewBlock(sch)
	for i := 0; i < n; i++ {
		row := make(schema.Row, len(stored))
		for c, vs := range stored {
			row[c] = vs[rng.Intn(len(vs))]
		}
		if err := b.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	ranges := [][2]int{{0, n}, {0, PartitionSize}, {PartitionSize - 7, 2*PartitionSize + 5}, {2 * PartitionSize, n}, {n - 1, n}, {500, 500}}

	var empty, atStart, atEnd, crossing int
	for col, vs := range stored {
		sorted := b.View()
		if err := sorted.Sort(col); err != nil {
			t.Fatal(err)
		}
		if sorted.Value(PartitionSize-1, col).Compare(sorted.Value(PartitionSize, col)) != 0 {
			t.Fatalf("col %d: no run of duplicates crosses the first partition boundary", col)
		}
		data, err := sorted.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		bounds := append([]*schema.Value{nil}, ptrs(append(slices.Clone(vs), between[col]...))...)
		for _, rg := range ranges {
			for _, skipped := range []int{0, (rg[1] - rg[0]) / 3} {
				vec := schema.NewVector(sch.Field(col).Type)
				ref, err := r.NewColumnCursor(col, rg[0], rg[1])
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ref.Next(skipped, nil); err != nil {
					t.Fatal(err)
				}
				rows, err := ref.Next(ref.Remaining(), vec)
				if err != nil {
					t.Fatal(err)
				}
				for _, lo := range bounds {
					for _, hi := range bounds {
						c, err := r.NewColumnCursor(col, rg[0], rg[1])
						if err != nil {
							t.Fatal(err)
						}
						if _, err := c.Next(skipped, nil); err != nil {
							t.Fatal(err)
						}
						from, to, ok := c.Run(lo, hi)
						if !ok || c.Remaining() != rows {
							t.Fatalf("col %d: Run ok=%v, Remaining %d after it, want true and %d", col, ok, c.Remaining(), rows)
						}
						p := query.Predicate{Column: col, Lo: lo, Hi: hi}
						keep := p.FilterVector(vec, query.MakeSelection(nil, rows))
						desc := fmt.Sprintf("col %d rows [%d,%d) after %d, %s", col, rg[0], rg[1], skipped, p)
						for i, s := range keep {
							if int(s) != int(keep[0])+i {
								t.Fatalf("%s: survivors %v are not contiguous", desc, keep)
							}
						}
						wantFrom, wantTo := from, from // an empty run may stand anywhere
						if len(keep) > 0 {
							wantFrom, wantTo = int(keep[0]), int(keep[len(keep)-1])+1
						}
						if from != wantFrom || to != wantTo || from < 0 || to > rows {
							t.Fatalf("%s: run [%d,%d), the kernel keeps [%d,%d) of %d", desc, from, to, wantFrom, wantTo, rows)
						}
						switch start := rg[0] + skipped; {
						case from == to:
							empty++
						case from == 0 && to == rows:
							atStart++
							atEnd++
						case from == 0:
							atStart++
						case to == rows:
							atEnd++
						default:
							if (start+from)/PartitionSize != (start+to-1)/PartitionSize {
								crossing++
							}
						}
					}
				}
			}
		}
	}
	if empty == 0 || atStart == 0 || atEnd == 0 || crossing == 0 {
		t.Fatalf("cases: %d empty runs, %d at the start, %d at the end, %d inner runs crossing a partition; want each > 0", empty, atStart, atEnd, crossing)
	}
	t.Logf("%d empty runs, %d at the start, %d at the end, %d inner runs crossing a partition", empty, atStart, atEnd, crossing)

	data, err := buildBlock(t, 100, 38).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	str, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := str.NewColumnCursor(4, 0, 100) // url: String
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Run(nil, nil); ok {
		t.Fatal("Run searched a variable-size column")
	}
}

func ptrs(vs []schema.Value) []*schema.Value {
	out := make([]*schema.Value, len(vs))
	for i := range vs {
		out[i] = &vs[i]
	}
	return out
}

// TestColumnCursorNextSelected: decoding only a selection out of each
// batch must yield exactly the selected rows' values, and the cursor must
// keep advancing full batches so mixed Next/NextSelected calls stay
// aligned with the row range.
func TestColumnCursorNextSelected(t *testing.T) {
	b := buildBlock(t, 3*PartitionSize, 25)
	data, _ := b.Marshal()
	from, to := 100, 3*PartitionSize-50
	sels := [][]int32{
		{},                 // nothing survives: advance only
		{0},                // first row of the batch
		{0, 1, 2},          // dense prefix
		{3, 97, 401, 500},  // scattered
		{511},              // last row of a 512-row batch
		{5, 6, 300, 301},   // pairs
		{17, 200, 350, 77}, // deliberately reused buffer shape below
	}
	for col := 0; col < testSchema.NumFields(); col++ {
		typ := testSchema.Field(col).Type
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		c, err := r.NewColumnCursor(col, from, to)
		if err != nil {
			t.Fatal(err)
		}
		vec := schema.NewVector(typ)
		base := from
		for i := 0; c.Remaining() > 0; i++ {
			const batchN = 512
			sel := sels[i%len(sels)]
			n := batchN
			if rem := c.Remaining(); n > rem {
				n = rem
			}
			kept := sel[:0:0]
			for _, s := range sel {
				if int(s) < n {
					kept = append(kept, s)
				}
			}
			if _, err := c.NextSelected(n, kept, vec); err != nil {
				t.Fatal(err)
			}
			if vec.Len() != len(kept) {
				t.Fatalf("col %d batch %d: %d values, want %d", col, i, vec.Len(), len(kept))
			}
			for j, s := range kept {
				want := b.Value(base+int(s), col)
				if !vec.Value(j).Equal(want) {
					t.Fatalf("col %d batch %d sel %d: %v, want %v", col, i, s, vec.Value(j), want)
				}
			}
			base += n
		}
		if base != to {
			t.Fatalf("col %d: cursor advanced to %d, want %d", col, base, to)
		}
	}
}

// TestColumnCursorNextSelectedUnsorted documents the contract: selection
// indices must be ascending; string columns silently skip out-of-order
// entries because the terminator walk is one-directional. (Fixed-width
// columns tolerate any order, but callers must not rely on that.)
func TestColumnCursorNextSelectedUnsorted(t *testing.T) {
	b := buildBlock(t, PartitionSize, 26)
	data, _ := b.Marshal()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	c, err := r.NewColumnCursor(4, 0, PartitionSize) // url: String
	if err != nil {
		t.Fatal(err)
	}
	vec := schema.NewVector(schema.String)
	if _, err := c.NextSelected(PartitionSize, []int32{10, 5}, vec); err != nil {
		t.Fatal(err)
	}
	if vec.Len() != 1 || !vec.Value(0).Equal(b.Value(10, 4)) {
		t.Fatalf("unsorted selection: got %d values, want the one in-order entry", vec.Len())
	}
}

func TestColumnCursorBounds(t *testing.T) {
	b := buildBlock(t, 100, 24)
	data, _ := b.Marshal()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.NewColumnCursor(-1, 0, 10); err == nil {
		t.Error("negative column accepted")
	}
	if _, err := r.NewColumnCursor(99, 0, 10); err == nil {
		t.Error("out-of-range column accepted")
	}
	if _, err := r.NewColumnCursor(0, -1, 10); err == nil {
		t.Error("negative fromRow accepted")
	}
	if _, err := r.NewColumnCursor(0, 5, 101); err == nil {
		t.Error("toRow beyond rows accepted")
	}
	if _, err := r.NewColumnCursor(0, 7, 3); err == nil {
		t.Error("inverted range accepted")
	}
	c, err := r.NewColumnCursor(0, 5, 5)
	if err != nil {
		t.Fatalf("empty range: %v", err)
	}
	if st := r.Stats(); st != (IOStats{}) {
		t.Errorf("empty cursor performed reads: %+v", st)
	}
	vec := schema.NewVector(schema.Int32)
	if n, err := c.Next(10, vec); err != nil || n != 0 {
		t.Errorf("Next on empty cursor: n=%d err=%v", n, err)
	}
}

// recordingSource serves a buffer and remembers every range asked of it.
type recordingSource struct {
	buf    []byte
	ranges [][2]int // {off, n}
}

func (s *recordingSource) Range(off, n int) ([]byte, error) {
	s.ranges = append(s.ranges, [2]int{off, n})
	return s.buf[off : off+n], nil
}

// TestReaderFetchesWhatIOStatsCounts: a Reader over a range source must
// ask the source for exactly the ranges its IOStats account — same bytes,
// same seeks — and for nothing else: the header reads stay inside the
// header, every read stays inside the block's window of the source, and
// decoding a cursor asks for nothing more. This is what makes the stats
// the cost model uses a description of the bytes a scan really moves.
func TestReaderFetchesWhatIOStatsCounts(t *testing.T) {
	b := buildBlock(t, 3*PartitionSize+100, 27)
	b.AppendBad("bad one")
	b.AppendBad("")
	b.AppendBad("bad,three")
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// The block sits in the middle of a larger store, as a PAX block does
	// inside a framed replica.
	const base = 37
	src := &recordingSource{buf: append(append(make([]byte, base), data...), "trailing index bytes"...)}
	r, err := NewReaderAt(src, base, len(data))
	if err != nil {
		t.Fatal(err)
	}
	headerEnd := base + r.colOff[0]
	for _, rg := range src.ranges {
		if rg[0] < base || rg[0]+rg[1] > headerEnd {
			t.Errorf("opening the reader fetched [%d,%d), outside the header [%d,%d)", rg[0], rg[0]+rg[1], base, headerEnd)
		}
	}
	if st := r.Stats(); st != (IOStats{}) {
		t.Errorf("header reads were accounted: %+v", st)
	}
	src.ranges = nil

	from, to := PartitionSize+10, 3*PartitionSize+50
	var cursors []*ColumnCursor
	for _, col := range []int{0, 2, 4} { // int32, float64, string
		c, err := r.NewColumnCursor(col, from, to)
		if err != nil {
			t.Fatal(err)
		}
		cursors = append(cursors, c)
	}
	bad, err := r.ReadAllBad(nil)
	if err != nil || len(bad) != 3 {
		t.Fatalf("ReadAllBad: %d records, %v", len(bad), err)
	}

	var want IOStats
	lastEnd := -1
	for _, rg := range src.ranges {
		if rg[0] < base || rg[0]+rg[1] > base+len(data) {
			t.Errorf("read [%d,%d) leaves the block's window [%d,%d)", rg[0], rg[0]+rg[1], base, base+len(data))
		}
		if rg[0] != lastEnd {
			want.Seeks++
		}
		want.BytesRead += int64(rg[1])
		lastEnd = rg[0] + rg[1]
	}
	if got := r.Stats(); got != want {
		t.Errorf("IOStats %+v, but the source served %+v in %d ranges", got, want, len(src.ranges))
	}

	// A bytes-backed reader accounts the same reads.
	ref, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []int{0, 2, 4} {
		if _, err := ref.ReadColumnRange(col, from, to); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ref.ReadAllBad(nil); err != nil {
		t.Fatal(err)
	}
	if r.Stats() != ref.Stats() {
		t.Errorf("range-source stats %+v != bytes-backed stats %+v", r.Stats(), ref.Stats())
	}

	served := len(src.ranges)
	for i, col := range []int{0, 2, 4} {
		if got := drainCursor(t, cursors[i], testSchema.Field(col).Type, 500); len(got) != to-from {
			t.Fatalf("col %d: drained %d rows, want %d", col, len(got), to-from)
		}
	}
	if len(src.ranges) != served {
		t.Errorf("decoding fetched %d more ranges; all reads belong to cursor creation", len(src.ranges)-served)
	}
}

// TestStringVectorNeverWritesTheReplica: a decoded string vector's Bytes
// is the stored column range itself, and a replica is immutable. Whatever
// a caller then does to the vector — Append grows Bytes, Gather moves
// spans — must leave the block's bytes, and so the checksums stored beside
// them, as they were. Append is the one that could not: without the
// capacity clamp it would write the new value over whatever follows the
// column in the block.
func TestStringVectorNeverWritesTheReplica(t *testing.T) {
	b := buildBlock(t, 2*PartitionSize+100, 28)
	b.AppendBad("what follows the last column")
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var sums []uint32
	for _, p := range hdfs.BuildPackets(data) {
		sums = append(sums, p.Sums...)
	}
	stored := bytes.Clone(data)

	const url = 4
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, selected := range []bool{false, true} {
		c, err := r.NewColumnCursor(url, 0, r.NumRows())
		if err != nil {
			t.Fatal(err)
		}
		vec := schema.NewVector(schema.String)
		for c.Remaining() > 0 {
			if selected {
				_, err = c.NextSelected(PartitionSize, []int32{0, 3, 50}, vec)
			} else {
				_, err = c.Next(PartitionSize, vec)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if cap(vec.Bytes) != len(vec.Bytes) {
			t.Errorf("decoded Bytes has %d spare bytes of the block behind it", cap(vec.Bytes)-len(vec.Bytes))
		}
		n, last := vec.Len(), string(vec.StrAt(vec.Len()-1))
		vec.Append(schema.StringVal("appended, not written into the block"))
		vec.Gather([]int32{1, int32(n - 1), int32(n)})
		if got := string(vec.StrAt(1)); got != last {
			t.Errorf("after Append and Gather the last decoded value reads %q, want %q", got, last)
		}
		if got := vec.Value(2).Str(); got != "appended, not written into the block" {
			t.Errorf("appended value reads %q", got)
		}
		if !bytes.Equal(data, stored) {
			t.Fatal("the block's bytes were written to")
		}
		if err := hdfs.VerifyStored(data, sums); err != nil {
			t.Fatalf("the block no longer matches its stored checksums: %v", err)
		}
	}
}

// walkSchema stores strings on both sides of schema's longTerm: "short" averages a
// few bytes a value, "long" tens.
var walkSchema = schema.MustNew(
	schema.Field{Name: "id", Type: schema.Int32},
	schema.Field{Name: "short", Type: schema.String},
	schema.Field{Name: "long", Type: schema.String},
)

// walkBlock builds n rows of walkSchema: empty and one-byte values in both
// string columns, with a 200-byte value among the short ones now and then,
// and among the long ones values longer than skip's chunk.
func walkBlock(n int, seed int64) *Block {
	rng := rand.New(rand.NewSource(seed))
	short := []string{"", "a", "bc", "d"}
	long := []string{"", "a", strings.Repeat("u", 30), strings.Repeat("w", 3*skipChunk-5)}
	b := NewBlock(walkSchema)
	for i := 0; i < n; i++ {
		s := short[rng.Intn(len(short))]
		if rng.Intn(64) == 0 {
			s = strings.Repeat("x", 200)
		}
		if err := b.AppendRow(schema.Row{schema.IntVal(int32(i)), schema.StringVal(s), schema.StringVal(long[rng.Intn(len(long))])}); err != nil {
			panic(err)
		}
	}
	return b
}

// TestColumnCursorShortAndLongWalksAgree: the byte loop and bytes.IndexByte
// in schema.Terminator — the one walk the cursor, a packed vector's
// directory and Batch.Lines share — find the same terminators. First the
// walker itself, from every byte of each string column's value area; then
// each column is read with the walk its mean length picks and with the
// other one, batch by batch through Next (whose packed batch takes the
// cursor's walk into its directory), Next skipping, NextSelected and
// NextSelected with nothing selected; every value delivered must be
// ReadColumnRange's, at the same span either way.
func TestColumnCursorShortAndLongWalksAgree(t *testing.T) {
	b := walkBlock(3*PartitionSize+77, 31)
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []int{1, 2} {
		area := data[r.colOff[col]+numPartitions(r.NumRows())*4 : r.colOff[col]+r.colLen[col]]
		for from := 0; from <= len(area); from++ {
			if loop, index := schema.Terminator(area, from, false), schema.Terminator(area, from, true); loop != index {
				t.Fatalf("col %d from byte %d: the loop finds %d, IndexByte %d", col, from, loop, index)
			}
		}
	}
	type span struct{ row, start, end uint32 }
	for col, wantLong := range map[int]bool{1: false, 2: true} {
		for _, rg := range [][2]int{{0, b.NumRows()}, {PartitionSize - 3, 2*PartitionSize + 5}, {3 * PartitionSize, 3*PartitionSize + 1}} {
			from, to := rg[0], rg[1]
			ref, err := NewReader(data)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.ReadColumnRange(col, from, to)
			if err != nil {
				t.Fatal(err)
			}
			var spans [2][]span
			for w, flip := range []bool{false, true} {
				r, err := NewReader(data)
				if err != nil {
					t.Fatal(err)
				}
				c, err := r.NewColumnCursor(col, from, to)
				if err != nil {
					t.Fatal(err)
				}
				if c.long != wantLong {
					t.Fatalf("col %d [%d,%d): long walk %v, want %v", col, from, to, c.long, wantLong)
				}
				c.long = c.long != flip
				vec := schema.NewVector(schema.String)
				for i, row := 0, 0; c.Remaining() > 0; i++ {
					const batchN = 100
					n := min(batchN, c.Remaining())
					var sel []int32
					switch i % 4 {
					case 0:
						_, err = c.Next(n, vec)
						for k := 0; k < n; k++ {
							sel = append(sel, int32(k))
						}
					case 1:
						_, err = c.Next(n, nil)
					case 2:
						for k := i % 3; k < n; k += 3 {
							sel = append(sel, int32(k))
						}
						_, err = c.NextSelected(n, sel, vec)
					case 3:
						sel = []int32{}
						_, err = c.NextSelected(n, sel, vec)
					}
					if err != nil {
						t.Fatalf("col %d long=%v batch %d: %v", col, c.long, i, err)
					}
					if i%4 != 1 && vec.Len() != len(sel) {
						t.Fatalf("col %d long=%v batch %d: %d values for %d selected", col, c.long, i, vec.Len(), len(sel))
					}
					for j, s := range sel {
						got := vec.StrAt(j)
						if string(got) != want[row+int(s)].Str() {
							t.Fatalf("col %d long=%v row %d: %q, want %q", col, c.long, from+row+int(s), got, want[row+int(s)].Str())
						}
						spans[w] = append(spans[w], span{uint32(row) + uint32(s), vec.Start[j], vec.End[j]})
					}
					row += n
				}
			}
			if !slices.Equal(spans[0], spans[1]) {
				t.Errorf("col %d [%d,%d): the two walks deliver different spans", col, from, to)
			}
		}
	}

	// The skip against a walk over every value: cursors opened mid-partition
	// (the alignment prefix is skipped) and batches of each selection shape
	// must deliver the same spans and stand on the same byte after each
	// batch, on both columns and with either terminator walk.
	for _, col := range []int{1, 2} {
		for _, rg := range [][2]int{{0, b.NumRows()}, {17, 40}, {PartitionSize - 3, 2*PartitionSize + 5}, {PartitionSize + 500, b.NumRows()}, {3 * PartitionSize, 3*PartitionSize + 1}} {
			for _, flip := range []bool{false, true} {
				skipAgreesWithWalk(t, data, col, rg[0], rg[1], flip)
			}
		}
	}
}

// skipSels are the ascending selection shapes of a batch of n rows the
// skip is held to: empty, first row only, last row only, dense, every k-th,
// head only and tail only.
func skipSels(n int) map[string][]int32 {
	seq := func(from, to, step int) []int32 {
		out := []int32{}
		for i := from; i < to; i += step {
			out = append(out, int32(i))
		}
		return out
	}
	return map[string][]int32{
		"empty": {}, "first": {0}, "last": {int32(n - 1)}, "dense": seq(0, n, 1),
		"every 3rd": seq(1, n, 3), "every 40th": seq(7, n, 40), "head": seq(0, n/4, 1), "tail": seq(n-n/4, n, 1),
	}
}

// walkSelected is NextSelected as it was before skip: every value's
// terminator is found one at a time, selected or not.
func walkSelected(c *ColumnCursor, n int, sel []int32, dst *schema.Vector) error {
	dst.Reset()
	dst.Bytes = c.raw
	k := 0
	for i := 0; i < n; i++ {
		z := c.term()
		if z < 0 {
			return c.unterminated()
		}
		if k < len(sel) && int(sel[k]) == i {
			dst.Start = append(dst.Start, uint32(c.bpos))
			dst.End = append(dst.End, uint32(z))
			k++
		}
		c.bpos = z + 1
	}
	c.remaining -= n
	return nil
}

// skipAgreesWithWalk opens two cursors over rows [from, to) of column col:
// one as NewColumnCursor does, the other at the partition boundary and
// walked to from value by value. It then drains both, a shape per batch,
// the first through NextSelected (and Next skipping, for the empty
// shape), the second through walkSelected. flip swaps the terminator walk
// both use.
func skipAgreesWithWalk(t *testing.T, data []byte, col, from, to int, flip bool) {
	t.Helper()
	open := func(from int) *ColumnCursor {
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		c, err := r.NewColumnCursor(col, from, to)
		if err != nil {
			t.Fatal(err)
		}
		c.long = c.long != flip
		return c
	}
	got, want := open(from), open(from/PartitionSize*PartitionSize)
	vec, ref := schema.NewVector(schema.String), schema.NewVector(schema.String)
	if err := walkSelected(want, from%PartitionSize, nil, ref); err != nil {
		t.Fatal(err)
	}
	if got.bpos != want.bpos || got.remaining != want.remaining {
		t.Fatalf("col %d [%d,%d) long=%v: opened at byte %d with %d rows left, the walk at %d with %d", col, from, to, got.long, got.bpos, got.remaining, want.bpos, want.remaining)
	}
	names := slices.Sorted(maps.Keys(skipSels(1)))
	for i := 0; got.Remaining() > 0; i++ {
		n := min(batchSizes[i%len(batchSizes)], got.Remaining())
		name := names[i%len(names)]
		sel := skipSels(n)[name]
		var err error
		if name == "empty" && i%2 == 0 {
			_, err = got.Next(n, nil)
			vec.Reset()
		} else {
			_, err = got.NextSelected(n, sel, vec)
		}
		if err != nil {
			t.Fatalf("col %d [%d,%d) long=%v batch %d (%s): %v", col, from, to, got.long, i, name, err)
		}
		if err := walkSelected(want, n, sel, ref); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(vec.Start, ref.Start) || !slices.Equal(vec.End, ref.End) || got.bpos != want.bpos {
			t.Fatalf("col %d [%d,%d) long=%v batch %d (%s, %d rows): spans %v–%v at byte %d, the walk %v–%v at byte %d",
				col, from, to, got.long, i, name, n, vec.Start, vec.End, got.bpos, ref.Start, ref.End, want.bpos)
		}
	}
	if want.Remaining() != 0 || got.bpos != want.bpos {
		t.Fatalf("col %d [%d,%d) long=%v: drained at byte %d, the walk at %d with %d rows left", col, from, to, got.long, got.bpos, want.bpos, want.Remaining())
	}
}

// batchSizes are the batch lengths skipAgreesWithWalk cycles through.
var batchSizes = []int{PartitionSize, 100, 1, 333}

// TestCursorUnterminatedErrorNamesTheColumn: a string column one
// terminator short fails the same way wherever the walk meets it — in
// Next, in NextSelected, in a run of values skipped in bulk (Next
// skipping, the gaps and tail of NextSelected, after a cursor opened past
// an alignment prefix), with either terminator walk — and says which
// column. The terminator knocked out is the last value's, or one in the
// middle, so that every value after it is a run skip counts without
// finding enough.
func TestCursorUnterminatedErrorNamesTheColumn(t *testing.T) {
	testBlock, walk := buildBlock(t, 10, 23), walkBlock(10, 23)
	for _, tc := range []struct {
		b        *Block
		col      int
		wantLong bool
	}{{testBlock, 4, false}, {walk, 1, false}, {walk, 2, true}} {
		for _, knock := range []int{9, 4} { // the value whose terminator goes
			data, err := tc.b.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			dirAt := fixedHeader + len(tc.b.Schema().String()) + 2
			off := int(binary.LittleEndian.Uint32(data[dirAt+tc.col*8:]))
			vals := off + numPartitions(10)*4
			for i, v := vals, 0; ; i++ {
				if data[i] != 0 {
					continue
				}
				if v == knock {
					data[i] = 'x'
					break
				}
				v++
			}
			decode := map[string]func(c *ColumnCursor, vec *schema.Vector) error{
				"Next": func(c *ColumnCursor, vec *schema.Vector) error {
					_, err := c.Next(c.Remaining(), vec)
					return err
				},
				"Next skipping": func(c *ColumnCursor, _ *schema.Vector) error {
					_, err := c.Next(c.Remaining(), nil)
					return err
				},
				"NextSelected": func(c *ColumnCursor, vec *schema.Vector) error {
					_, err := c.NextSelected(c.Remaining(), []int32{0, int32(c.Remaining() - 1)}, vec)
					return err
				},
				"NextSelected skipping the tail": func(c *ColumnCursor, vec *schema.Vector) error {
					_, err := c.NextSelected(c.Remaining(), []int32{0}, vec)
					return err
				},
			}
			for name, fn := range decode {
				for _, from := range []int{0, 6} {
					r, err := NewReader(data)
					if err != nil {
						t.Fatal(err)
					}
					c, err := r.NewColumnCursor(tc.col, from, 10)
					if err != nil {
						t.Fatal(err)
					}
					if c.long != tc.wantLong {
						t.Fatalf("column %d: long walk %v, want %v", tc.col, c.long, tc.wantLong)
					}
					if err := fn(c, schema.NewVector(schema.String)); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unterminated string value in column %d", tc.col)) {
						t.Errorf("%s from row %d over column %d without value %d's terminator: %v", name, from, tc.col, knock, err)
					}
				}
			}
		}
	}
}

// TestNextOnAMissingTerminatorFailsTheBatch: Next packs a string batch by
// counting its n terminators, so a range that holds only n-1 of them must
// fail that batch with "unterminated string value" — no values delivered,
// the vector empty — rather than pack a short run for a reader to trip on
// later, or panic. The last value's terminator is knocked out; the batches
// before it must still decode, with either walk.
func TestNextOnAMissingTerminatorFailsTheBatch(t *testing.T) {
	rows := 2*PartitionSize + 50
	for _, col := range []int{1, 2} {
		data, err := walkBlock(rows, 41).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewReader(data)
		if err != nil {
			t.Fatal(err)
		}
		last := r.colOff[col] + r.colLen[col] - 1
		if data[last] != 0 {
			t.Fatalf("col %d: byte %d is %q, not the last value's terminator", col, last, data[last])
		}
		data[last] = 'x'
		for _, batch := range []int{PartitionSize, 100, rows} {
			for _, flip := range []bool{false, true} {
				r, err := NewReader(data)
				if err != nil {
					t.Fatal(err)
				}
				c, err := r.NewColumnCursor(col, 0, rows)
				if err != nil {
					t.Fatal(err)
				}
				c.long = c.long != flip
				vec := schema.NewVector(schema.String)
				for {
					left := c.Remaining()
					want := min(batch, left)
					n, err := c.Next(want, vec)
					if err == nil {
						if n != want || c.Remaining() == 0 {
							t.Fatalf("col %d batch %d long=%v: delivered %d of %d rows with %d left and no error", col, batch, c.long, n, want, c.Remaining())
						}
						continue
					}
					if !strings.Contains(err.Error(), fmt.Sprintf("unterminated string value in column %d", col)) {
						t.Fatalf("col %d batch %d long=%v: %v", col, batch, c.long, err)
					}
					if n != 0 || vec.Len() != 0 || vec.Packed() || want != left {
						t.Fatalf("col %d batch %d long=%v: failed a batch of %d with %d rows left, %d values delivered, %d in the vector",
							col, batch, c.long, want, left, n, vec.Len())
					}
					break
				}
			}
		}
	}
}
