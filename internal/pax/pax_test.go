package pax

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/schema"
)

var testSchema = schema.MustNew(
	schema.Field{Name: "id", Type: schema.Int32},
	schema.Field{Name: "big", Type: schema.Int64},
	schema.Field{Name: "rev", Type: schema.Float64},
	schema.Field{Name: "day", Type: schema.Date},
	schema.Field{Name: "url", Type: schema.String},
)

func testRow(rng *rand.Rand) schema.Row {
	urls := []string{"", "a", "example.com/page", "x/y/z?q=1", "long-url-with-many-characters/and/segments"}
	return schema.Row{
		schema.IntVal(rng.Int31n(1 << 20)),
		schema.LongVal(rng.Int63n(1 << 40)),
		schema.FloatVal(float64(rng.Intn(1000)) / 4),
		schema.DateVal(rng.Int31n(20000)),
		schema.StringVal(urls[rng.Intn(len(urls))]),
	}
}

// buildBlock builds an n-row random block; testRow always matches
// testSchema so append errors are programming bugs and panic.
func buildBlock(_ *testing.T, n int, seed int64) *Block {
	rng := rand.New(rand.NewSource(seed))
	b := NewBlock(testSchema)
	for i := 0; i < n; i++ {
		if err := b.AppendRow(testRow(rng)); err != nil {
			panic(err)
		}
	}
	return b
}

func rowMultiset(rows []schema.Row) map[string]int {
	m := make(map[string]int)
	for _, r := range rows {
		m[schema.RowKey(r)]++
	}
	return m
}

func sameMultiset(a, b []schema.Row) bool {
	ma, mb := rowMultiset(a), rowMultiset(b)
	if len(ma) != len(mb) {
		return false
	}
	for k, v := range ma {
		if mb[k] != v {
			return false
		}
	}
	return true
}

func TestAppendAndAccess(t *testing.T) {
	b := NewBlock(testSchema)
	row := schema.Row{
		schema.IntVal(7), schema.LongVal(8), schema.FloatVal(1.5),
		schema.DateVal(schema.MustDate("1999-06-15")), schema.StringVal("u"),
	}
	if err := b.AppendRow(row); err != nil {
		t.Fatalf("AppendRow: %v", err)
	}
	if b.NumRows() != 1 {
		t.Fatalf("NumRows = %d", b.NumRows())
	}
	if !b.Row(0).Equal(row) {
		t.Errorf("Row(0) = %v, want %v", b.Row(0), row)
	}
	if b.Value(0, 0).Int() != 7 {
		t.Errorf("Value(0,0) = %v", b.Value(0, 0))
	}
}

func TestAppendRowValidation(t *testing.T) {
	b := NewBlock(testSchema)
	if err := b.AppendRow(schema.Row{schema.IntVal(1)}); err == nil {
		t.Error("short row accepted")
	}
	bad := schema.Row{
		schema.StringVal("not-an-int"), schema.LongVal(8), schema.FloatVal(1.5),
		schema.DateVal(0), schema.StringVal("u"),
	}
	if err := b.AppendRow(bad); err == nil {
		t.Error("type-mismatched row accepted")
	}
	if b.NumRows() != 0 {
		t.Errorf("failed appends changed row count: %d", b.NumRows())
	}
}

func TestSortByClustersRows(t *testing.T) {
	b := buildBlock(t, 5000, 1)
	before := b.Rows()
	if err := b.Sort(3); err != nil { // day
		t.Fatalf("Sort: %v", err)
	}
	if b.SortColumn() != 3 {
		t.Errorf("SortColumn = %d", b.SortColumn())
	}
	// Row integrity and stability: the rows are the arrival rows, stably
	// sorted on the day.
	for i, want := range oracle(before, 3) {
		if !b.Row(i).Equal(want) {
			t.Fatalf("row %d is %v, the stable sort of the arrival rows has %v", i, b.Row(i), want)
		}
	}
}

// oracle is rows stable-sorted on col by Value.Compare: the row order
// Sort must leave.
func oracle(rows []schema.Row, col int) []schema.Row {
	out := slices.Clone(rows)
	sort.SliceStable(out, func(i, j int) bool { return out[i][col].Compare(out[j][col]) < 0 })
	return out
}

func TestSortByEveryColumnPreservesRows(t *testing.T) {
	for col := 0; col < testSchema.NumFields(); col++ {
		b := buildBlock(t, 1200, int64(col+10))
		before := b.Rows()
		if err := b.Sort(col); err != nil {
			t.Fatalf("Sort(%d): %v", col, err)
		}
		for i := 1; i < b.NumRows(); i++ {
			if b.Value(i-1, col).Compare(b.Value(i, col)) > 0 {
				t.Fatalf("col %d: out of order at %d", col, i)
			}
		}
		if !sameMultiset(before, b.Rows()) {
			t.Fatalf("col %d: multiset changed", col)
		}
	}
}

func TestSortByOutOfRange(t *testing.T) {
	b := buildBlock(t, 10, 2)
	if err := b.Sort(-1); err == nil {
		t.Error("Sort(-1) succeeded")
	}
	if err := b.Sort(99); err == nil {
		t.Error("Sort(99) succeeded")
	}
}

func TestAppendInvalidatesSortOrder(t *testing.T) {
	b := buildBlock(t, 100, 3)
	if err := b.Sort(0); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	if err := b.AppendRow(testRow(rng)); err != nil {
		t.Fatal(err)
	}
	if b.SortColumn() != -1 {
		t.Errorf("SortColumn after append = %d, want -1", b.SortColumn())
	}
}

func TestCloneIsDeep(t *testing.T) {
	b := buildBlock(t, 500, 5)
	b.AppendBad("oops")
	c := b.Clone()
	if err := c.Sort(1); err != nil {
		t.Fatal(err)
	}
	if b.SortColumn() != -1 {
		t.Error("sorting the clone changed the original's sort column")
	}
	if !sameMultiset(b.Rows(), c.Rows()) {
		t.Error("clone has different rows")
	}
	if c.NumBad() != 1 || c.BadRecord(0) != "oops" {
		t.Error("clone lost bad records")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	b := buildBlock(t, 3000, 6)
	b.AppendBad("bad line 1")
	b.AppendBad("")
	b.AppendBad("another,malformed,record,with,fields")
	if err := b.Sort(4); err != nil {
		t.Fatal(err)
	}
	data, err := b.Marshal()
	if err != nil {
		t.Fatalf("Marshal: %v", err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.SortColumn() != 4 {
		t.Errorf("SortColumn = %d, want 4", got.SortColumn())
	}
	if got.NumRows() != b.NumRows() || got.NumBad() != 3 {
		t.Fatalf("rows/bad = %d/%d, want %d/3", got.NumRows(), got.NumBad(), b.NumRows())
	}
	for i := 0; i < b.NumRows(); i++ {
		if !got.Row(i).Equal(b.Row(i)) {
			t.Fatalf("row %d mismatch", i)
		}
	}
	for i := 0; i < 3; i++ {
		if got.BadRecord(i) != b.BadRecord(i) {
			t.Errorf("bad record %d = %q, want %q", i, got.BadRecord(i), b.BadRecord(i))
		}
	}
}

func TestMarshalEmptyBlock(t *testing.T) {
	b := NewBlock(testSchema)
	data, err := b.Marshal()
	if err != nil {
		t.Fatalf("Marshal empty: %v", err)
	}
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal empty: %v", err)
	}
	if got.NumRows() != 0 || got.NumBad() != 0 {
		t.Errorf("empty block round trip: rows=%d bad=%d", got.NumRows(), got.NumBad())
	}
}

func TestMarshalRejectsNULStrings(t *testing.T) {
	b := NewBlock(schema.MustNew(schema.Field{Name: "s", Type: schema.String}))
	if err := b.AppendRow(schema.Row{schema.StringVal("a\x00b")}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Marshal(); err == nil {
		t.Error("Marshal accepted a string containing NUL")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, nSmall uint8) bool {
		n := int(nSmall) * 17 // 0 .. 4335, crosses partition boundaries scaled down
		b := buildBlock(nil, n, seed)
		if seed%2 == 0 && n > 0 {
			if err := b.Sort(int(uint(seed) % 5)); err != nil {
				return false
			}
		}
		data, err := b.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(data)
		if err != nil {
			return false
		}
		return sameMultiset(b.Rows(), got.Rows()) && got.SortColumn() == b.SortColumn()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestReaderHeaderValidation(t *testing.T) {
	b := buildBlock(t, 10, 7)
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(data[:8]); err == nil {
		t.Error("truncated block accepted")
	}
	corrupt := append([]byte(nil), data...)
	corrupt[0] = 'X'
	if _, err := NewReader(corrupt); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := NewReader(nil); err == nil {
		t.Error("nil block accepted")
	}
}

func TestReaderColumnRange(t *testing.T) {
	b := buildBlock(t, 4000, 8)
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, col := range []int{0, 1, 2, 3, 4} {
		from, to := 1500, 2600
		vals, err := r.ReadColumnRange(col, from, to)
		if err != nil {
			t.Fatalf("ReadColumnRange(%d): %v", col, err)
		}
		if len(vals) != to-from {
			t.Fatalf("col %d: got %d values, want %d", col, len(vals), to-from)
		}
		for i, v := range vals {
			if !v.Equal(b.Value(from+i, col)) {
				t.Fatalf("col %d row %d: %v != %v", col, from+i, v, b.Value(from+i, col))
			}
		}
	}
}

func TestReaderRangeBounds(t *testing.T) {
	b := buildBlock(t, 100, 9)
	data, _ := b.Marshal()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadColumnRange(0, -1, 5); err == nil {
		t.Error("negative fromRow accepted")
	}
	if _, err := r.ReadColumnRange(0, 5, 101); err == nil {
		t.Error("toRow beyond rows accepted")
	}
	if _, err := r.ReadColumnRange(0, 7, 3); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := r.ReadColumnRange(99, 0, 1); err == nil {
		t.Error("bad column accepted")
	}
	if vals, err := r.ReadColumnRange(0, 5, 5); err != nil || vals != nil {
		t.Errorf("empty range: %v, %v", vals, err)
	}
}

func TestReaderIOAccounting(t *testing.T) {
	b := buildBlock(t, 3000, 10)
	data, _ := b.Marshal()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	// Fixed-size column: exact byte accounting, one seek.
	if _, err := r.ReadColumnRange(0, 100, 300); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.BytesRead != 200*4 {
		t.Errorf("BytesRead = %d, want 800", st.BytesRead)
	}
	if st.Seeks != 1 {
		t.Errorf("Seeks = %d, want 1", st.Seeks)
	}
	// Adjacent follow-up read: no extra seek.
	if _, err := r.ReadColumnRange(0, 300, 400); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Seeks; got != 1 {
		t.Errorf("Seeks after adjacent read = %d, want 1", got)
	}
	// Distant read: one more seek.
	if _, err := r.ReadColumnRange(1, 0, 10); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Seeks; got != 2 {
		t.Errorf("Seeks after distant read = %d, want 2", got)
	}
	r.ResetStats()
	if r.Stats() != (IOStats{}) {
		t.Error("ResetStats did not clear stats")
	}
}

func TestStringColumnPartitionGranularity(t *testing.T) {
	// Reading one string row must read the whole covering partition, not
	// just one value (paper §3.5: "we scan the partition entirely").
	b := buildBlock(t, 3*PartitionSize, 11)
	data, _ := b.Marshal()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := r.ReadColumnRange(4, PartitionSize+5, PartitionSize+6)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || !vals[0].Equal(b.Value(PartitionSize+5, 4)) {
		t.Fatalf("wrong value: %v", vals)
	}
	st := r.Stats()
	// Must have read at least a partition's worth of terminators.
	if st.BytesRead < PartitionSize {
		t.Errorf("BytesRead = %d, expected at least one partition (%d)", st.BytesRead, PartitionSize)
	}
}

func TestColumnBytesMatchesSerialized(t *testing.T) {
	b := buildBlock(t, 2500, 12)
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	for col := 0; col < testSchema.NumFields(); col++ {
		if b.ColumnBytes(col) != r.ColumnSize(col) {
			t.Errorf("col %d: ColumnBytes=%d, serialized=%d", col, b.ColumnBytes(col), r.ColumnSize(col))
		}
	}
}

func TestReadBadRecords(t *testing.T) {
	b := buildBlock(t, 50, 13)
	want := []string{"first bad", "", "third,bad,record"}
	for _, s := range want {
		b.AppendBad(s)
	}
	data, _ := b.Marshal()
	r, err := NewReader(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadAllBad(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d bad records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("bad[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSortIsStable(t *testing.T) {
	// Duplicate keys must preserve input order (stable sort), so replicas
	// built from the same logical block agree on tie order.
	s := schema.MustNew(
		schema.Field{Name: "k", Type: schema.Int32},
		schema.Field{Name: "seq", Type: schema.Int32},
	)
	b := NewBlock(s)
	for i := 0; i < 1000; i++ {
		if err := b.AppendRow(schema.Row{schema.IntVal(int32(i % 7)), schema.IntVal(int32(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Sort(0); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < b.NumRows(); i++ {
		if b.Value(i-1, 0).Int() == b.Value(i, 0).Int() && b.Value(i-1, 1).Int() > b.Value(i, 1).Int() {
			t.Fatalf("unstable sort at row %d", i)
		}
	}
}

func TestMarshalSizeIsReasonable(t *testing.T) {
	b := buildBlock(t, 5000, 14)
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	fixed := 5000 * (4 + 8 + 8 + 4)
	if len(data) < fixed {
		t.Errorf("serialized size %d smaller than fixed column payload %d", len(data), fixed)
	}
	sum := 0
	for c := 0; c < testSchema.NumFields(); c++ {
		sum += b.ColumnBytes(c)
	}
	if len(data) > sum+4096 {
		t.Errorf("header overhead too large: total=%d, columns=%d", len(data), sum)
	}
}

// TestMarshalSizeAllocatesNothing: sizing a built block, sorted or not,
// reads the schema's DDL as New built it, and allocates nothing.
func TestMarshalSizeAllocatesNothing(t *testing.T) {
	b := buildBlock(t, 1000, 16)
	for _, sortCol := range []int{-1, 4} {
		if sortCol >= 0 {
			if err := b.Sort(sortCol); err != nil {
				t.Fatal(err)
			}
		}
		data, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if got := b.MarshalSize(); got != len(data) {
			t.Errorf("sort column %d: MarshalSize = %d, Marshal wrote %d bytes", sortCol, got, len(data))
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = b.MarshalSize() }); allocs != 0 {
			t.Errorf("sort column %d: MarshalSize allocates %v times per call", sortCol, allocs)
		}
	}
}

func TestSortedBlockBinarySearchable(t *testing.T) {
	b := buildBlock(t, 4096, 15)
	if err := b.Sort(0); err != nil {
		t.Fatal(err)
	}
	// sort.Search over the clustered column must find every present value.
	n := b.NumRows()
	for probe := 0; probe < 100; probe++ {
		target := b.Value(probe*37%n, 0)
		i := sort.Search(n, func(i int) bool { return b.Value(i, 0).Compare(target) >= 0 })
		if i >= n || b.Value(i, 0).Compare(target) != 0 {
			t.Fatalf("binary search missed value %v", target)
		}
	}
}

// TestReaderHeaderCountsMustFitAreas is the regression test for counts the
// header parse used to trust: numRows and numBad size allocations
// (make([]schema.Value, 0, numRows) in ReadColumnRange and so Unmarshal,
// make([]string, 0, numBad) in ReadAllBad), so a flipped count on an
// otherwise valid block took the process down with an unrecoverable
// out-of-memory instead of returning an error. Each must agree with the
// area it describes.
func TestReaderHeaderCountsMustFitAreas(t *testing.T) {
	b := buildBlock(t, 10, 7)
	b.AppendBad("one bad record")
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const numRowsAt, numBadAt = 10, 14 // after magic, version, sortCol
	dirAt := fixedHeader + len(testSchema.String()) + 2
	put := func(at int, v uint32) []byte {
		c := append([]byte(nil), data...)
		binary.LittleEndian.PutUint32(c[at:], v)
		return c
	}
	urlLen := binary.LittleEndian.Uint32(data[dirAt+4*8+4:])
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"numBad huge", put(numBadAt, 0x7fffffff)},
		{"numBad one more than the area holds", put(numBadAt, uint32(len("one bad record")+4)/4+1)},
		{"numRows huge", put(numRowsAt, 0x7fffffff)},
		{"numRows off by one", put(numRowsAt, 11)},
		{"fixed column one value short", put(dirAt+4, 9*4)},
		{"string column shorter than its terminators", put(dirAt+4*8+4, 4+10-1)},
	} {
		if _, err := NewReader(tc.data); err == nil {
			t.Errorf("%s: header accepted", tc.name)
		}
		if _, err := Unmarshal(tc.data); err == nil {
			t.Errorf("%s: Unmarshal succeeded", tc.name)
		}
	}
	// The same fields at their smallest legal values still open.
	if _, err := NewReader(put(dirAt+4*8+4, urlLen)); err != nil {
		t.Errorf("unchanged block rejected: %v", err)
	}
}

// TestUnmarshalAliasesWithoutWriting pins what aliasing the input must not
// cost: whatever is then done to the block — appends and a sort, or a
// Reset and refill — the caller's bytes, those behind the block included,
// stay as they were, and the block reads as a copy would.
func TestUnmarshalAliasesWithoutWriting(t *testing.T) {
	src := buildBlock(t, PartitionSize+50, 21)
	src.AppendBad("bad one")
	data, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	buf := append(data, "the caller's bytes behind the block"...)
	data = buf[:len(data)]
	input := bytes.Clone(buf)
	rng := rand.New(rand.NewSource(22))

	b, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	extra := testRow(rng)
	if err := b.AppendRow(extra); err != nil {
		t.Fatal(err)
	}
	b.AppendBad("bad two")
	if !b.Row(b.NumRows()-1).Equal(extra) || b.BadRecord(0) != "bad one" || b.BadRecord(1) != "bad two" {
		t.Error("appends to an unmarshalled block read back wrong")
	}
	if err := b.Sort(4); err != nil {
		t.Fatal(err)
	}

	if b, err = Unmarshal(data); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	for i := 0; i < 100; i++ {
		if err := b.AppendRow(testRow(rng)); err != nil {
			t.Fatal(err)
		}
		b.AppendBad("bad again")
	}
	if !bytes.Equal(buf, input) {
		t.Fatal("the bytes given to Unmarshal were written to")
	}
}

// TestUnmarshalScansWhatTheHeaderCannotCheck covers the two errors left
// to Unmarshal once the header parse has passed — a string column with
// fewer terminators than rows, a bad-record section shorter than its
// lengths say — and the bytes it tolerates: junk behind the last value.
func TestUnmarshalScansWhatTheHeaderCannotCheck(t *testing.T) {
	src := buildBlock(t, 10, 23)
	src.AppendBad("one bad record")
	data, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Unmarshal(withGarbageAfterLastString(data))
	if err != nil {
		t.Fatalf("junk after the last string value: %v", err)
	}
	if again, err := b.Marshal(); err != nil || !bytes.Equal(again, data) {
		t.Errorf("block with junk after the last value does not marshal to the clean block (%v)", err)
	}

	dirAt := fixedHeader + len(testSchema.String()) + 2
	urlOff := int(binary.LittleEndian.Uint32(data[dirAt+4*8:]))
	urlLen := int(binary.LittleEndian.Uint32(data[dirAt+4*8+4:]))
	unterminated := bytes.Clone(data)
	for i := urlOff + 4; i < urlOff+urlLen; i++ { // past the one-partition offset list
		if unterminated[i] == 0 {
			unterminated[i] = 'x'
			break
		}
	}
	if _, err := Unmarshal(unterminated); err == nil || !strings.Contains(err.Error(), "unterminated string") {
		t.Errorf("string column one terminator short: %v", err)
	}
	badOff := int(binary.LittleEndian.Uint32(data[dirAt+5*8:]))
	truncated := bytes.Clone(data)
	binary.LittleEndian.PutUint32(truncated[badOff:], uint32(len("one bad record")+1))
	if _, err := Unmarshal(truncated); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("bad record longer than its section: %v", err)
	}
	offsets := bytes.Clone(data)
	offsets[urlOff] ^= 1
	if _, err := Unmarshal(offsets); err == nil {
		t.Error("offset list that disagrees with the values accepted")
	}
}

// TestSortedBlockReadsThroughItsOrder covers a sorted block, whose columns
// stay where they were while its row order is a permutation: every
// accessor and every later change must see the rows in the sorted order.
// Each case runs on a block AppendRow built and on one Unmarshal aliases,
// sorted on a fixed-size and on a string attribute.
func TestSortedBlockReadsThroughItsOrder(t *testing.T) {
	type sorted struct {
		b            *Block
		col          int
		before, want []schema.Row // arrival order, oracle order
	}
	sameRows := func(t *testing.T, what string, got, want []schema.Row) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d rows, want %d", what, len(got), len(want))
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s: row %d is %v, want %v", what, i, got[i], want[i])
			}
		}
	}
	cases := []struct {
		name  string
		check func(t *testing.T, s sorted)
	}{
		{"Value and Row follow the oracle", func(t *testing.T, s sorted) {
			for i, want := range s.want {
				if !s.b.Row(i).Equal(want) {
					t.Fatalf("Row(%d) = %v, want %v", i, s.b.Row(i), want)
				}
				for c := range want {
					if s.b.Value(i, c).Compare(want[c]) != 0 {
						t.Fatalf("Value(%d, %d) = %v, want %v", i, c, s.b.Value(i, c), want[c])
					}
				}
			}
		}},
		{"AppendRow goes behind the sorted rows", func(t *testing.T, s sorted) {
			extra := testRow(rand.New(rand.NewSource(31)))
			if err := s.b.AppendRow(extra); err != nil {
				t.Fatal(err)
			}
			if s.b.SortColumn() != -1 {
				t.Errorf("SortColumn after AppendRow = %d, want -1", s.b.SortColumn())
			}
			want := append(slices.Clone(s.want), extra)
			sameRows(t, "after AppendRow", s.b.Rows(), want)
			data, err := s.b.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			back, err := Unmarshal(data)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, "marshalled after AppendRow", back.Rows(), want)
		}},
		{"Clone is independent of the original", func(t *testing.T, s sorted) {
			orig, err := s.b.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			c := s.b.Clone()
			sameRows(t, "clone", c.Rows(), s.want)
			if err := c.AppendRow(testRow(rand.New(rand.NewSource(32)))); err != nil {
				t.Fatal(err)
			}
			if err := c.Sort((s.col + 1) % testSchema.NumFields()); err != nil {
				t.Fatal(err)
			}
			if s.b.SortColumn() != s.col {
				t.Errorf("changing the clone moved the original's sort column to %d", s.b.SortColumn())
			}
			sameRows(t, "original after changing the clone", s.b.Rows(), s.want)
			if again, err := s.b.Marshal(); err != nil || !bytes.Equal(again, orig) {
				t.Errorf("changing the clone changed the original's bytes (%v)", err)
			}
		}},
		{"Reset leaves an empty unsorted block", func(t *testing.T, s sorted) {
			s.b.Reset()
			if s.b.NumRows() != 0 || s.b.NumBad() != 0 || s.b.SortColumn() != -1 || s.b.perm != nil {
				t.Fatalf("after Reset: %d rows, %d bad, sorted on %d, order %v", s.b.NumRows(), s.b.NumBad(), s.b.SortColumn(), s.b.perm != nil)
			}
			refill := s.before[:50]
			for _, r := range refill {
				if err := s.b.AppendRow(r); err != nil {
					t.Fatal(err)
				}
			}
			sameRows(t, "refilled after Reset", s.b.Rows(), refill)
		}},
		{"SortBy's permutation is relative to the order before it", func(t *testing.T, s sorted) {
			arrival := NewBlock(testSchema)
			for _, r := range s.before {
				if err := arrival.AppendRow(r); err != nil {
					t.Fatal(err)
				}
			}
			perm, err := arrival.SortBy(s.col)
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range perm {
				if !s.want[i].Equal(s.before[p]) {
					t.Fatalf("first sort: row %d is not arrival row %d", i, p)
				}
			}
			next := (s.col + 1) % testSchema.NumFields()
			if perm, err = s.b.SortBy(next); err != nil {
				t.Fatal(err)
			}
			for i, p := range perm {
				if !s.b.Row(i).Equal(s.want[p]) {
					t.Fatalf("re-sort: row %d is not row %d of the first sort", i, p)
				}
			}
			sameRows(t, "re-sorted", s.b.Rows(), oracle(s.want, next))
		}},
	}
	for _, tc := range cases {
		for _, col := range []int{1, 4} {
			for _, decoded := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/col=%d/unmarshalled=%v", tc.name, col, decoded), func(t *testing.T) {
					b := buildBlock(t, 2*PartitionSize+300, int64(40+col))
					b.AppendBad("bad")
					before := b.Rows()
					if decoded {
						data, err := b.Marshal()
						if err != nil {
							t.Fatal(err)
						}
						if b, err = Unmarshal(data); err != nil {
							t.Fatal(err)
						}
					}
					if err := b.Sort(col); err != nil {
						t.Fatal(err)
					}
					tc.check(t, sorted{b: b, col: col, before: before, want: oracle(before, col)})
				})
			}
		}
	}
}

// Probes that only this package's tests call.

// Rows materializes every good row (test helper; O(rows × cols)).
func (b *Block) Rows() []schema.Row {
	out := make([]schema.Row, b.NumRows())
	for i := range out {
		out[i] = b.Row(i)
	}
	return out
}

// Clone deep-copies the block. Each replica of a block starts from the same
// logical content and is then sorted independently (paper §3.2).
func (b *Block) Clone() *Block {
	nb := *b
	nb.cols = make([]column, len(b.cols))
	for i, c := range b.cols {
		nb.cols[i] = column{typ: c.typ, data: bytes.Clone(c.data), starts: slices.Clone(c.starts), nul: c.nul}
	}
	nb.bad, nb.perm, nb.aliased = bytes.Clone(b.bad), slices.Clone(b.perm), false
	nb.order, nb.dirs = nil, nil
	return &nb
}

// ColumnSize returns the serialized size of attribute col.
func (r *Reader) ColumnSize(col int) int { return r.colLen[col] }
