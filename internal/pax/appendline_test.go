package pax

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/schema"
)

// lastFixed is a schema whose last field is fixed-size.
var lastFixed = schema.MustNew(
	schema.Field{Name: "url", Type: schema.String},
	schema.Field{Name: "day", Type: schema.Date},
	schema.Field{Name: "rev", Type: schema.Float64},
	schema.Field{Name: "big", Type: schema.Int64},
	schema.Field{Name: "id", Type: schema.Int32},
)

// lineParsers are the shapes of a line AppendLine must agree with
// ParseLine on. Its last field is a string, which takes the rest of the
// line separators included, or a fixed-size type, for which a separator
// there is one field too many. Its separator is a comma, or one a value can
// hold ('.' and '-'), with which AppendLine leaves every line to the
// reference parser.
var lineParsers = []*schema.Parser{
	schema.NewParser(testSchema),
	schema.NewParser(lastFixed),
	{Schema: testSchema, Sep: '.'},
	{Schema: lastFixed, Sep: '-'},
}

// checkAppendLine feeds lines to AppendLine on one block and to ParseLine +
// AppendRow on another, keeping rejected lines with AppendBad on both as an
// upload does. The two must agree on every line, error text included; a
// rejected line must leave AppendLine's block marshalling as before; and
// both blocks must marshal to the same bytes at the end. With sortAt ≥ 0
// both blocks are sorted on that column after that many lines, so later
// lines go behind sorted rows.
func checkAppendLine(t *testing.T, p *schema.Parser, lines []string, sortAt, sortCol int) {
	t.Helper()
	got, want := NewBlock(p.Schema), NewBlock(p.Schema)
	for k, line := range lines {
		if k == sortAt {
			for _, b := range []*Block{got, want} {
				if err := b.Sort(sortCol); err != nil {
					t.Fatal(err)
				}
			}
		}
		before, err := got.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		appendErr := got.AppendLine(p, line)
		row, parseErr := p.ParseLine(line)
		if fmt.Sprint(appendErr) != fmt.Sprint(parseErr) {
			t.Fatalf("line %q: AppendLine says %v, ParseLine %v", line, appendErr, parseErr)
		}
		if parseErr != nil {
			if after, err := got.Marshal(); err != nil || !bytes.Equal(after, before) {
				t.Fatalf("rejected line %q changed the block (%v)", line, err)
			}
			got.AppendBad(line)
			want.AppendBad(line)
			continue
		}
		if err := want.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	gotData, err := got.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	wantData, err := want.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotData, wantData) {
		t.Fatalf("AppendLine's block (%d rows, %d bad) marshals differently from ParseLine + AppendRow's (%d rows, %d bad)",
			got.NumRows(), got.NumBad(), want.NumRows(), want.NumBad())
	}
}

// FuzzAppendLine: whatever the text, each of its lines is accepted by
// AppendLine exactly when ParseLine accepts it, with the same error; a
// rejected line leaves the block's serialized form unchanged; and the
// block marshals byte for byte as the one ParseLine + AppendRow build.
// Each input runs against every one of lineParsers, its commas turned into
// the parser's separator.
func FuzzAppendLine(f *testing.F) {
	for _, seed := range []string{
		"7,1234567890123,12.5,1999-06-15,example.com/page",
		"7,1,2.5,1999-06-15,exa\x00mple",               // NUL in a string field
		"7,1,2.5,1999-06-15\x00,u",                     // NUL in a fixed-size field
		"7,1,2.5",                                      // too few fields
		"u,1999-06-15,2.5,1,7,8",                       // too many: separator in a last int32
		"7,1,2.5,1999-06-15,a,b,c",                     // separator in a last string
		"7,1,NaN,1999-06-15,u\n7,1,nan,1999-06-15,u",   // NaN
		"7,1,+Inf,1999-06-15,u\n7,1,-Inf,1999-06-15,u", // ±Inf parse
		"7,1,1e400,1999-06-15,u",                       // out of float64 range
		"2147483647,1,2.5,1999-06-15,u\n2147483648,1,2.5,1999-06-15,u\n-2147483649,1,2.5,1999-06-15,u", // int32 bounds
		"7,1,2.5,1999-02-29,u\n7,1,2.5,2000-02-29,u\n7,1,2.5,1900-02-29,u",                             // 29 Feb
		",,,,\n7,1,2.5,1999-06-15,\n,1999-06-15,2.5,1,7\n\n",                                           // empty fields
		// The edges of AppendLine's one pass (schema.ScanFixed's forms):
		"+5,-0,5.,1999-06-15,u\n-0,+5,.5,1999-06-15,u\n7,1,00.50,1999-06-15,u",                                             // signs and points
		"7,1,123456789012345,1999-06-15,u\n7,1,12345678.9012345,1999-06-15,u\n7,1,9.568871211445515,1999-06-15,u",          // 15 and 16 digits
		"7,1,1e5,1999-06-15,u\n7,1,1.5e-3,1999-06-15,u\nu,1999-06-15,2.5,1,1e5",                                            // exponents
		"1234567890,1,2.5,1999-06-15,u\n12345678901,1,2.5,1999-06-15,u\n-1234567890,99999999999999999999,2.5,1999-06-15,u", // 10 and 11 digits
		"2147483646,1,2.5,1999-06-15,u\n-2147483647,1,2.5,1999-06-15,u\nu,1999-06-15,2.5,1,2147483648",                     // int32 bounds ±1
		"7,1,2.5,1999-6-15,u\n7,1,2.5,1999-04-31,u\n7,1,2.5,1999-04-30,u",                                                  // short and 31 April
		"u,1999-06-15,2.5,1,7,\nu,1999-06-15,2.5,1,\n7,1,2.5,1999-06-15,",                                                  // a trailing separator
		"7x1,2.5,1999-06-15,u\n7,1,2.5x,1999-06-15,u\n7,1,2.5,1999-06-15x,u",                                               // a value not followed by the separator
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, p := range lineParsers {
			lines := strings.Split(strings.ReplaceAll(text, ",", string(p.Sep)), "\n")
			checkAppendLine(t, p, lines, len(lines)/2, 0)
		}
	})
}

// goodText and badText are each type's field texts that schema.ParseFixed
// accepts and rejects, edge values among them.
var (
	goodText = map[schema.Type][]string{
		schema.Int32:   {"0", "-7", "2147483647", "-2147483648", "+3"},
		schema.Int64:   {"1234567890123", "-9223372036854775808", "-0", "999999999999999999", "1000000000000000000"},
		schema.Float64: {"12.5", "-0", "0.1", "1e300", "+Inf", "-inf", ".5", "5.", "00.50", "123456789012345", "9.568871211445515"},
		schema.Date:    {"1999-06-15", "2000-02-29", "0001-01-01", "9999-12-31"},
		schema.String:  {"", "example.com/page", "long-url-with-many-characters/and/segments"},
	}
	badText = map[schema.Type][]string{
		schema.Int32:   {"2147483648", "0x10", " 1", ""},
		schema.Int64:   {"9223372036854775808", "1.5"},
		schema.Float64: {"1e400", "NaN", "1_0", ""},
		schema.Date:    {"1999-02-29", "1999-6-15", "1999-13-01", "0000-01-01"},
		schema.String:  {"x\x00y", "a,b"},
	}
)

// randomLine draws a line for p: half the time every field is good text,
// otherwise each field may be bad text or another type's text, and the
// line may have a field too few or too many.
func randomLine(rng *rand.Rand, p *schema.Parser) string {
	s := p.Schema
	bad := rng.Intn(2) == 0
	n := s.NumFields()
	if bad && rng.Intn(4) == 0 {
		n += 1 - 2*rng.Intn(2)
	}
	fields := make([]string, n)
	for i := range fields {
		typ := schema.String
		if i < s.NumFields() {
			typ = s.Field(i).Type
		}
		pool := goodText
		if bad && rng.Intn(3) == 0 {
			pool = badText
		}
		if bad && rng.Intn(8) == 0 {
			typ = schema.Type(1 + rng.Intn(int(schema.String)))
		}
		fields[i] = pool[typ][rng.Intn(len(pool[typ]))]
	}
	return strings.Join(fields, string(p.Sep))
}

// TestAppendLineMatchesParseLine is FuzzAppendLine's property over 3,000
// drawn lines per parser, sorted midway on each column in turn.
func TestAppendLineMatchesParseLine(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, p := range lineParsers {
		for col := range p.Schema.NumFields() {
			lines := make([]string, 600)
			for i := range lines {
				lines[i] = randomLine(rng, p)
			}
			checkAppendLine(t, p, lines, len(lines)/2, col)
		}
	}
}

// TestAppendLineAllocatesNothingPerLine: once the arenas have grown, the
// upload loop's parse allocates nothing per line — no row, no boxed values,
// no closure — and a NUL byte anywhere makes a bad record.
func TestAppendLineAllocatesNothingPerLine(t *testing.T) {
	p := schema.NewParser(testSchema)
	const line = "7,1234567890123,12.5,1999-06-15,example.com/page"
	b := NewBlock(testSchema)
	for range 200 {
		if err := b.AppendLine(p, line); err != nil {
			t.Fatal(err)
		}
	}
	b.Reset()
	if allocs := testing.AllocsPerRun(100, func() { _ = b.AppendLine(p, line) }); allocs != 0 {
		t.Errorf("AppendLine into grown arenas allocates %v times per line", allocs)
	}
	if b.NumRows() != 101 {
		t.Fatalf("%d rows after 101 appends", b.NumRows())
	}
	for _, bad := range []string{"7,1,12.5,1999-06-15,exa\x00mple", "7,1,12.5,1999-06-15,u\x00", "7\x00,1,12.5,1999-06-15,u"} {
		if err := b.AppendLine(p, bad); err == nil {
			t.Errorf("AppendLine(%q) accepted a NUL byte", bad)
		}
		if r, err := p.ParseLine(bad); err == nil || r != nil {
			t.Errorf("ParseLine(%q) = %v, %v", bad, r, err)
		}
	}
}

// TestAppendLineRejectsAnotherSchema: a parser for another schema is an
// error, not a stream of bad records.
func TestAppendLineRejectsAnotherSchema(t *testing.T) {
	b := NewBlock(testSchema)
	if err := b.AppendLine(schema.NewParser(lastFixed), "u,1999-06-15,2.5,1,7"); err == nil || b.NumRows() != 0 {
		t.Errorf("AppendLine with another schema's parser: %v, %d rows", err, b.NumRows())
	}
}

// TestNULFlagFollowsTheRows: the NUL AppendRow stores is remembered by
// Clone and View, refused by Marshal, and forgotten by Reset.
func TestNULFlagFollowsTheRows(t *testing.T) {
	b := buildBlock(t, 10, 1)
	row := testRow(rand.New(rand.NewSource(2)))
	row[4] = schema.StringVal("a\x00b")
	if err := b.AppendRow(row); err != nil {
		t.Fatal(err)
	}
	for name, blk := range map[string]*Block{"block": b, "clone": b.Clone(), "view": b.View()} {
		if _, err := blk.Marshal(); err == nil {
			t.Errorf("%s: Marshal accepted a NUL inside a value", name)
		}
	}
	b.Reset()
	if err := b.AppendRow(testRow(rand.New(rand.NewSource(3)))); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Marshal(); err != nil {
		t.Errorf("after Reset: %v", err)
	}
}

// TestViewsSortConcurrentlyOverOneBlock is the upload pipeline's use of
// View: one Unmarshal'd block, one view per replica sorted on its own
// column, all at once (run it under -race). Each view marshals as a clone
// sorted alone would; the block and its input bytes are left as they were,
// and appending to a view leaves the block alone too.
func TestViewsSortConcurrentlyOverOneBlock(t *testing.T) {
	src := buildBlock(t, 3*PartitionSize+5, 8)
	src.AppendBad("not,a,row")
	data, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	input := bytes.Clone(data)
	base, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	cols := testSchema.NumFields()
	got := make([][]byte, cols)
	errs := make([]error, cols)
	var wg sync.WaitGroup
	for col := range cols {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := base.View()
			if errs[col] = v.Sort(col); errs[col] == nil {
				got[col], errs[col] = v.Marshal()
			}
		}()
	}
	wg.Wait()
	for col := range cols {
		want := src.Clone()
		if err := want.Sort(col); err != nil {
			t.Fatal(err)
		}
		wantData, err := want.Marshal()
		if err != nil || errs[col] != nil {
			t.Fatalf("column %d: %v / %v", col, err, errs[col])
		}
		if !bytes.Equal(got[col], wantData) {
			t.Errorf("view sorted on %d marshals differently from a clone sorted alone", col)
		}
	}
	v := base.View()
	if err := v.AppendRow(testRow(rand.New(rand.NewSource(9)))); err != nil {
		t.Fatal(err)
	}
	if again, err := base.Marshal(); err != nil || !bytes.Equal(again, input) || !bytes.Equal(data, input) {
		t.Errorf("sorting and appending to views changed the block or its input (%v)", err)
	}
}

// TestPooledBlocksRecycleWhatTheyBorrowed: blocks of several sizes go
// through the pipeline's cycle one after another — UnmarshalPooled, one
// view per attribute sorted at once, every view and then the block
// released — so each takes arrays an earlier one gave back, and each
// view marshals as a clone sorted alone does. The pool is stocked with
// garbage-filled arrays first, so an entry read before it is written
// shows. A view releases none of its parent's arrays, and a malformed
// input borrows nothing it keeps.
func TestPooledBlocksRecycleWhatTheyBorrowed(t *testing.T) {
	cols := testSchema.NumFields()
	for i, n := range []int{3*PartitionSize + 5, 100, 2 * PartitionSize, 0, PartitionSize + 1} {
		for range cols + 1 {
			buf := borrow[uint32](&u32Bufs, 4*PartitionSize)
			for j := range *buf {
				(*buf)[j] = 0xdeadbeef
			}
			u32Bufs.Put(buf)
		}
		src := buildBlock(t, n, int64(20+i))
		src.AppendBad("bad")
		data, err := src.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		base, err := UnmarshalPooled(data)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]byte, cols)
		errs := make([]error, cols)
		var wg sync.WaitGroup
		for col := range cols {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v := base.View()
				defer v.Release()
				if errs[col] = v.Sort(col); errs[col] == nil {
					got[col], errs[col] = v.Marshal()
				}
			}()
		}
		wg.Wait()
		for col := range cols {
			want := src.Clone()
			if err := want.Sort(col); err != nil {
				t.Fatal(err)
			}
			wantData, err := want.Marshal()
			if err != nil || errs[col] != nil {
				t.Fatalf("n=%d, column %d: %v / %v", n, col, err, errs[col])
			}
			if !bytes.Equal(got[col], wantData) {
				t.Fatalf("n=%d: view sorted on %d marshals differently from a clone sorted alone", n, col)
			}
		}
		if again, err := base.Marshal(); err != nil || !bytes.Equal(again, data) {
			t.Fatalf("n=%d: the pooled block no longer marshals to its input (%v)", n, err)
		}
		base.Release()
	}

	sorted := buildBlock(t, 2*PartitionSize, 30)
	if err := sorted.Sort(1); err != nil {
		t.Fatal(err)
	}
	want := sorted.Rows()
	sorted.View().Release()
	other := buildBlock(t, 2*PartitionSize, 31)
	if err := other.Sort(2); err != nil {
		t.Fatal(err)
	}
	for i, row := range want {
		if !sorted.Row(i).Equal(row) {
			t.Fatalf("releasing a view gave away its parent's order: row %d changed", i)
		}
	}

	data, err := buildBlock(t, 10, 32).Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := UnmarshalPooled(data[:len(data)-3]); err == nil {
		t.Error("UnmarshalPooled accepted a truncated block")
	}
}
