package schema

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestParseSchema(t *testing.T) {
	s, err := ParseSchema("sourceIP:string,visitDate:date,adRevenue:float64,duration:int32,count:int64")
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	if s.NumFields() != 5 {
		t.Fatalf("NumFields = %d, want 5", s.NumFields())
	}
	want := []Field{
		{"sourceIP", String}, {"visitDate", Date}, {"adRevenue", Float64},
		{"duration", Int32}, {"count", Int64},
	}
	for i, f := range want {
		if s.Field(i) != f {
			t.Errorf("Field(%d) = %v, want %v", i, s.Field(i), f)
		}
	}
	if got := s.Index("adRevenue"); got != 2 {
		t.Errorf("Index(adRevenue) = %d, want 2", got)
	}
	if got := s.Index("nope"); got != -1 {
		t.Errorf("Index(nope) = %d, want -1", got)
	}
}

func TestParseSchemaRoundTrip(t *testing.T) {
	const ddl = "a:int32,b:int64,c:float64,d:date,e:string"
	s, err := ParseSchema(ddl)
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	if s.String() != ddl {
		t.Errorf("String() = %q, want %q", s.String(), ddl)
	}
	s2, err := ParseSchema(s.String())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !s.Equal(s2) {
		t.Error("round-tripped schema not Equal")
	}
}

func TestParseSchemaErrors(t *testing.T) {
	for _, ddl := range []string{
		"", "a", "a:frob", "a:int32,a:int64", ":int32", "a:int32,,b:int64",
	} {
		if _, err := ParseSchema(ddl); err == nil {
			t.Errorf("ParseSchema(%q) succeeded, want error", ddl)
		}
	}
}

func TestNewRejectsBadFields(t *testing.T) {
	if _, err := New(); err == nil {
		t.Error("New() with no fields succeeded")
	}
	if _, err := New(Field{"", Int32}); err == nil {
		t.Error("New with empty name succeeded")
	}
	if _, err := New(Field{"a", Invalid}); err == nil {
		t.Error("New with Invalid type succeeded")
	}
	if _, err := New(Field{"a", Int32}, Field{"a", Int64}); err == nil {
		t.Error("New with duplicate names succeeded")
	}
}

func TestTypeProperties(t *testing.T) {
	fixed := map[Type]int{Int32: 4, Int64: 8, Float64: 8, Date: 4}
	for typ, w := range fixed {
		if !typ.FixedSize() {
			t.Errorf("%s.FixedSize() = false", typ)
		}
		if typ.Width() != w {
			t.Errorf("%s.Width() = %d, want %d", typ, typ.Width(), w)
		}
	}
	if String.FixedSize() {
		t.Error("String.FixedSize() = true")
	}
	if String.Width() != 0 {
		t.Errorf("String.Width() = %d, want 0", String.Width())
	}
}

func TestValueRoundTrip(t *testing.T) {
	cases := []struct {
		t    Type
		text string
	}{
		{Int32, "-12345"},
		{Int32, "0"},
		{Int64, "9223372036854775807"},
		{Float64, "3.25"},
		{Date, "1999-01-01"},
		{Date, "1970-01-01"},
		{String, "hello, world"},
		{String, ""},
	}
	for _, c := range cases {
		v, err := ParseValue(c.t, c.text)
		if err != nil {
			t.Errorf("ParseValue(%s, %q): %v", c.t, c.text, err)
			continue
		}
		if v.String() != c.text {
			t.Errorf("ParseValue(%s, %q).String() = %q", c.t, c.text, v.String())
		}
		if v.Type() != c.t {
			t.Errorf("type = %s, want %s", v.Type(), c.t)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	bad := []struct {
		t    Type
		text string
	}{
		{Int32, "abc"},
		{Int32, "99999999999999"},
		{Int64, "1.5"},
		{Float64, "NaN"},
		{Float64, "x"},
		{Date, "1999/01/01"},
		{Date, "not-a-date"},
	}
	for _, c := range bad {
		if _, err := ParseValue(c.t, c.text); err == nil {
			t.Errorf("ParseValue(%s, %q) succeeded, want error", c.t, c.text)
		}
	}
}

func TestValueCompare(t *testing.T) {
	if IntVal(1).Compare(IntVal(2)) >= 0 {
		t.Error("1 >= 2")
	}
	if LongVal(5).Compare(LongVal(5)) != 0 {
		t.Error("5 != 5")
	}
	if FloatVal(2.5).Compare(FloatVal(-1)) <= 0 {
		t.Error("2.5 <= -1")
	}
	if StringVal("a").Compare(StringVal("b")) >= 0 {
		t.Error("a >= b")
	}
	d1, d2 := DateVal(MustDate("1999-01-01")), DateVal(MustDate("2000-01-01"))
	if d1.Compare(d2) >= 0 {
		t.Error("1999 >= 2000")
	}
}

func TestValueComparePanicsOnMixedTypes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic comparing int32 to string")
		}
	}()
	IntVal(1).Compare(StringVal("x"))
}

func TestCompareIsTotalOrder(t *testing.T) {
	cfg := &quick.Config{MaxCount: 500}
	antisym := func(a, b int32) bool {
		return IntVal(a).Compare(IntVal(b)) == -IntVal(b).Compare(IntVal(a))
	}
	if err := quick.Check(antisym, cfg); err != nil {
		t.Error(err)
	}
	trans := func(a, b, c int64) bool {
		va, vb, vc := LongVal(a), LongVal(b), LongVal(c)
		if va.Compare(vb) <= 0 && vb.Compare(vc) <= 0 {
			return va.Compare(vc) <= 0
		}
		return true
	}
	if err := quick.Check(trans, cfg); err != nil {
		t.Error(err)
	}
	strEq := func(a, b string) bool {
		return (StringVal(a).Compare(StringVal(b)) == 0) == (a == b)
	}
	if err := quick.Check(strEq, cfg); err != nil {
		t.Error(err)
	}
}

func TestDateRoundTripProperty(t *testing.T) {
	f := func(days int32) bool {
		// Stay within a sane calendar range (years ~1678 to ~2262).
		days %= 100000
		got, err := ParseDate(FormatDate(days))
		return err == nil && got == days
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestParseDateAgreesWithTimeParse holds ParseDate's arithmetic fast path
// to the layout-driven parse it shortcuts: the same day number for every
// date of eight centuries and at the ends of the range, and the same
// verdict on everything that only looks like a date.
func TestParseDateAgreesWithTimeParse(t *testing.T) {
	check := func(s string) {
		t.Helper()
		ref, refErr := time.Parse("2006-01-02", s)
		got, err := ParseDate(s)
		if (err == nil) != (refErr == nil) || (err == nil && int64(got) != ref.Unix()/86400) {
			t.Fatalf("ParseDate(%q) = %d, %v; time.Parse says %d, %v", s, got, err, ref.Unix()/86400, refErr)
		}
	}
	for d := time.Date(1599, 12, 25, 0, 0, 0, 0, time.UTC); d.Year() < 2401; d = d.AddDate(0, 0, 1) {
		check(d.Format("2006-01-02"))
	}
	for _, s := range []string{
		"0001-01-01", "0001-03-01", "0000-01-01", "0000-12-31", "9999-12-31", "0400-02-29", "0100-02-29",
		"1900-02-29", "2000-02-29", "1999-02-29", "1999-04-31", "1999-06-30", "1999-13-01", "1999-00-10",
		"1999-01-00", "1999-01-32", "199a-01-01", "1999-1-01", "1999-01-1", " 1999-01-01", "1999-01-01 ",
		"1999/01/01", "+999-01-01", "1999-0a-01", "", "1999-01-011",
	} {
		check(s)
	}
}

// FuzzParseDate holds ParseDate to time.Parse on any text: the same
// verdict, and on a date the same day. Every date in the one form
// parseCivil reads — YYYY-MM-DD with a year from 0001, as time formats it
// back — must also be taken by that fast path, so a rejection of
// parseCivil's is checked against the reference too, not only its
// acceptances. The seeds are TestParseDateAgreesWithTimeParse's edge forms.
func FuzzParseDate(f *testing.F) {
	for _, s := range []string{
		"0001-01-01", "0001-03-01", "0000-01-01", "0000-12-31", "9999-12-31", "0400-02-29", "0100-02-29",
		"1900-02-29", "2000-02-29", "1999-02-29", "1999-04-31", "1999-06-30", "1999-13-01", "1999-00-10",
		"1999-01-00", "1999-01-32", "199a-01-01", "1999-1-01", "1999-01-1", " 1999-01-01", "1999-01-01 ",
		"1999/01/01", "+999-01-01", "1999-0a-01", "", "1999-01-011",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ref, refErr := time.Parse("2006-01-02", s)
		got, err := ParseDate(s)
		if (err == nil) != (refErr == nil) || (err == nil && int64(got) != ref.Unix()/86400) {
			t.Fatalf("ParseDate(%q) = %d, %v; time.Parse says %d, %v", s, got, err, ref.Unix()/86400, refErr)
		}
		if _, ok := parseCivil(s); !ok && refErr == nil && ref.Year() >= 1 && ref.Format("2006-01-02") == s {
			t.Fatalf("parseCivil declines %q, a date in its own form", s)
		}
	})
}

// TestFormatDateAgreesWithTimeFormat holds the one date formatter to the
// layout-driven format it replaced: the same text for every day of the
// years 0001 to 9999 — which is also every date parseCivil accepts, so the
// two must invert each other over it — and, outside them, for the ends of
// int32, both sides of year 0 and of year 10000, and random days.
func TestFormatDateAgreesWithTimeFormat(t *testing.T) {
	var got, ref []byte
	check := func(days int32) {
		got = AppendDate(got[:0], days)
		ref = time.Unix(int64(days)*86400, 0).UTC().AppendFormat(ref[:0], "2006-01-02")
		if string(got) != string(ref) {
			t.Fatalf("AppendDate(%d) = %q, time.Format says %q", days, got, ref)
		}
	}
	first := int32(time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC).Unix() / 86400)
	last := int32(time.Date(9999, 12, 31, 0, 0, 0, 0, time.UTC).Unix() / 86400)
	for d := first; d <= last; d++ {
		check(d)
		if back, ok := parseCivil(string(got)); !ok || back != d {
			t.Fatalf("parseCivil(%q) = %d, %v; it is day %d", got, back, ok, d)
		}
	}
	yearZero := int32(time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix() / 86400)
	for _, d := range []int32{
		math.MinInt32, math.MinInt32 + 1, math.MaxInt32 - 1, math.MaxInt32,
		first - 367, first - 366, first - 2, first - 1, yearZero - 1, yearZero, yearZero + 1,
		last + 1, last + 2, last + 366, last + 367,
	} {
		check(d)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 100_000; i++ {
		check(int32(rng.Uint32()))
	}
	for _, d := range []int32{first, -1, 0, 10_957, last} {
		if s := FormatDate(d); s != DateVal(d).String() || s != string(AppendDate(nil, d)) {
			t.Errorf("FormatDate(%d) = %q, Value.String %q", d, s, DateVal(d).String())
		}
		if back, err := ParseDate(FormatDate(d)); err != nil || back != d {
			t.Errorf("ParseDate(FormatDate(%d)) = %d, %v", d, back, err)
		}
	}
}

func TestParserParseLine(t *testing.T) {
	s := MustNew(
		Field{"sourceIP", String},
		Field{"visitDate", Date},
		Field{"adRevenue", Float64},
	)
	p := NewParser(s)
	row, err := p.ParseLine("134.96.223.160,1999-06-15,12.5")
	if err != nil {
		t.Fatalf("ParseLine: %v", err)
	}
	if row[0].Str() != "134.96.223.160" {
		t.Errorf("sourceIP = %q", row[0].Str())
	}
	if row[1].Days() != MustDate("1999-06-15") {
		t.Errorf("visitDate = %d", row[1].Days())
	}
	if row[2].Float() != 12.5 {
		t.Errorf("adRevenue = %v", row[2].Float())
	}
}

func TestParserBadRecords(t *testing.T) {
	s := MustNew(Field{"a", Int32}, Field{"b", Date})
	p := NewParser(s)
	for _, line := range []string{
		"1",                  // too few fields
		"1,1999-01-01,extra", // too many fields
		"x,1999-01-01",       // bad int
		"1,yesterday",        // bad date
		"",                   // empty line
	} {
		if _, err := p.ParseLine(line); err == nil {
			t.Errorf("ParseLine(%q) succeeded, want error", line)
		}
	}
}

func TestParserLastFieldString(t *testing.T) {
	// A trailing string field may contain the separator.
	s := MustNew(Field{"a", Int32}, Field{"msg", String})
	p := NewParser(s)
	row, err := p.ParseLine("7,hello,with,commas")
	if err != nil {
		t.Fatalf("ParseLine: %v", err)
	}
	if row[1].Str() != "hello,with,commas" {
		t.Errorf("msg = %q", row[1].Str())
	}
}

func TestRowLineRoundTrip(t *testing.T) {
	s := MustNew(
		Field{"a", Int32}, Field{"b", Int64}, Field{"c", Float64},
		Field{"d", Date}, Field{"e", String},
	)
	p := NewParser(s)
	const line = "1,2,3.5,2011-11-11,tail"
	row, err := p.ParseLine(line)
	if err != nil {
		t.Fatalf("ParseLine: %v", err)
	}
	if got := row.Line(','); got != line {
		t.Errorf("Line = %q, want %q", got, line)
	}
	row2, err := p.ParseLine(row.Line(','))
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if !row.Equal(row2) {
		t.Error("row round trip mismatch")
	}
}

func TestRowKeyDistinguishesRows(t *testing.T) {
	a := Row{IntVal(1), StringVal("x")}
	b := Row{IntVal(1), StringVal("y")}
	if RowKey(a) == RowKey(b) {
		t.Error("RowKey collision for different rows")
	}
	if RowKey(a) != RowKey(Row{IntVal(1), StringVal("x")}) {
		t.Error("RowKey differs for equal rows")
	}
}

func TestSchemaEqual(t *testing.T) {
	a := MustNew(Field{"x", Int32})
	b := MustNew(Field{"x", Int32})
	c := MustNew(Field{"x", Int64})
	if !a.Equal(b) {
		t.Error("identical schemas not Equal")
	}
	if a.Equal(c) {
		t.Error("different schemas Equal")
	}
	if a.Equal(nil) {
		t.Error("schema Equal(nil)")
	}
}

func TestValueAccessorPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("Int on string", func() { StringVal("x").Int() })
	mustPanic("Str on int", func() { IntVal(1).Str() })
	mustPanic("Float on int", func() { IntVal(1).Float() })
	mustPanic("Days on int64", func() { LongVal(1).Days() })
	mustPanic("Long on float", func() { FloatVal(1).Long() })
}

func TestTypeStringNames(t *testing.T) {
	for _, typ := range []Type{Int32, Int64, Float64, Date, String} {
		back, err := ParseType(typ.String())
		if err != nil || back != typ {
			t.Errorf("ParseType(%s.String()) = %v, %v", typ, back, err)
		}
	}
	if !strings.Contains(Invalid.String(), "invalid") {
		t.Errorf("Invalid.String() = %q", Invalid.String())
	}
}
