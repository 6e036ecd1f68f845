package schema

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestBinaryForm holds the binary form to its bytes and round-trips each
// value bit for bit, from a byte slice and from a string, after a prefix
// so that offsets count.
func TestBinaryForm(t *testing.T) {
	long := strings.Repeat("x", math.MaxUint16)
	cases := []struct {
		v    Value
		want []byte // nil: not spelled out
	}{
		{IntVal(math.MinInt32), []byte{0, 0, 0, 0x80}},
		{IntVal(math.MaxInt32), []byte{0xff, 0xff, 0xff, 0x7f}},
		{IntVal(-1), []byte{0xff, 0xff, 0xff, 0xff}},
		{LongVal(math.MaxInt64), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		{LongVal(math.MinInt64), []byte{0, 0, 0, 0, 0, 0, 0, 0x80}},
		{FloatVal(math.Copysign(0, -1)), []byte{0, 0, 0, 0, 0, 0, 0, 0x80}},
		{FloatVal(math.Inf(1)), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x7f}},
		{FloatVal(math.Inf(-1)), []byte{0, 0, 0, 0, 0, 0, 0xf0, 0xff}},
		{FloatVal(1.5), nil},
		{DateVal(MustDate("0001-01-01")), nil},
		{DateVal(-1), []byte{0xff, 0xff, 0xff, 0xff}},
		{StringVal(""), []byte{0, 0}},
		{StringVal("ab\x00c"), []byte{4, 0, 'a', 'b', 0, 'c'}},
		{StringVal(long), nil},
	}
	for _, c := range cases {
		enc, err := AppendBinary([]byte("pre"), c.v)
		if err != nil {
			t.Fatalf("%s %.20q: %v", c.v.Type(), c.v.String(), err)
		}
		if c.want != nil && !bytes.Equal(enc[3:], c.want) {
			t.Errorf("%s %q: binary form % x, want % x", c.v.Type(), c.v, enc[3:], c.want)
		}
		if c.v.Type().FixedSize() {
			if fixed := AppendFixed(nil, c.v.Type(), c.v.Bits()); !bytes.Equal(fixed, enc[3:]) {
				t.Errorf("%s %q: AppendFixed gives % x, AppendBinary % x", c.v.Type(), c.v, fixed, enc[3:])
			}
			if bits := LoadFixed(c.v.Type(), enc[3:]); bits != c.v.Bits() {
				t.Errorf("%s %q: LoadFixed gives %#x, want %#x", c.v.Type(), c.v, bits, c.v.Bits())
			}
		}
		check := func(src string, got Value, next int, err error) {
			t.Helper()
			if err != nil || next != len(enc) || got.Type() != c.v.Type() || got.Bits() != c.v.Bits() || got.String() != c.v.String() {
				t.Errorf("%s %.20q read from a %s: %s %.20q, next %d, err %v; want next %d",
					c.v.Type(), c.v.String(), src, got.Type(), got.String(), next, err, len(enc))
			}
		}
		got, next, err := ReadBinary(c.v.Type(), enc, 3)
		check("byte slice", got, next, err)
		got, next, err = ReadBinary(c.v.Type(), string(enc), 3)
		check("string", got, next, err)
	}
}

// TestBinaryFormRefuses: a string the uint16 cannot count, a type with
// no binary form, and every truncation of every value from both source
// kinds.
func TestBinaryFormRefuses(t *testing.T) {
	if _, err := AppendBinary(nil, StringVal(strings.Repeat("x", math.MaxUint16+1))); err == nil {
		t.Error("a 65,536-byte string was encoded")
	}
	if _, err := AppendBinary(nil, Value{}); err == nil {
		t.Error("an invalid value was encoded")
	}
	if _, _, err := ReadBinary(Invalid, []byte{0, 0, 0, 0, 0, 0, 0, 0}, 0); err == nil {
		t.Error("an invalid type was decoded")
	}
	for _, v := range []Value{IntVal(7), LongVal(7), FloatVal(7), DateVal(7), StringVal(""), StringVal("seven")} {
		enc, err := AppendBinary(nil, v)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut < len(enc); cut++ {
			if _, _, err := ReadBinary(v.Type(), enc[:cut], 0); err == nil {
				t.Errorf("%s %q cut to %d bytes decoded from a byte slice", v.Type(), v, cut)
			}
			if _, _, err := ReadBinary(v.Type(), string(enc[:cut]), 0); err == nil {
				t.Errorf("%s %q cut to %d bytes decoded from a string", v.Type(), v, cut)
			}
		}
		for _, off := range []int{-1, len(enc) + 1} {
			if _, _, err := ReadBinary(v.Type(), enc, off); err == nil {
				t.Errorf("%s %q decoded at offset %d of %d bytes", v.Type(), v, off, len(enc))
			}
		}
	}
}

// TestReadBinaryFromAStringCopiesNothing: a string read from a string
// source is a substring of it, and a fixed value from either source
// allocates nothing.
func TestReadBinaryFromAStringCopiesNothing(t *testing.T) {
	str, _ := AppendBinary(nil, StringVal("a key of some length"))
	fixed, _ := AppendBinary(nil, FloatVal(2.5))
	src, fsrc := string(str), string(fixed)
	var sink Value
	for name, read := range map[string]func(){
		"string from a string": func() { sink, _, _ = ReadBinary(String, src, 0) },
		"float from a string":  func() { sink, _, _ = ReadBinary(Float64, fsrc, 0) },
		"float from bytes":     func() { sink, _, _ = ReadBinary(Float64, fixed, 0) },
	} {
		if n := testing.AllocsPerRun(100, read); n != 0 {
			t.Errorf("%s: %v allocations, want 0", name, n)
		}
	}
	if sink.Type() == Invalid {
		t.Fatal("nothing read")
	}
}

// TestParseValueIsParseFixedsBits: ParseValue builds its value from
// ParseFixed's bits through FixedValue, so Bits gives them back.
func TestParseValueIsParseFixedsBits(t *testing.T) {
	for _, c := range []struct {
		t    Type
		text string
	}{{Int32, "-2147483648"}, {Int64, "9223372036854775807"}, {Float64, "-0"}, {Float64, "+Inf"}, {Date, "1969-12-31"}} {
		bits, err := ParseFixed(c.t, c.text)
		if err != nil {
			t.Fatal(err)
		}
		v, err := ParseValue(c.t, c.text)
		if err != nil || v.Type() != c.t || v.Bits() != bits || FixedValue(c.t, bits) != v {
			t.Errorf("ParseValue(%s, %q) = %s %v (bits %#x), %v; ParseFixed's bits %#x", c.t, c.text, v.Type(), v, v.Bits(), err, bits)
		}
	}
}
