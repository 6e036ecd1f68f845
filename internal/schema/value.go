package schema

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Value is one typed attribute value. The zero Value has type Invalid and
// holds nothing; use the constructors to build values.
type Value struct {
	typ Type
	num int64   // Int32, Int64, Date (days since epoch)
	f   float64 // Float64
	s   string  // String
}

// IntVal returns an Int32 value.
func IntVal(v int32) Value { return Value{typ: Int32, num: int64(v)} }

// LongVal returns an Int64 value.
func LongVal(v int64) Value { return Value{typ: Int64, num: v} }

// FloatVal returns a Float64 value.
func FloatVal(v float64) Value { return Value{typ: Float64, f: v} }

// DateVal returns a Date value from days since the Unix epoch.
func DateVal(days int32) Value { return Value{typ: Date, num: int64(days)} }

// StringVal returns a String value.
func StringVal(v string) Value { return Value{typ: String, s: v} }

// Type returns the type of the value.
func (v Value) Type() Type { return v.typ }

// Int returns the value as int32. It panics if the type is not Int32/Date.
func (v Value) Int() int32 {
	if v.typ != Int32 && v.typ != Date {
		panic(fmt.Sprintf("schema: Int() on %s value", v.typ))
	}
	return int32(v.num)
}

// Long returns the value as int64 for any integer-backed type.
func (v Value) Long() int64 {
	switch v.typ {
	case Int32, Int64, Date:
		return v.num
	}
	panic(fmt.Sprintf("schema: Long() on %s value", v.typ))
}

// Float returns the Float64 value.
func (v Value) Float() float64 {
	if v.typ != Float64 {
		panic(fmt.Sprintf("schema: Float() on %s value", v.typ))
	}
	return v.f
}

// Str returns the String value.
func (v Value) Str() string {
	if v.typ != String {
		panic(fmt.Sprintf("schema: Str() on %s value", v.typ))
	}
	return v.s
}

// Days returns the Date value as days since the Unix epoch.
func (v Value) Days() int32 {
	if v.typ != Date {
		panic(fmt.Sprintf("schema: Days() on %s value", v.typ))
	}
	return int32(v.num)
}

// String renders the value in the same textual form ParseValue accepts.
func (v Value) String() string {
	switch v.typ {
	case Int32, Int64:
		return strconv.FormatInt(v.num, 10)
	case Float64:
		var buf [32]byte
		return string(AppendFloat(buf[:0], v.f))
	case Date:
		return FormatDate(int32(v.num))
	case String:
		return v.s
	default:
		return "<invalid>"
	}
}

// Compare orders v against o; both must have the same type. It returns a
// negative number, zero, or a positive number as v is less than, equal to,
// or greater than o.
func (v Value) Compare(o Value) int {
	if v.typ != o.typ {
		panic(fmt.Sprintf("schema: comparing %s against %s", v.typ, o.typ))
	}
	switch v.typ {
	case Int32, Int64, Date:
		switch {
		case v.num < o.num:
			return -1
		case v.num > o.num:
			return 1
		}
		return 0
	case Float64:
		switch {
		case v.f < o.f:
			return -1
		case v.f > o.f:
			return 1
		}
		return 0
	case String:
		return strings.Compare(v.s, o.s)
	default:
		panic("schema: comparing invalid values")
	}
}

// Equal reports whether v and o are the same typed value.
func (v Value) Equal(o Value) bool { return v.typ == o.typ && v.Compare(o) == 0 }

// ParseValue parses the textual representation of a value of type t.
// Float parsing rejects NaN so that sort orders are total.
func ParseValue(t Type, s string) (Value, error) {
	if t == String {
		return StringVal(s), nil
	}
	bits, err := ParseFixed(t, s)
	if err != nil {
		return Value{}, err
	}
	return FixedValue(t, bits), nil
}

// ParseFixed parses the text of a value of the fixed-size type t into the
// bits a PAX column stores for it, little-endian in t.Width() bytes: an
// int32 or a date (days since the Unix epoch) in the low 32 bits, an int64
// or a float64's IEEE 754 bits in all 64. It is the reference scalar
// parser: ParseValue goes through it, and so does the upload path's
// pax.Block.AppendLine for any value ScanFixed, its fast path, does not
// take; ScanFixed is held to give the same bits (FuzzScanFixed), so both
// paths reject the same text. Float parsing rejects NaN.
func ParseFixed(t Type, s string) (uint64, error) {
	switch t {
	case Int32:
		n, err := strconv.ParseInt(s, 10, 32)
		if err != nil {
			return 0, fmt.Errorf("schema: bad int32 %q: %v", s, err)
		}
		return uint64(uint32(n)), nil
	case Int64:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("schema: bad int64 %q: %v", s, err)
		}
		return uint64(n), nil
	case Float64:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(f) {
			return 0, fmt.Errorf("schema: bad float64 %q", s)
		}
		return math.Float64bits(f), nil
	case Date:
		d, err := ParseDate(s)
		if err != nil {
			return 0, err
		}
		return uint64(uint32(d)), nil
	}
	return 0, fmt.Errorf("schema: cannot parse a value of type %s as fixed-size", t)
}

// ParseDate parses a YYYY-MM-DD date into days since the Unix epoch.
func ParseDate(s string) (int32, error) {
	if days, ok := parseCivil(s); ok {
		return days, nil
	}
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("schema: bad date %q: %v", s, err)
	}
	return int32(t.Unix() / 86400), nil
}

// parseCivil is ParseDate's fast path, several times cheaper than a
// layout-driven time.Parse on the upload path's every row: exactly
// YYYY-MM-DD with a year from 0001 and a day the month has. Anything else
// is left to time.Parse, which decides what is an error and words it.
func parseCivil(s string) (days int32, ok bool) {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return 0, false
	}
	// A byte below '0' wraps past 9 too.
	y0, y1, y2, y3 := s[0]-'0', s[1]-'0', s[2]-'0', s[3]-'0'
	m0, m1, d0, d1 := s[5]-'0', s[6]-'0', s[8]-'0', s[9]-'0'
	if y0 > 9 || y1 > 9 || y2 > 9 || y3 > 9 || m0 > 9 || m1 > 9 || d0 > 9 || d1 > 9 {
		return 0, false
	}
	y := uint(y0)*1000 + uint(y1)*100 + uint(y2)*10 + uint(y3)
	m, d := uint(m0)*10+uint(m1), uint(d0)*10+uint(d1)
	if y < 1 || m < 1 || m > 12 || d < 1 {
		return 0, false
	}
	leap := y%4 == 0 && (y%100 != 0 || y%400 == 0)
	if d > monthDays[m-1] && !(leap && m == 2 && d == 29) {
		return 0, false
	}
	// Days since 0001-01-01 in the proleptic Gregorian calendar time uses:
	// the years before this one with their leap days, the months before
	// this one, and this year's leap day once it is past.
	p := y - 1
	n := p*365 + p/4 - p/100 + p/400 + monthStart[m-1] + d - 1
	if leap && m > 2 {
		n++
	}
	return int32(n) - 719162, true // 1970-01-01 is day 719,162
}

// monthDays is each month's length in a common year, and monthStart the
// days of a common year before each month.
var (
	monthDays  = [...]uint{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}
	monthStart = [...]uint{0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334}
)

// FormatDate renders days since the Unix epoch as YYYY-MM-DD.
func FormatDate(days int32) string { return string(AppendDate(nil, days)) }

// AppendDate appends FormatDate(days) to dst: the one date formatter, for
// the row path (Value.String), the text baselines and the batch path
// (Vector.AppendText). It is parseCivil's inverse for the years ParseDate's
// fast path accepts: the era arithmetic finds the year and the day of a
// March-based year, a table gives that day's "-MM-DD", and another the
// year's digits two at a time. Outside 0001–9999 the year is not four
// digits and time words it.
func AppendDate(dst []byte, days int32) []byte {
	const minDays, maxDays = -719162, 2932896 // 0001-01-01 and 9999-12-31
	if days < minDays || days > maxDays {
		return time.Unix(int64(days)*86400, 0).UTC().AppendFormat(dst, "2006-01-02")
	}
	// Days since 0000-03-01 (positive here), then the year counted from
	// March, so that the leap day is the last of its year.
	z := int(days) + 719468
	dayOfEra := z % 146097
	yearOfEra := (dayOfEra - dayOfEra/1460 + dayOfEra/36524 - dayOfEra/146096) / 365
	dayOfYear := dayOfEra - (365*yearOfEra + yearOfEra/4 - yearOfEra/100)
	y := z/146097*400 + yearOfEra
	if dayOfYear >= marchJan1 {
		y++ // January and February end the March-based year
	}
	hi, lo := 2*(y/100), 2*(y%100)
	dst = append(append(dst, digitPairs[hi:hi+2]...), digitPairs[lo:lo+2]...)
	return append(dst, marchMonthDay[dayOfYear][:]...)
}

// digitPairs holds "00" to "99" back to back.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// marchJan1 is January 1st's day of a March-based year.
const marchJan1 = 306

// marchMonthDay is "-MM-DD" for each day of a March-based year, from
// March 1st (0) to February 29th (365).
var marchMonthDay = func() (t [366][6]byte) {
	for doy := range t {
		mp := (5*doy + 2) / 153 // months since March
		d, m := doy-(153*mp+2)/5+1, mp+3
		if m > 12 {
			m -= 12
		}
		t[doy] = [6]byte{'-', byte('0' + m/10), byte('0' + m%10), '-', byte('0' + d/10), byte('0' + d%10)}
	}
	return t
}()

// AppendFloat appends f's shortest text — exactly strconv.AppendFloat(dst,
// f, 'g', -1, 64) — to dst: the one float formatter, for the row path
// (Value.String) and the batch path (Vector.AppendText), as AppendDate is
// the one date formatter.
//
// Stored floats were parsed from short decimals, so the fast path looks
// for the fewest fraction digits d that give f back: m = |f|·10^d rounded,
// accepted when m/10^d == |f|. m and 10^d are exact and the division
// rounds correctly, so that is exactly "m·10⁻ᵈ parses to f". While
// |f|·10^d < 1e15 at most one m per d can parse to f, so the first d
// accepted has strconv's digits; past that bound several can, and the
// search stops. Only 1e-4 ≤ |f| < 1e6 is tried, the range in which 'g'
// prints no exponent. Everything else — NaN, ±Inf, ±0, other magnitudes,
// and values that need more digits — is strconv's.
func AppendFloat(dst []byte, f float64) []byte {
	a := math.Abs(f)
	if !(a >= 1e-4 && a < 1e6) {
		return strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	pow := 1.0
	for d := 0; ; d++ {
		x := a * pow
		if x >= 1e15 {
			break
		}
		if m := uint64(x + 0.5); float64(m)/pow == a {
			if d > 0 && m%10 == 0 {
				break // defensive: m/10 at d-1 is the same decimal and was not accepted
			}
			return appendDecimal(dst, f < 0, m, d)
		}
		pow *= 10
	}
	return strconv.AppendFloat(dst, f, 'g', -1, 64)
}

// appendDecimal appends m·10⁻ᵈ in positional notation: at least one integer
// digit, then d fraction digits.
func appendDecimal(dst []byte, neg bool, m uint64, d int) []byte {
	var buf [24]byte // m < 1e15: 15 digits, a point and a leading zero
	i := len(buf)
	for k := 0; k < d; k++ {
		i--
		buf[i] = byte('0' + m%10)
		m /= 10
	}
	if d > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = byte('0' + m%10)
		if m /= 10; m == 0 {
			break
		}
	}
	if neg {
		dst = append(dst, '-')
	}
	return append(dst, buf[i:]...)
}

// MustDate is ParseDate for statically known dates; it panics on error.
func MustDate(s string) int32 {
	d, err := ParseDate(s)
	if err != nil {
		panic(err)
	}
	return d
}
