package schema

import "math"

// ScanFixed is the upload's fast scalar parser: it reads the value of the
// fixed-size type t at the start of s, in one of the common forms below,
// and returns its bits and the length n of its text. It does not look past
// the value: whether s[n] ends the field is the caller's to check. ok is
// false when s does not start with such a form; the caller then parses the
// field with ParseFixed, which accepts every form these accept and more,
// and words the error of text that is no value.
//
// Whenever ScanFixed accepts s[:n], ParseFixed(t, s[:n]) returns the same
// bits and no error (FuzzScanFixed). The forms are:
//   - Int32: a sign and 1 to 10 digits, within the int32 range;
//   - Int64: a sign and 1 to 18 digits, which cannot overflow;
//   - Float64: a sign, then 1 to 15 digits with at most one point among,
//     before or after them, and no exponent;
//   - Date: YYYY-MM-DD, a year from 0001 and a day its month has.
func ScanFixed(t Type, s string) (bits uint64, n int, ok bool) {
	switch t {
	case Int32:
		v, n, ok := scanInt(s, 10)
		if !ok || v < math.MinInt32 || v > math.MaxInt32 {
			return 0, 0, false
		}
		return uint64(uint32(v)), n, true
	case Int64:
		v, n, ok := scanInt(s, 18)
		return uint64(v), n, ok
	case Float64:
		return scanFloat(s)
	case Date:
		if len(s) < 10 {
			return 0, 0, false
		}
		days, ok := parseCivil(s[:10])
		return uint64(uint32(days)), 10, ok
	}
	return 0, 0, false
}

// scanSign reads an optional leading sign.
func scanSign(s string) (neg bool, n int) {
	if len(s) > 0 && (s[0] == '-' || s[0] == '+') {
		return s[0] == '-', 1
	}
	return false, 0
}

// scanInt reads a sign and 1 to maxDigits digits.
func scanInt(s string, maxDigits int) (v int64, n int, ok bool) {
	neg, n := scanSign(s)
	start := n
	for n < len(s) && n-start < maxDigits && s[n]-'0' <= 9 {
		v = v*10 + int64(s[n]-'0')
		n++
	}
	if n == start {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return v, n, true
}

// pow10 holds the powers of ten a float64 holds exactly, as far as
// scanFloat needs them.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// scanFloat reads a decimal of at most 15 digits and builds it as
// ±m / 10^k, m its digits and k those after the point. That is
// strconv.ParseFloat's own exact path (mantissa below 2⁵², k ≤ 22): m and
// 10^k are exact, so the one division rounds correctly and gives the bits
// every correct parser gives, ParseFixed's among them.
func scanFloat(s string) (bits uint64, n int, ok bool) {
	neg, n := scanSign(s)
	var m uint64
	digits, point := 0, -1
	for ; n < len(s); n++ {
		if d := s[n] - '0'; d <= 9 {
			if digits == 15 {
				return 0, 0, false
			}
			m = m*10 + uint64(d)
			digits++
		} else if s[n] == '.' && point < 0 {
			point = digits
		} else {
			break
		}
	}
	if digits == 0 {
		return 0, 0, false
	}
	f := float64(m)
	if neg {
		f = -f
	}
	if point >= 0 {
		f /= pow10[digits-point]
	}
	return math.Float64bits(f), n, true
}
