package schema

import (
	"fmt"
	"testing"
)

// fixedTypes are the types ScanFixed reads.
var fixedTypes = []Type{Int32, Int64, Float64, Date}

// checkScan fails the test when ScanFixed accepts a prefix of s that
// ParseFixed does not parse to the same bits.
func checkScan(t *testing.T, typ Type, s string) (n int, ok bool) {
	t.Helper()
	bits, n, ok := ScanFixed(typ, s)
	if !ok {
		return 0, false
	}
	if n <= 0 || n > len(s) {
		t.Fatalf("ScanFixed(%s, %q) took %d bytes", typ, s, n)
	}
	want, err := ParseFixed(typ, s[:n])
	if err != nil || bits != want {
		t.Fatalf("ScanFixed(%s, %q) = %#x from %q; ParseFixed gives %#x, %v", typ, s, bits, s[:n], want, err)
	}
	return n, true
}

// FuzzScanFixed: for any text and each fixed-size type, ScanFixed does not
// panic, and a prefix it accepts is one ParseFixed parses to the same bits
// with no error. Among the seeds, 9.568871211445515 has a 16-digit
// mantissa above 2⁵³, for which float64(m) / 10^k rounds twice and misses
// ParseFixed's bits by one ulp: the 15-digit bound is what keeps it out.
func FuzzScanFixed(f *testing.F) {
	for _, seed := range []string{
		"7", "+5", "-0", "0", "2147483647", "2147483648", "-2147483648", "-2147483649", "12345678901",
		"999999999999999999", "-999999999999999999,", "1234567890123456789",
		"12.5", "5.", ".5", "-.5", "00.50", ".", "-", "1e5", "1.5.5",
		"123456789012345", "12345678.9012345", "9.568871211445515", "12345678901234567890.5", "0.0000000000000000000000001",
		"1999-06-15", "1999-6-15", "1999-04-31", "2000-02-29", "1900-02-29", "0000-01-01", "9999-12-31,x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		for _, typ := range fixedTypes {
			checkScan(t, typ, s)
		}
	})
}

// TestScanFixedForms pins which forms the fast path takes, and how much of
// the text: the forms the upload's lines are written in are taken, and
// every edge past them is left to ParseFixed.
func TestScanFixedForms(t *testing.T) {
	for _, c := range []struct {
		typ  Type
		text string
		n    int // bytes taken; 0: declined
	}{
		{Int32, "371", 3}, {Int32, "+5,", 2}, {Int32, "-0", 2}, {Int32, "2147483647", 10}, {Int32, "-2147483648|", 11},
		{Int32, "2147483648", 0}, {Int32, "-2147483649", 0}, {Int32, "12345678901", 10}, {Int32, "", 0}, {Int32, "+", 0}, {Int32, "x", 0},
		{Int64, "1234567890123", 13}, {Int64, "-999999999999999999", 19}, {Int64, "1234567890123456789", 18},
		{Float64, "42.5", 4}, {Float64, "5.", 2}, {Float64, ".5", 2}, {Float64, "-0", 2}, {Float64, "00.50", 5},
		{Float64, "1e5", 1}, {Float64, "1.5.5", 3}, {Float64, "123456789012345", 15}, {Float64, "1234567890.12345", 16},
		{Float64, "1234567890123456", 0}, {Float64, "9.568871211445515", 0}, {Float64, ".", 0}, {Float64, "-", 0}, {Float64, "Inf", 0}, {Float64, "NaN", 0},
		{Date, "1999-06-15", 10}, {Date, "2000-02-29,", 10}, {Date, "1999-6-15", 0}, {Date, "1999-04-31", 0}, {Date, "1900-02-29", 0}, {Date, "0000-01-01", 0},
		{String, "abc", 0},
	} {
		t.Run(fmt.Sprintf("%s/%q", c.typ, c.text), func(t *testing.T) {
			n, ok := checkScan(t, c.typ, c.text)
			if ok != (c.n > 0) || n != c.n {
				t.Errorf("ScanFixed took %d bytes (ok %v), want %d", n, ok, c.n)
			}
		})
	}
}
