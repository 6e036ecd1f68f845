// Package fuzzcheck holds the property the decoder fuzz targets share: a
// decoder of on-disk bytes may fail, but it may not allocate out of
// proportion to its input — a count read from a corrupt header must never
// become an allocation size.
package fuzzcheck

import (
	"runtime"
	"testing"
)

// BoundedAlloc runs decode and fails t if it allocated more than a small
// multiple of inputLen bytes (plus a fixed allowance for the decoder's
// own structures). The worst legitimate expansion in this repository is a
// column of empty strings: one input byte per value, a 16-byte string
// header per value in a vector that grew by doubling.
func BoundedAlloc(t testing.TB, inputLen int, decode func()) {
	t.Helper()
	const factor, allowance = 64, 256 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	if got, max := after.TotalAlloc-before.TotalAlloc, uint64(factor*inputLen+allowance); got > max {
		t.Fatalf("decoding %d bytes allocated %d bytes, more than %d", inputLen, got, max)
	}
}
