//go:build poolcheck

package pool

import "unsafe"

// poison fills s's whole capacity with 0xa5 bytes, a pattern no reader
// expects: with the poolcheck tag, whatever reads an array that GiveBack
// returned reads garbage.
func poison[T any](s []T) {
	var zero T
	b := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), uintptr(cap(s))*unsafe.Sizeof(zero))
	for i := range b {
		b[i] = 0xa5
	}
}
