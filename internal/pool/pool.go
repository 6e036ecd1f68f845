// Package pool lends arrays out of sync.Pools that hold only *[]T: Borrow
// takes one and GiveBack is the only Put. Built with the poolcheck tag,
// GiveBack first fills the array's whole capacity with 0xa5 bytes, so a
// use after the return reads garbage instead of passing by luck.
package pool

import (
	"slices"
	"sync"
)

// Borrow returns an array of n Ts from p, not zeroed.
func Borrow[T any](p *sync.Pool, n int) *[]T {
	buf, _ := p.Get().(*[]T)
	if buf == nil {
		buf = new([]T)
	}
	*buf = slices.Grow((*buf)[:0], n)[:n]
	return buf
}

// GiveBack returns an array Borrow lent, if any, to its pool.
func GiveBack[T any](p *sync.Pool, buf *[]T) {
	if buf != nil {
		poison(*buf)
		p.Put(buf)
	}
}
