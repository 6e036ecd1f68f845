//go:build !poolcheck

package pax

// poison does nothing without the poolcheck build tag: giveBack is a plain Put.
func poison[T any]([]T) {}
