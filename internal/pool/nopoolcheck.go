//go:build !poolcheck

package pool

// poison does nothing without the poolcheck build tag: GiveBack is a plain Put.
func poison[T any]([]T) {}
