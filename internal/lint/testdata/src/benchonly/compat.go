package benchonly

// oldSplits is declared in compat.go, which may use the whole surface.
func oldSplits() []split {
	s := split{Pins: []int{1}}
	s.Replica = map[int]int{0: s.Pins[0]}
	Legacy()
	return []split{s}
}

// oldFunc is the type of job.Old.
type oldFunc func() []split
