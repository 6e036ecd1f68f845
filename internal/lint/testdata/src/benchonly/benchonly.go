// Fixture for the benchonly analyzer: the compatibility surface — what
// compat.go declares, and what "Deprecated: bench/ only" tags — is used
// only from compat.go.
package benchonly

type split struct {
	Pins []int
	// Replica is the form the benchmark reads.
	//
	// Deprecated: bench/ only.
	Replica map[int]int
}

// cacheKey has a field of the same name that is not on the surface.
type cacheKey struct {
	Replica int
}

// Legacy is tagged outside a compat.go.
//
// Deprecated: bench/ only.
func Legacy() {}

func production(s split, k cacheKey) int {
	k.Replica = s.Pins[0]
	s.Replica = nil       // want `Replica is bench/'s compatibility surface`
	for range s.Replica { // want `Replica is bench/'s compatibility surface`
	}
	_ = split{Replica: map[int]int{}} // want `Replica is bench/'s compatibility surface`
	Legacy()                          // want `Legacy is bench/'s compatibility surface`
	_ = oldSplits()                   // want `oldSplits is bench/'s compatibility surface`
	return k.Replica
}

// job's tagged field names the surface (oldFunc) in its own declaration.
type job struct {
	// Old is the form the benchmark sets.
	//
	// Deprecated: bench/ only.
	Old oldFunc
	New func() []split
}

func wire(j *job) {
	j.New = func() []split { return nil }
	j.Old = nil // want `Old is bench/'s compatibility surface`
}
