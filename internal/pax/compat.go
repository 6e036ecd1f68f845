package pax

// This file is the compatibility surface the benchmark module (bench/)
// compiles against; nothing else outside this package's tests uses it.

// SortBy is Sort that also returns the permutation relative to the order
// the block had before the call: new row i is old row perm[i]. The upload
// sorts with Sort and reads no permutation.
//
// Deprecated: bench/ only.
func (b *Block) SortBy(col int) ([]int, error) {
	before := b.perm
	if err := b.Sort(col); err != nil {
		return nil, err
	}
	// Old logical row of each physical row.
	logical := make([]int, b.numRows)
	for r := range logical {
		logical[r] = r
	}
	for r, p := range before {
		logical[p] = r
	}
	perm := make([]int, b.numRows)
	for i, p := range b.perm {
		perm[i] = logical[p]
	}
	return perm, nil
}
