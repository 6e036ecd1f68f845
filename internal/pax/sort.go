package pax

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"repro/internal/pool"
	"repro/internal/schema"
)

// sortKey pairs a row with an order-preserving image of its sort value:
// images compared as unsigned integers order rows as schema.Value.Compare
// orders the values.
type sortKey struct {
	key uint64
	row uint32
}

// Sort clusters the block on attribute col: it stable-sorts the rows by
// that attribute and records the resulting order (the paper's "sort
// index") as the block's row order, which every column then follows,
// preserving row integrity. The order array comes from the package's pool;
// Release returns it.
//
// Only the sort column is looked at to find the order — one (key, row)
// pair per row, radix-sorted — and no value moves: Marshal gathers each
// column through the order as it writes it. Rows with equal values keep
// their order; -0.0 and +0.0 are equal values, as they are to
// Value.Compare. NaN, which no parsed row holds, sorts somewhere.
func (b *Block) Sort(col int) error {
	if col < 0 || col >= len(b.cols) {
		return fmt.Errorf("pax: sort column %d out of range [0,%d)", col, len(b.cols))
	}
	n := b.numRows
	buf := pool.Borrow[sortKey](&keyBufs, 2*n)
	defer pool.GiveBack(&keyBufs, buf)
	keys, scratch := (*buf)[:n], (*buf)[n:]
	// A key's row is physical, so the column is read as stored; keys start
	// in the block's current order, which a stable sort keeps among equals.
	for i := range keys {
		keys[i].row = uint32(b.physical(i))
	}
	switch c := &b.cols[col]; c.typ {
	case schema.Int32, schema.Date:
		for i := range keys {
			keys[i].key = uint64(binary.LittleEndian.Uint32(c.data[int(keys[i].row)*4:]) ^ 1<<31)
		}
		radixSort(keys, scratch)
	case schema.Int64:
		for i := range keys {
			keys[i].key = binary.LittleEndian.Uint64(c.data[int(keys[i].row)*8:]) ^ 1<<63
		}
		radixSort(keys, scratch)
	case schema.Float64:
		for i := range keys {
			keys[i].key = floatKey(binary.LittleEndian.Uint64(c.data[int(keys[i].row)*8:]))
		}
		radixSort(keys, scratch)
	case schema.String:
		if c.nul {
			// A key's zero padding would pass for the NUL inside a value.
			// The block cannot be marshalled; it can still be sorted, by
			// comparison.
			slices.SortStableFunc(keys, func(x, y sortKey) int { return bytes.Compare(c.str(int(x.row)), c.str(int(y.row))) })
		} else {
			c.sortStrings(keys, scratch, 0)
		}
	}
	// A view may share the order this block had, so it is never written
	// over: the block takes a fresh array and drops the old one.
	b.order = pool.Borrow[uint32](&u32Bufs, n)
	order := *b.order
	for i, k := range keys {
		order[i] = k.row
	}
	b.perm, b.sortCol = order, col
	return nil
}

// keyBufs holds Sort's (key, row) arrays between calls. An upload sorts
// each block once per indexed replica, the replicas at once, so a handful
// of arrays the size of the largest block serve the whole upload instead of
// one zeroed allocation per sort. Every pair is written before it is read.
var keyBufs sync.Pool

// u32Bufs holds the uint32 arrays blocks borrow: Sort's row orders and
// UnmarshalPooled's row directories. An upload's pipeline makes one of
// each per replica or block and Release returns them, so a few arrays the
// size of the largest block serve the whole upload.
var u32Bufs sync.Pool

// floatKey maps a float64's bits to its order-preserving image: negative
// values have all bits flipped, others the sign bit, and the two zeros,
// which compare equal, share one image.
func floatKey(bits uint64) uint64 {
	switch {
	case bits<<1 == 0:
		return 1 << 63
	case bits>>63 != 0:
		return ^bits
	}
	return bits | 1<<63
}

// sortStrings stable-sorts keys by the bytes of their rows' values from
// offset depth on, given that the values agree before depth and none is
// shorter. The image of a value is its next eight bytes, big-endian,
// zero-padded: the order is byte-wise, and as no value contains a zero
// byte, padding sorts a shorter value before every longer one it
// prefixes. Rows whose images agree are equal if the images end in
// padding, and are sorted on the eight bytes that follow if not.
func (c *column) sortStrings(keys, scratch []sortKey, depth int) {
	for i := range keys {
		rest := c.str(int(keys[i].row))[depth:]
		if len(rest) >= 8 {
			keys[i].key = binary.BigEndian.Uint64(rest)
			continue
		}
		keys[i].key = 0
		for j, ch := range rest {
			keys[i].key |= uint64(ch) << (56 - 8*j)
		}
	}
	radixSort(keys, scratch)
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].key == keys[lo].key {
			hi++
		}
		if hi-lo > 1 && byte(keys[lo].key) != 0 {
			c.sortStrings(keys[lo:hi], scratch[lo:hi], depth+8)
		}
		lo = hi
	}
}

// radixMin is the length below which a comparison sort beats counting
// eight bytes per key.
const radixMin = 64

// radixSort stable-sorts keys by key, least significant byte first,
// skipping the bytes all keys share. scratch has the length of keys.
func radixSort(keys, scratch []sortKey) {
	if len(keys) < radixMin {
		slices.SortStableFunc(keys, func(x, y sortKey) int { return cmp.Compare(x.key, y.key) })
		return
	}
	// All eight histograms in one pass, written out: the compiler does not
	// unroll a loop over the digits.
	var counts [8][256]uint32
	for _, k := range keys {
		x := k.key
		counts[0][byte(x)]++
		counts[1][byte(x>>8)]++
		counts[2][byte(x>>16)]++
		counts[3][byte(x>>24)]++
		counts[4][byte(x>>32)]++
		counts[5][byte(x>>40)]++
		counts[6][byte(x>>48)]++
		counts[7][byte(x>>56)]++
	}
	src, dst := keys, scratch
	for d := range counts {
		count := &counts[d]
		if count[byte(src[0].key>>(8*d))] == uint32(len(src)) {
			continue
		}
		next := uint32(0)
		for i, n := range count {
			count[i], next = next, next+n
		}
		for _, k := range src {
			i := byte(k.key >> (8 * d))
			dst[count[i]] = k
			count[i]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

// appendGathered appends the values of perm's rows to dst in the order
// perm gives — perm[i] is the physical row that goes i-th — terminators
// included and without a string column's offset list. dst must have room
// for them: the callers reserve the whole column, or the whole block,
// once.
func (c *column) appendGathered(dst []byte, perm []uint32) []byte {
	at := len(dst)
	switch c.typ.Width() {
	case 4:
		dst = dst[:at+len(perm)*4]
		for _, p := range perm {
			binary.LittleEndian.PutUint32(dst[at:], binary.LittleEndian.Uint32(c.data[int(p)*4:]))
			at += 4
		}
	case 8:
		dst = dst[:at+len(perm)*8]
		for _, p := range perm {
			binary.LittleEndian.PutUint64(dst[at:], binary.LittleEndian.Uint64(c.data[int(p)*8:]))
			at += 8
		}
	default:
		for _, p := range perm {
			dst = append(dst, c.data[c.starts[p]:c.starts[p+1]]...)
		}
	}
	return dst
}
